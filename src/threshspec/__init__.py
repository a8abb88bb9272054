"""Threshold hypergraph spectra.

A k-uniform threshold hypergraph is built by a 0/1 creation sequence: each
1 adds a vertex closing every edge with k-1 earlier vertices, each 0 adds
a silent one.  The package derives exact pair-count adjacency matrices,
closed-form spectra through block eigenvalues plus an equitable quotient,
and brute-force oracles to verify both, with a small CLI on top.
"""

import types

#: The public names served on first use, each with its module: the
#: oracles, the quotient-gap walk, the families and the explicit quotient.
#: This is the one list: the package, `spectrum` and `hypergraph` each
#: serve every name of it through `_served`.
_SERVED = {
    "GeneralHypergraph": "oracle",
    "adjacency_bruteforce": "oracle",
    "full_spectrum_numeric": "oracle",
    "householder_ql_eigenvalues": "oracle",
    "load_replaceable_non_threshold_7_4": "oracle",
    "ScanRow": "scan",
    "scan_quotient_simplicity": "scan",
    "family_sequence": "families",
    "family_spectrum_symbolic": "families",
    "QuotientMatrix": "quotient",
    "quotient_matrix": "quotient",
    "symmetrize_quotient": "quotient",
    "jacobi_eigenvalues": "quotient",
}


def _served(owner: str, name: str) -> object:
    """A name of `_SERVED`, from its module, imported on first use (PEP
    562), so that importing the package loads none of those modules; any
    other name is missing from `owner`, the module that was asked.  It is
    bound before the submodule imports below because `spectrum` and
    `hypergraph` import it."""
    if name in _SERVED:
        from importlib import import_module

        return getattr(import_module(f".{_SERVED[name]}", __name__), name)
    raise AttributeError(f"module {owner!r} has no attribute {name!r}")


from .combinatorics import (
    DENSE_CELL_CAP,
    DENSE_SOLVE_CAP,
    EDGE_CAP,
    EDGE_ENTRY_CAP,
    FLOAT_SAFE_LIMIT,
    SEQUENCE_BUDGET,
    as_float,
    binomial,
)
from .errors import (
    ConvergenceError,
    CountTooLargeError,
    ResourceLimitError,
    SequenceError,
)
from .hypergraph import (
    AdjacencyMatrix,
    BlockProfile,
    ThresholdHypergraph,
    block_profile,
)
from .sequences import (
    BinarySequence,
    ShortSequence,
    complement_sequence,
    count_valid_sequences,
    format_short,
    iter_valid_sequences,
    parse_binary,
    parse_runs,
    parse_sequence,
    parse_short,
    to_binary,
    to_short,
)
from .spectrum import (
    BlockEigenvalue,
    EigenPair,
    Spectrum,
    block_eigenvalues,
    full_spectrum_closed,
    quotient_eigenvalues,
)

# the public names the imports bind, not the submodules, then the served ones
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + list(_SERVED)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """A name of `_SERVED`, through `_served`."""
    return _served(__name__, name)
