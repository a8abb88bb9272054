"""Threshold hypergraph spectra.

A k-uniform threshold hypergraph is built by a 0/1 creation sequence: each
1 adds a vertex closing every edge with k-1 earlier vertices, each 0 adds
a silent one.  The package derives exact pair-count adjacency matrices,
closed-form spectra through block eigenvalues plus an equitable quotient,
and brute-force oracles to verify both, with a small CLI on top.
"""

import types

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
    QuotientMatrix,
    ScanRow,
    Spectrum,
    block_eigenvalues,
    family_sequence,
    family_spectrum_symbolic,
    full_spectrum_closed,
    jacobi_eigenvalues,
    quotient_eigenvalues,
    quotient_matrix,
    scan_quotient_simplicity,
    symmetrize_quotient,
)

_ORACLE_NAMES = (
    "GeneralHypergraph",
    "adjacency_bruteforce",
    "full_spectrum_numeric",
    "householder_ql_eigenvalues",
    "load_replaceable_non_threshold_7_4",
)

# the public names the imports bind, not the submodules, then the oracles'
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + list(_ORACLE_NAMES)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """The oracle names, served from `oracle` on first use (PEP 562), so
    that importing the package does not import the oracles."""
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
