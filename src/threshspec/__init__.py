"""Threshold hypergraph spectra.

A k-uniform threshold hypergraph is built by a 0/1 creation sequence: each
1 adds a vertex closing every edge with k-1 earlier vertices, each 0 adds
a silent one.  The package derives exact pair-count adjacency matrices,
closed-form spectra through block eigenvalues plus an equitable quotient,
and brute-force oracles to verify both, with a small CLI on top.
"""

from .combinatorics import FLOAT_SAFE_LIMIT, as_float, binomial
from .errors import (
    ConvergenceError,
    CountTooLargeError,
    ResourceLimitError,
    SequenceError,
)
from .hypergraph import (
    DENSE_CELL_CAP,
    EDGE_CAP,
    EDGE_ENTRY_CAP,
    AdjacencyMatrix,
    BlockProfile,
    ThresholdHypergraph,
    block_profile,
)
from .oracle import (
    DENSE_SOLVE_CAP,
    GeneralHypergraph,
    adjacency_bruteforce,
    full_spectrum_numeric,
    householder_ql_eigenvalues,
    load_replaceable_non_threshold_7_4,
)
from .sequences import (
    SEQUENCE_BUDGET,
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

__version__ = "0.1.0"
