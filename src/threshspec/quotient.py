"""The equitable quotient as an explicit r x r matrix, and the dense solver
once run on it.

The closed route in `spectrum` never builds this matrix: its pencil reads
the same r exact gamma values.  `quotient_matrix` reads them off the block
profile in O(r**2), `symmetrize_quotient` gives a similar symmetric
matrix, and `jacobi_eigenvalues`, the dense solver before the rational QL,
solves it.  Nothing in the package calls the three; the acceptance tests
and the benchmark's tracer reach them through `spectrum`, which serves
them from here on first use.
"""

import math
from collections.abc import Sequence
from operator import index

from .combinatorics import as_float
from .errors import ConvergenceError
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
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "block_sizes", tuple(map(index, block_sizes)))
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
    Q[s][t] = (a_t - [s = t]) * gamma[max(s, t)].
    """
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


def jacobi_eigenvalues(
    matrix: Sequence[Sequence[float]],
    tol: float = 1e-12,
    max_sweeps: int = 100,
) -> list[float]:
    """All eigenvalues of a symmetric matrix, sorted descending.

    Cyclic-by-row Jacobi rotations; a sweep visits every upper off-diagonal
    entry in a fixed order, so identical inputs give identical output.
    Converged when the off-diagonal Frobenius norm drops below tol times
    the Frobenius norm of the input.
    """
    n = len(matrix)
    a = [[float(x) for x in row] for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return []
    norm = math.sqrt(sum(x * x for row in a for x in row))
    scale = max(1.0, norm)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > 1e-12 * scale:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
            a[i][j] = a[j][i] = 0.5 * (a[i][j] + a[j][i])
    for _ in range(max_sweeps):
        off = math.sqrt(
            2.0 * sum(a[i][j] ** 2 for i in range(n) for j in range(i + 1, n))
        )
        if off <= tol * norm:
            return sorted((a[i][i] for i in range(n)), reverse=True)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                if abs(tau) > 1e150:
                    # rotation angle is tiny; avoid overflow in tau*tau
                    t = 1.0 / (2.0 * tau)
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = a[p][i] = c * aip - s * aiq
                    a[i][q] = a[q][i] = s * aip + c * aiq
    raise ConvergenceError(
        f"jacobi iteration did not converge in {max_sweeps} sweeps"
    )
