"""Eigenvalues of threshold hypergraph adjacency matrices.

The closed route builds neither the n x n matrix nor the n creation bits.
For i < j the pair count A[i][j] depends only on the block of j:
`block_profile` (from `hypergraph`) computes those r exact integers,
gamma, from the run lengths in O(r), and they fix the whole matrix.  Every
block of b >= 2 twin vertices contributes -gamma of that block with
multiplicity b - 1, and the remaining r eigenvalues are those of the
equitable quotient: rational QL estimates them on a tridiagonal matrix
reduced in O(r**2) from a pencil congruent to the quotient problem, and
two O(r) inertia counts of the pencil certify each estimate (bisection on
the counts replaces one that fails); no step calls `math.hypot`, whose
last bit varies across CPython versions.  A disconnected sequence takes
the same route: no edge holds a vertex after the last bit 1, so its
trailing zeros block has gamma 0 and a zero column, which yields 0 once
per twin and once from the quotient.  Values within the fixed `MERGE_TOL`
are reported once, at the block value when the group holds one.  The
catalogued families enter their gamma by hand and share the rest.
Everything before the rational QL is folded one block at a time from the
last block up by three steps: `gamma_step` (gamma and the edge count),
`pair_sums` (the exact sums) and `_Pencil.push` (the reduction).
`block_profile` and `_Pencil.of` fold them over one sequence, and
`scan_quotient_simplicity` folds them and the bit text (`block_text`)
along a tree of suffixes, so that the sequences ending in the same blocks
share that work, and builds no sequence record.  The dense oracle
`oracle.full_spectrum_numeric` shares `_rational_ql` with the closed
route.  `jacobi_eigenvalues`, the dense solver before QL, has no caller
left in the package.
"""

import math
import sys
from collections.abc import Iterable, Sequence
from operator import index, sub

from .combinatorics import (
    as_float,
    binomial,
    check_bit_text,
    check_closed,
    count_text,
    edge_total,
)
from .errors import ConvergenceError, SequenceError
from .hypergraph import (
    BlockProfile,
    block_profile,
    check_pair_total,
    gamma_step,
    pair_sums,
)
from .records import FrozenRecord
from .sequences import ShortSequence, block_text, head_text, sweep_space

__all__ = [
    "MERGE_TOL",
    "QL_ITERATIONS",
    "BlockEigenvalue",
    "EigenPair",
    "Spectrum",
    "QuotientMatrix",
    "ScanRow",
    "block_eigenvalues",
    "quotient_matrix",
    "quotient_eigenvalues",
    "symmetrize_quotient",
    "jacobi_eigenvalues",
    "full_spectrum_closed",
    "family_sequence",
    "family_spectrum_symbolic",
    "scan_quotient_simplicity",
]

#: Absolute distance within which the closed route reports values once.
#: Block values are exact integers; a quotient estimate within it of one
#: is reported at that block value.
MERGE_TOL = 1e-9


class BlockEigenvalue(FrozenRecord):
    """One closed-form eigenvalue with its guaranteed multiplicity."""

    _fields = ("value", "multiplicity_lower_bound", "block_index")

    def __init__(
        self, value: int, multiplicity_lower_bound: int, block_index: int
    ) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "multiplicity_lower_bound", multiplicity_lower_bound)
        object.__setattr__(self, "block_index", block_index)


def block_eigenvalues(bp: BlockProfile) -> list[BlockEigenvalue]:
    """Closed-form eigenvalues contributed by blocks of size >= 2.

    Each qualifying block j yields -gamma_j with multiplicity a_j - 1: the
    difference of two twin indicator vectors is an eigenvector.  A
    trailing zeros block, whose vertices lie in no edge, yields 0.  The
    two-route verify sweep checks each value against the direct pair count
    of the block's first two vertices.
    """
    return [
        BlockEigenvalue(-g, size - 1, j)
        for j, (g, size) in enumerate(zip(bp.gamma, bp.seq.runs), start=1)
        if size >= 2
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


#: Machine epsilon; the rational QL's split test and the certificate
#: width of the pencil's counts are multiples of it.
_EPS = sys.float_info.epsilon


#: QL sweeps allowed per eigenvalue before `_rational_ql` raises
#: `ConvergenceError`: tqlrat's 30.
QL_ITERATIONS = 30


def _rational_ql(d: list[float], e2: list[float]) -> list[float]:
    """Eigenvalues, unsorted, of the symmetric tridiagonal matrix with
    diagonal d and squared off-diagonal e2 (e2[i] couples d[i], d[i + 1]).

    Root-free rational QL, tqlrat of EISPACK (Reinsch, CACM Algorithm 464,
    1973) with sqrt(p * p + 1) for pythag.  Each sweep subtracts its shift
    from every diagonal entry below d[l] once, as tqlrat does, but the
    chase subtracts it as it reads the entry; only the entries past the
    block, which the chase never reads, are shifted in place.  An
    eigenvalue not converged after `QL_ITERATIONS` sweeps raises
    `ConvergenceError`.
    """
    d, e2 = list(d), [*e2, 0.0]  # the zero stops every search for a split
    sqrt, copysign = math.sqrt, math.copysign
    last = len(d) - 1
    f = t = b = c = 0.0
    for l in range(len(d)):
        h = abs(d[l]) + sqrt(e2[l])
        if t < h:
            t, b, c = h, _EPS * h, (_EPS * h) ** 2
        m = l
        while e2[m] > c:
            m += 1
        for _ in range(QL_ITERATIONS if m > l else 0):
            s = sqrt(e2[l])
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * s)
            r = sqrt(p * p + 1.0)
            dl = s / (p + copysign(r, p))
            shift = g - dl
            if m < last:
                d[m + 1 :] = [v - shift for v in d[m + 1 :]]
            f += shift
            g = h = (d[m] - shift) or b
            s = 0.0
            for i in range(m - 1, l, -1):
                ei, di = e2[i], d[i] - shift
                p = g * h
                r = p + ei
                e2[i + 1] = s * r
                s = ei / r
                d[i + 1] = h + s * (h + di)
                g = (di - ei / g) or b
                h = g * p / r
            # the last step reads the new d[l], which takes no shift
            ei = e2[l]
            p = g * h
            r = p + ei
            e2[l + 1] = s * r
            s = ei / r
            d[l + 1] = h + s * (h + dl)
            g = (dl - ei / g) or b
            h = g * p / r
            e2[l] = s * g
            d[l] = h
            # e2[l] is held divided by h, which guards the test against underflow
            if h == 0.0 or abs(e2[l]) <= abs(c / h) or e2[l] * h == 0.0:
                break
            e2[l] *= h
        else:
            if m > l:
                raise ConvergenceError(
                    f"QL iteration did not converge in {QL_ITERATIONS} "
                    f"iterations at eigenvalue {l + 1} of {len(d)}"
                )
        d[l] += f
    return d


class _Pencil:
    """Tridiagonal pencil T(lam) whose eigenvalues are the quotient's.

    With m_s(lam) = (gamma_s + lam) / a_s and gamma_{r+1} = m_{r+1} = 0,
    T(lam) has diagonal (gamma_s - gamma_{s+1}) - m_s - m_{s+1} and
    off-diagonal m_{s+1}.  It is congruent to P^T A P - lam D, where P
    maps each vertex to its block and D = diag(a_s), so by Sylvester's law
    its negative pivots count the quotient eigenvalues below lam, and
    det T(lam) is a degree-r polynomial whose roots are exactly those
    eigenvalues.

    T(lam) = T(0) - lam B B^T, B upper bidiagonal, so the eigenvalues are
    those of C = B^-1 T(0) B^-T: `push` reduces C one block at a time,
    O(r**2) in all, `_rational_ql` estimates its eigenvalues and `count`
    certifies them.
    When `_rational_ql` raises `ConvergenceError`, every value is found by
    bisection on the counts instead.
    The chase in `push` keeps its working entries in locals but
    makes the same IEEE operations in the same order as the rotations
    written out entry by entry, so its results are identical to the bit;
    a digest in the test-suite pins them.

    `count` factors T from the last block up.  With h_r = gamma_r, the
    pivots are p_s = h_s - m_s and
    h_{s-1} = (gamma_{s-1} - gamma_s) - h_s m_s / p_s, which is the textbook
    p_{s-1} = T_{s-1,s-1} - T_{s-1,s}^2 / p_s regrouped.  The grouping never
    subtracts the large terms that a tiny pivot creates; the top-down
    textbook order loses up to 1e-13 |A|_F at r = 60, this one stays within
    a few units of roundoff times |A|_F while neighbouring block sizes
    differ by less than a factor of about 10**3.  Beyond that the counts
    err further, and so do the eigenvalues they certify: on the star
    C(N,1)_2 the result is 12 eps |A|_F off at N = 4000, 350 at N = 10**8
    and 1.7e6 at N = 10**14, though `_rational_ql`'s estimate is within one
    unit there; the counts reject it and `_isolate` returns their view.

    `_Pencil()` is the pencil of no block.  `push` puts one block in front
    and `close` ends the sequence; `fork` copies an open pencil, so that
    `_scan_size` grows one suffix into several sequences, and `of` folds
    the blocks of one profile.
    """

    def __init__(self) -> None:
        """No block yet.  `push` holds the front block as (gamma, a, gamma
        as a double, 1 / a), first the one past the last: gamma_r = 0, a_r = 1."""
        self.rows, self._d, self._e, self._front = [], [], [], (0, 1, 0.0, 1.0)

    @classmethod
    def of(cls, bp: BlockProfile) -> "_Pencil":
        """The closed pencil of bp, its blocks pushed from the last up."""
        pencil = cls()
        for g, a in zip(reversed(bp.gamma), reversed(bp.seq.runs)):
            pencil.push(g, a)
        pencil.close(bp.frobenius_sq)
        return pencil

    def fork(self) -> "_Pencil":
        """A copy that grows apart from this one."""
        twin = _Pencil()
        twin.rows, twin._d, twin._e = self.rows[:], self._d[:], self._e[:]
        twin._front = self._front
        return twin

    def push(self, g: int, a: int) -> None:
        """Put block s, of gamma g and a vertices, in front of blocks
        s+1..r-1: complete block s+1's count row and run step s of the
        reduction in `tridiagonal`, which touches no entry above s.  g,
        then a, goes through `as_float`, which refuses a count beyond
        2**53.  d and e are held from the last block up (index j is
        block r-1-j), and gamma_r = 0, a_r = 1 make e_{r-1} = 0, which
        stops every chase."""
        gf, af = as_float(g), as_float(a)
        g1, a1, gf1, inv1 = self._front
        d, e, sqrt = self._d, self._e, math.sqrt
        if d:
            self.rows.append((gf - gf1, gf1, inv1))
        self._front = (g, a, gf, 1.0 / af)
        c = sqrt(a / a1)
        d.append(float(a * (g - g1) - g) - g1 * a / a1)
        e.append(c * g1)
        i = len(d) - 1
        if not i:
            return
        dq = d[i - 1]
        d[i] += c * (2.0 * e[i] + c * dq)
        # x, dq and eq are e[q + 1], d[q] and e[q], held in locals while
        # the chase moves down and written back when it stops
        q, x, eq = i - 1, e[i] + c * dq, e[i - 1]
        bulge = c * eq  # at (q + 1, q - 1)
        while bulge:
            dn, en = d[q - 1], e[q - 1]
            rho = sqrt(x * x + bulge * bulge)
            cs = x / rho
            sn = bulge / rho
            e[q + 1] = rho
            v = sn * (dn - dq) + 2.0 * cs * eq
            w = sn * v
            d[q] = dq + w
            dq = dn - w
            x = cs * v - eq
            bulge = sn * en
            eq = en * cs
            q -= 1
        e[q + 1], d[q], e[q] = x, dq, eq

    def close(self, frobenius_sq: int) -> None:
        """Take the block pushed last as block 0: its count row has
        gamma_{-1} - gamma_0 = 0.  `frobenius_sq` is |A|_F**2, exact."""
        _, _, gf, inv = self._front
        self.rows.append((0.0, gf, inv))
        self.r = len(self.rows)
        self.top = self.rows[0][1]
        self.scale = max(1.0, math.sqrt(frobenius_sq))

    def count(self, lam: float) -> int:
        """Negative pivots of T(lam).

        An exact zero pivot p_s is read as -0: it counts, and when m_s is
        nonzero the next pivot is +inf, which does not count, and
        h_{s-2} = (gamma_{s-2} - gamma_{s-1}) - m_{s-1}.
        """
        h = self.top
        below = 0
        rows = iter(self.rows)
        for w, g, inv in rows:
            m = (g + lam) * inv
            p = h - m
            if p <= 0.0:
                below += 1
                if p == 0.0:
                    h = w
                    if m != 0.0:
                        # the +inf pivot: its row only sets the next h
                        for w, g, inv in rows:
                            h = w - (g + lam) * inv
                            break
                    continue
            h = w - h * m / p
        return below

    def tridiagonal(self) -> tuple[list[float], list[float]]:
        """Diagonal and squared off-diagonal of C up to an orthogonal
        similarity (Crawford, CACM 16, 1973), with B_ss = a_s^(-1/2) and
        B_{s,s+1} = -a_{s+1}^(-1/2).  From X = diag(a)^(1/2) T(0) diag(a)^(1/2),
        `push` ran i = r-2 down to 0: add c_i = sqrt(a_i / a_{i+1}) times row
        and column i+1 to row and column i, and chase the bulge left at
        (i, i+2) off the end with Givens rotations on (q, q+1), q > i, which
        commute with the steps still to come (they touch no row > i)."""
        return self._d[::-1], [x * x for x in self._e[:0:-1]]

    def eigenvalues(self) -> list[float]:
        """All r eigenvalues, descending, each within delta = 4 eps |A|_F
        of its eigenvalue as the counts see it.

        The i-th smallest estimate x is accepted when
        count(x - delta) <= i < count(x + delta), else `_isolate` finds it.
        A `ConvergenceError` makes every estimate NaN, which none accepts.
        """
        count = self.count
        delta = 4.0 * _EPS * self.scale
        bound = self.scale + 1.0
        if count(-bound) != 0 or count(bound) != self.r:
            raise RuntimeError(
                "internal: quotient eigenvalues escape the Frobenius bound"
            )
        try:
            estimates = sorted(_rational_ql(*self.tridiagonal()))
        except ConvergenceError:
            estimates = [math.nan] * self.r
        out = []
        for i, x in enumerate(estimates):
            if not count(x - delta) <= i < count(x + delta):
                x = self._isolate(i, x, delta, bound)
            out.append(x)
        out.sort(reverse=True)
        return out

    def _isolate(self, i: int, x: float, delta: float, bound: float) -> float:
        """The i-th smallest eigenvalue: a bracket around x (around 0 if x
        is not within the Frobenius bound) doubles in width until
        count(lo) <= i < count(hi), then is bisected to width 2 delta."""
        if not abs(x) < bound:
            x = 0.0
        lo, hi, step = x, x, delta
        while self.count(lo) > i or self.count(hi) <= i:
            lo, hi = max(x - step, -bound), min(x + step, bound)
            step *= 2.0
        while hi - lo > 2.0 * delta:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if self.count(mid) > i else (mid, hi)
        return 0.5 * (lo + hi)


def quotient_eigenvalues(bp: BlockProfile) -> list[float]:
    """The r quotient eigenvalues from the block profile, descending."""
    return _Pencil.of(bp).eigenvalues()


class EigenPair(FrozenRecord):
    _fields = ("value", "multiplicity", "source")

    def __init__(self, value: float, multiplicity: int, source: str) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "source", source)


class Spectrum(FrozenRecord):
    """Eigenvalues with multiplicities, sorted descending."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[EigenPair, ...]) -> None:
        object.__setattr__(self, "pairs", pairs)

    @property
    def distinct_count(self) -> int:
        return len(self.pairs)

    def expanded(self) -> list[float]:
        """Every eigenvalue repeated by multiplicity, descending."""
        out = []
        for p in self.pairs:
            out.extend([p.value] * p.multiplicity)
        return out


def _merge_entries(entries: Iterable[tuple[float, int, str]]) -> tuple[EigenPair, ...]:
    """The closed route's merge, in one pass over the (value,
    multiplicity, source) triples, largest value first: a triple joins the
    group when within `MERGE_TOL` below its first value, else starts one.

    A group keeps its first value, summed multiplicity, multiplicity-
    weighted sum from the int 0, first block value and sources in
    first-seen order.  Whatever its size, it is reported at its block value
    if it holds one, else at weighted sum / multiplicity, so a lone -0.0
    comes out +0.0.  Distinct block values, integers, never share a group.
    """
    groups: list[list] = []
    for v, m, src in sorted(entries, key=lambda t: -t[0]):
        block = v if src.startswith("block") else None
        if groups and group[0] - v <= MERGE_TOL:
            group[1] += m
            group[2] += v * m
            if group[3] is None:
                group[3] = block
            if src not in group[4]:
                group[4].append(src)
        else:
            group = [v, m, 0 + v * m, block, [src]]
            groups.append(group)
    return tuple(
        EigenPair(weighted / total if exact is None else exact, total, "+".join(srcs))
        for _, total, weighted, exact, srcs in groups
    )


def _assemble(bp: BlockProfile) -> Spectrum:
    """Spectrum of a sequence from its block profile.

    Blocks of size a_j contribute -gamma_j with multiplicity a_j - 1 and
    the quotient contributes r values, which accounts for all n; values
    within `MERGE_TOL` are reported once by `_merge_entries`, used only here.
    """
    entries = [
        (as_float(b.value), b.multiplicity_lower_bound, f"block{b.block_index}")
        for b in block_eigenvalues(bp)
    ]
    entries.extend((v, 1, "quotient") for v in quotient_eigenvalues(bp))
    pairs = _merge_entries(entries)
    total = sum(p.multiplicity for p in pairs)
    if total != bp.seq.n:
        raise RuntimeError(
            f"internal: multiplicities sum to {total}, expected {bp.seq.n}"
        )
    return Spectrum(pairs)


def full_spectrum_closed(ss: ShortSequence) -> Spectrum:
    """Complete spectrum from block eigenvalues plus the quotient.

    Takes the run-length form; all work grows with r, not n, as r**2.
    `check_closed` refuses what the route cannot answer, or r**2 over
    `CLOSED_WORK_CAP`, before any binomial is computed.  Values within
    `MERGE_TOL` are reported once with summed multiplicity, at the block
    value when the group holds one.
    """
    check_closed(ss)
    return _assemble(block_profile(ss))


def family_sequence(
    family: int, n: int, k: int, j: int | None = None
) -> ShortSequence:
    """Short sequence of one of the three catalogued families.

    Family 1: a lone pseudodominant after n-1 silent vertices.
    Family 2: pseudodominants from position j through n (needs j).
    Family 3: a k-clique head, a silent middle, one late pseudodominant.
    Boundary cases that set bit k (family 1 with n = k, family 2 with
    j = k) collapse to the complete hypergraph, a single merged run.
    """
    if k < 2:
        raise SequenceError(f"uniformity must be at least 2, got {k}")
    if j is not None and family != 2:
        raise SequenceError(
            f"only family 2 takes j, got j={count_text(j)} for family {family}"
        )
    if family == 1:
        if n < k:
            raise SequenceError(
                f"family 1 needs n >= k, got n={count_text(n)}, k={count_text(k)}"
            )
        if n == k:
            return ShortSequence(k, (n,), first_run_has_ones=True)
        return ShortSequence(k, (n - 1, 1))
    if family == 2:
        if j is None:
            raise SequenceError("family 2 needs the first pseudodominant position j")
        if not k <= j <= n - 1:
            raise SequenceError(
                f"family 2 needs k <= j <= n-1, got j={count_text(j)}, "
                f"n={count_text(n)}, k={count_text(k)}"
            )
        if j == k:
            return ShortSequence(k, (n,), first_run_has_ones=True)
        return ShortSequence(k, (j - 1, n - j + 1))
    if family == 3:
        if n < k + 2:
            raise SequenceError(
                f"family 3 needs n >= k+2, got n={count_text(n)}, k={count_text(k)}"
            )
        return ShortSequence(k, (k, n - k - 1, 1), first_run_has_ones=True)
    raise SequenceError(f"unknown family {family}; expected 1, 2 or 3")


def family_spectrum_symbolic(
    family: int,
    n: int,
    k: int,
    j: int | None = None,
) -> Spectrum:
    """Spectrum of a family member from its catalogued closed forms.

    Each family's gamma is entered by hand, made into a `BlockProfile`
    without `block_profile` and handed to the assembler of the closed
    route: family 1 has
    (binomial(n-3, k-3), binomial(n-2, k-2)), family 2 has
    (sum over the pseudodominants p = j..n of binomial(p-3, k-3),
    binomial(n-2, k-2)), summed by the hockey stick to
    binomial(n-2, k-2) - binomial(j-3, k-2), and family 3 has
    (binomial(n-3, k-3) + 1, binomial(n-3, k-3), binomial(n-2, k-2)).
    The complete-hypergraph boundaries (family 1 with n = k, family 2
    with j = k) are one block with (binomial(n-2, k-2),).  The hand-entered
    gamma is held to the pair-total identity that `block_profile` checks,
    `check_pair_total` against `edge_total`.  Always agrees with
    `full_spectrum_closed`, merging at the same `MERGE_TOL`, and refuses
    what it refuses, before any binomial.
    """
    ss = family_sequence(family, n, k, j)
    check_closed(ss)
    a_cnt = binomial(n - 3, k - 3)
    b_cnt = binomial(n - 2, k - 2)
    if ss.r == 1:
        gamma: tuple[int, ...] = (b_cnt,)
    elif family == 1:
        gamma = (a_cnt, b_cnt)
    elif family == 2:
        gamma = (b_cnt - binomial(j - 3, k - 2), b_cnt)
    else:
        gamma = (a_cnt + 1, a_cnt, b_cnt)
    bp = BlockProfile(ss, gamma)
    check_pair_total(k, bp.pair_total, edge_total(ss), ss)
    return _assemble(bp)


class ScanRow(FrozenRecord):
    _fields = ("sequence", "n", "k", "r", "min_quotient_gap", "flagged")

    def __init__(
        self,
        sequence: str,
        n: int,
        k: int,
        r: int,
        min_quotient_gap: float,
        flagged: bool,
    ) -> None:
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "min_quotient_gap", min_quotient_gap)
        object.__setattr__(self, "flagged", flagged)


def scan_quotient_simplicity(n_max: int, k_values: Iterable[int]) -> list[ScanRow]:
    """Minimum quotient eigenvalue gap for every connected sequence.

    A row is flagged when two quotient eigenvalues sit closer than the
    fixed `MERGE_TOL`, the distance within which the closed route reports
    values once, i.e. the quotient fails to separate them numerically.
    Single-block sequences report an infinite gap.  `sweep_space` gives
    the order of the sizes and refuses a space over `SEQUENCE_BUDGET`
    before the first row; within a size the rows are in lexicographic bit
    order, which is the order of their bit text.

    Each size's sequences are the leaves of a tree of suffixes
    (`_scan_size`).  Everything the closed route computes before the
    rational QL depends on n, k and a suffix of blocks alone, and so does
    the bit text after the first block: gamma, the exact sums, the pencil's
    count rows, the reduction, whose step s touches only blocks s..r-1, and
    the text are folded from the last block up.  A node folds its block once
    for every sequence that ends in its suffix, with the steps and pieces
    that `block_profile`, `_Pencil.of` and `format_bits` use on one sequence,
    so each sequence gets the same text, exact sums and IEEE operations in
    the same order as `quotient_eigenvalues(block_profile(ss))`, and its
    `check_pair_total`, which names a failure by the row's bit text.
    """
    out = []
    for k, n in sweep_space(n_max, k_values, "scan", True):
        out += _scan_size(k, n)
    return out


def _scan_size(k: int, n: int) -> list[ScanRow]:
    """The `ScanRow` of every connected sequence of size (k, n), sorted by
    bit text.  A node is a suffix of blocks that leaves positions 1..end in
    front of it; the last block is a ones block and the kinds alternate.
    A child puts one more block in front that leaves at least k positions,
    or takes all of 1..end as the first block, which closes a sequence.
    Each child but that first block gets a copy of the node's state.

    The text is folded too, so a size is checked once, before the first
    step: past 2**53 (its one-block run), then over the text cap.
    """
    out = []

    def grow(end, ones, after, pairs, squares, edges, pencil, text):
        # the suffix after position `end`; front_* puts one more block in front
        for size in (*range(1, end - k + 1), end):
            g, front_after, front_edges = gamma_step(
                k, end, size, ones, after, edges
            )
            front_pairs, front_squares = pair_sums(pairs, squares, g, size, end)
            front = pencil if size == end else pencil.fork()
            front.push(g, size)
            if size < end:
                grow(
                    end - size,
                    not ones,
                    front_after,
                    front_pairs,
                    front_squares,
                    front_edges,
                    front,
                    block_text(size, ones) + text,
                )
                continue
            sequence = head_text(k, size, ones) + text
            check_pair_total(k, front_pairs, front_edges, sequence)
            front.close(2 * front_squares)
            values = front.eigenvalues()
            gap = min(map(sub, values, values[1:]), default=math.inf)
            out.append(ScanRow(sequence, n, k, len(values), gap, gap < MERGE_TOL))

    if n >= k:
        as_float(n)
        check_bit_text(n)
        grow(n, True, 0, 0, 0, 0, _Pencil(), "")
    return sorted(out, key=lambda row: row.sequence)


def __getattr__(name: str) -> object:
    """`full_spectrum_numeric`, which the acceptance tests and the
    benchmark's tracer look up in this module, served from `oracle`
    (PEP 562)."""
    if name == "full_spectrum_numeric":
        from . import oracle

        return oracle.full_spectrum_numeric
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
