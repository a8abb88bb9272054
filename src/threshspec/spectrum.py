"""Eigenvalues of threshold hypergraph adjacency matrices.

Two routes are implemented.  The closed route builds neither the n x n
matrix nor the n creation bits.  For i < j the pair count A[i][j] depends
only on the block of j: `block_profile` (from `hypergraph`) computes those
r exact integers, gamma, from the run lengths in O(r), and they fix the
whole matrix.  Every block of b >= 2 twin vertices contributes -gamma of
that block with multiplicity b - 1, and the remaining r eigenvalues are
those of the equitable quotient.  They are found by bisection and
safeguarded Newton steps on an O(r) inertia count of a tridiagonal pencil
congruent to the quotient problem; the family-3 closed forms use the same
solver.  The numeric route diagonalizes the full n x n matrix with a
deterministic cyclic Jacobi iteration and serves as the oracle; the verify
sweeps and the test-suite check the agreement of the two routes
exhaustively on small instances.
"""

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .combinatorics import as_float, binomial
from .errors import (
    ConvergenceError,
    DisconnectedError,
    ResourceLimitError,
    SequenceError,
)
from .hypergraph import ThresholdHypergraph, block_profile
from .sequences import (
    ShortSequence,
    count_valid_sequences,
    format_binary,
    iter_valid_sequences,
    to_short,
)

__all__ = [
    "DEFAULT_SEQUENCE_BUDGET",
    "BlockEigenvalue",
    "EigenPair",
    "Spectrum",
    "QuotientMatrix",
    "ScanRow",
    "block_profile",
    "profile_frobenius_sq",
    "block_eigenvalues",
    "quotient_matrix",
    "quotient_inertia",
    "quotient_eigenvalues",
    "symmetrize_quotient",
    "jacobi_eigenvalues",
    "full_spectrum_closed",
    "full_spectrum_numeric",
    "family_sequence",
    "family_spectrum_symbolic",
    "scan_quotient_simplicity",
]

#: Default cap on the number of sequences a sweep may visit.
DEFAULT_SEQUENCE_BUDGET = 100_000


def profile_frobenius_sq(profile: Sequence[int], sizes: Sequence[int]) -> int:
    """Exact squared Frobenius norm of the adjacency matrix from gamma.

    Vertex j pairs with its j - 1 predecessors at count gamma of its block,
    and every such pair appears twice in the symmetric matrix.
    """
    total = 0
    before = 0
    for g, a in zip(profile, sizes):
        total += g * g * (a * before + a * (a - 1) // 2)
        before += a
    return 2 * total


@dataclass(frozen=True)
class BlockEigenvalue:
    """One closed-form eigenvalue with its guaranteed multiplicity."""

    value: int
    multiplicity_lower_bound: int
    block_index: int
    source: str


def block_eigenvalues(
    ss: ShortSequence, profile: Sequence[int] | None = None
) -> list[BlockEigenvalue]:
    """Closed-form eigenvalues contributed by blocks of size >= 2.

    Each qualifying block j yields -gamma_j with multiplicity a_j - 1: the
    difference of two twin indicator vectors is an eigenvector.  `profile`
    passes gamma when the caller has already computed it.  The two-route
    verify sweep checks each value against the direct pair count of the
    block's first two vertices.
    """
    if not ss.connected:
        raise DisconnectedError(
            "disconnected sequence: closed-form eigenvalues need the last "
            "creation bit to be 1"
        )
    if profile is None:
        profile = block_profile(ss)
    out = []
    for j, size in enumerate(ss.runs, start=1):
        if size < 2:
            continue
        if ss.first_run_has_ones and j == 1:
            tag = "merged-block"
        elif ss.block_is_ones(j):
            tag = "ones-block"
        else:
            tag = "zeros-block"
        out.append(BlockEigenvalue(-profile[j - 1], size - 1, j, tag))
    return out


@dataclass(frozen=True)
class QuotientMatrix:
    """Block row sums of the adjacency matrix, one row per block.

    Generally asymmetric, but balanced: entries[i][j] * a_i counts the
    edge incidences between blocks i and j and equals entries[j][i] * a_j.
    """

    entries: tuple[tuple[int, ...], ...]
    block_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple(tuple(int(x) for x in row) for row in self.entries)
        )
        object.__setattr__(self, "block_sizes", tuple(int(a) for a in self.block_sizes))
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


def quotient_matrix(h: ThresholdHypergraph) -> QuotientMatrix:
    """Block row sums of the adjacency matrix, read off the block profile.

    A vertex of block s sees a_t vertices of block t != s, all at count
    gamma of the later block, and a_s - 1 twins at gamma_s:
    Q[s][t] = (a_t - [s = t]) * gamma[max(s, t)].
    """
    ss = to_short(h.sequence)
    profile = block_profile(ss)
    sizes = ss.runs
    entries = tuple(
        tuple((sizes[t] - (s == t)) * profile[max(s, t)] for t in range(ss.r))
        for s in range(ss.r)
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


#: Machine epsilon; the pencil solver's tolerances are multiples of it
#: times the Frobenius norm.
_EPS = sys.float_info.epsilon


class _Pencil:
    """Tridiagonal pencil T(lam) whose inertia counts quotient eigenvalues.

    With m_s(lam) = (gamma_s + lam) / a_s and gamma_{r+1} = m_{r+1} = 0,
    T(lam) has diagonal (gamma_s - gamma_{s+1}) - m_s - m_{s+1} and
    off-diagonal m_{s+1}.  It is congruent to P^T A P - lam D, where P
    maps each vertex to its block and D = diag(a_s), so by Sylvester's law
    its negative pivots count the quotient eigenvalues below lam, and
    det T(lam) is a degree-r polynomial whose roots are exactly those
    eigenvalues.

    T is factored from the last block up.  With h_r = gamma_r, the pivots
    are p_s = h_s - m_s and h_{s-1} = (gamma_{s-1} - gamma_s) - h_s m_s / p_s,
    which is the textbook p_{s-1} = T_{s-1,s-1} - T_{s-1,s}^2 / p_s regrouped.
    The grouping never subtracts the large terms that a tiny pivot creates;
    the top-down textbook order loses up to 1e-13 |A|_F at r = 60, this one
    stays within a few units of roundoff times |A|_F.
    """

    def __init__(self, profile: Sequence[int], sizes: Sequence[int]) -> None:
        if len(profile) != len(sizes) or not sizes or min(sizes) < 1:
            raise ValueError("need one positive block size per profile value")
        gamma = [as_float(g) for g in profile]
        self.r = len(sizes)
        self.top = gamma[-1]
        # block s from the last up: (gamma_{s-1} - gamma_s, gamma_s, 1 / a_s)
        self.rows = [
            (gamma[s - 1] - gamma[s] if s else 0.0, gamma[s], 1.0 / sizes[s])
            for s in range(self.r - 1, -1, -1)
        ]
        self.scale = max(1.0, math.sqrt(profile_frobenius_sq(profile, sizes)))

    def count(self, lam: float) -> int:
        """Negative pivots of T(lam).

        An exact zero pivot p_s is read as -0: it counts, and when m_s is
        nonzero the next pivot is +inf, which does not count, and
        h_{s-2} = (gamma_{s-2} - gamma_{s-1}) - m_{s-1}.
        """
        h = self.top
        below = 0
        skip = False
        for w, g, inv in self.rows:
            m = (g + lam) * inv
            if skip:
                h = w - m
                skip = False
                continue
            p = h - m
            if p <= 0.0:
                below += 1
                if p == 0.0:
                    skip = m != 0.0
                    h = w
                    continue
            h = w - h * m / p
        return below

    def newton(self, lam: float) -> tuple[int, float | None]:
        """Count at lam and the Newton step -det T / (det T)' there.

        The log-derivative of det T is the sum of p_s'/p_s, carried by the
        same recurrence.  At an exact zero pivot, or a zero derivative,
        there is no step.
        """
        h = self.top
        dh = 0.0
        below = 0
        total = 0.0
        for w, g, inv in self.rows:
            m = (g + lam) * inv
            p = h - m
            if p <= 0.0:
                if p == 0.0:
                    return self.count(lam), None
                below += 1
            dp = dh - inv
            t = m / p
            ratio = h / p
            total += dp / p
            dh = -(dh * t + ratio * (inv - t * dp))
            h = w - h * t
        return below, (-1.0 / total if total else None)

    def eigenvalues(self) -> list[float]:
        """All r eigenvalues, descending.

        Bisection on [-|A|_F - 1, |A|_F + 1] isolates each eigenvalue, then
        safeguarded Newton steps refine it.  Eigenvalues that stay together
        in an interval of width 8 eps |A|_F are reported at its midpoint.
        """
        delta = 4.0 * _EPS * self.scale
        lo, hi = -self.scale - 1.0, self.scale + 1.0
        if self.count(lo) != 0 or self.count(hi) != self.r:
            raise RuntimeError(
                "internal: quotient eigenvalues escape the Frobenius bound"
            )
        out: list[float] = []
        stack = [(lo, 0, hi, self.r)]
        while stack:
            lo, below_lo, hi, below_hi = stack.pop()
            if below_hi - below_lo == 1:
                out.append(self._refine(lo, hi, below_lo, delta))
                continue
            if hi - lo <= 2.0 * delta:
                out.extend([0.5 * (lo + hi)] * (below_hi - below_lo))
                continue
            mid = 0.5 * (lo + hi)
            below = min(max(self.count(mid), below_lo), below_hi)
            if below > below_lo:
                stack.append((lo, below_lo, mid, below))
            if below_hi > below:
                stack.append((mid, below, hi, below_hi))
        out.sort(reverse=True)
        return out

    def _refine(self, lo: float, hi: float, below: int, delta: float) -> float:
        """The one eigenvalue in (lo, hi], where count(lo) = below and
        count(hi) = below + 1.

        A Newton step is taken when it stays inside the bracket and at most
        halves the previous step; otherwise the bracket is bisected.  Newton
        has converged when its step, or the next step that quadratic
        convergence predicts from two successive Newton steps, is below
        eps |A|_F.  The value is accepted only when the counts at
        value -/+ delta bracket it, even when rounding puts it on the
        bracket edge; otherwise bisection finishes the job.
        """
        tol = _EPS * self.scale
        use_newton = True
        x = 0.5 * (lo + hi)
        last = hi - lo
        prev = 0.0
        while True:
            if use_newton:
                below_x, step = self.newton(x)
            else:
                below_x, step = self.count(x), None
            if below_x <= below:
                lo = x
            else:
                hi = x
            if step is not None:
                size = abs(step)
                if size <= tol or size * size * size <= tol * prev * prev:
                    x += step
                    if self.count(x - delta) <= below < self.count(x + delta):
                        return x
                    use_newton = False
                elif lo < x + step < hi and size <= 0.5 * last:
                    last = prev = size
                    x += step
                    continue
            if hi - lo <= 2.0 * delta:
                return 0.5 * (lo + hi)
            last = 0.5 * (hi - lo)
            prev = 0.0
            x = lo + last


def quotient_inertia(
    profile: Sequence[int], sizes: Sequence[int], lam: float
) -> int:
    """Number of quotient eigenvalues below lam, by an O(r) pivot count.

    An eigenvalue equal to lam may count either way.
    """
    return _Pencil(profile, sizes).count(lam)


def quotient_eigenvalues(
    profile: Sequence[int], sizes: Sequence[int]
) -> list[float]:
    """The r quotient eigenvalues from the block profile, descending."""
    return _Pencil(profile, sizes).eigenvalues()


@dataclass(frozen=True)
class EigenPair:
    value: float
    multiplicity: int
    source: str


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, sorted descending."""

    pairs: tuple[EigenPair, ...]
    merge_tol: float

    @property
    def distinct_count(self) -> int:
        return len(self.pairs)

    def total_multiplicity(self) -> int:
        return sum(p.multiplicity for p in self.pairs)

    def expanded(self) -> list[float]:
        """Every eigenvalue repeated by multiplicity, descending."""
        out = []
        for p in self.pairs:
            out.extend([p.value] * p.multiplicity)
        return out


def _merge_entries(
    entries: Iterable[tuple[float, int, str]], tol: float
) -> tuple[EigenPair, ...]:
    """Cluster (value, multiplicity, source) triples within tol of the
    cluster anchor.

    An exact block value represents its cluster only when every member
    lies within 8 eps |A|_F of it, the accuracy the quotient solver
    certifies; otherwise the cluster is reported at its
    multiplicity-weighted mean, which keeps the trace whatever tol is.
    |A|_F is read off the entries: the sum of m * v**2 is |A|_F**2.
    """
    ordered = sorted(entries, key=lambda t: -t[0])
    norm = math.sqrt(sum(m * v * v for v, m, _ in ordered))
    certified = 8.0 * _EPS * max(1.0, norm)
    clusters: list[list[tuple[float, int, str]]] = []
    for item in ordered:
        if clusters and clusters[-1][0][0] - item[0] <= tol:
            clusters[-1].append(item)
        else:
            clusters.append([item])
    pairs = []
    for members in clusters:
        total = sum(m for _, m, _ in members)
        exact = [v for v, _, src in members if src.startswith("block")]
        if exact and all(abs(v - exact[0]) <= certified for v, _, _ in members):
            rep = exact[0]
        else:
            rep = sum(v * m for v, m, _ in members) / total
        sources: list[str] = []
        for _, _, src in members:
            if src not in sources:
                sources.append(src)
        pairs.append(EigenPair(rep, total, "+".join(sources)))
    return tuple(pairs)


def full_spectrum_closed(
    seq: ShortSequence | ThresholdHypergraph, merge_tol: float = 1e-9
) -> Spectrum:
    """Complete spectrum from block eigenvalues plus the quotient.

    Takes the run-length form; a hypergraph is converted to it once, and
    all work after that grows with r, not n.  Blocks of size a_j
    contribute a_j - 1 eigenvalues each and the quotient contributes r,
    which accounts for all n.  Values closer than merge_tol are reported
    once with summed multiplicity.
    """
    ss = to_short(seq.sequence) if isinstance(seq, ThresholdHypergraph) else seq
    if not ss.connected:
        raise DisconnectedError(
            "disconnected sequence: the closed-form spectrum needs the last "
            "creation bit to be 1"
        )
    profile = block_profile(ss)
    entries = [
        (as_float(b.value), b.multiplicity_lower_bound, f"block{b.block_index}")
        for b in block_eigenvalues(ss, profile)
    ]
    entries.extend((v, 1, "quotient") for v in quotient_eigenvalues(profile, ss.runs))
    pairs = _merge_entries(entries, merge_tol)
    total = sum(p.multiplicity for p in pairs)
    if total != ss.n:
        raise RuntimeError(
            f"internal: multiplicities sum to {total}, expected {ss.n}"
        )
    return Spectrum(pairs, merge_tol)


def full_spectrum_numeric(
    h: ThresholdHypergraph,
    cluster_tol: float | None = None,
    adjacency=None,
) -> Spectrum:
    """Spectrum of the full adjacency matrix by direct diagonalization.

    Oracle for the closed route.  `adjacency` may inject a matrix obtained
    elsewhere (tests pass the brute-force recount so the routes share no
    combinatorics).  The clustering tolerance defaults to 1e-6 times the
    Frobenius norm.
    """
    mat = adjacency if adjacency is not None else h.adjacency()
    rows = mat.to_float_rows()
    values = jacobi_eigenvalues(rows)
    if cluster_tol is None:
        norm = math.sqrt(sum(x * x for row in rows for x in row))
        cluster_tol = max(1e-6 * norm, 1e-12)
    pairs = _merge_entries([(v, 1, "numeric") for v in values], cluster_tol)
    return Spectrum(pairs, cluster_tol)


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
        raise SequenceError(f"only family 2 takes j, got j={j} for family {family}")
    if family == 1:
        if n < k:
            raise SequenceError(f"family 1 needs n >= k, got n={n}, k={k}")
        if n == k:
            return ShortSequence(k, (n,), first_run_has_ones=True)
        return ShortSequence(k, (n - 1, 1))
    if family == 2:
        if j is None:
            raise SequenceError("family 2 needs the first pseudodominant position j")
        if not k <= j <= n - 1:
            raise SequenceError(
                f"family 2 needs k <= j <= n-1, got j={j}, n={n}, k={k}"
            )
        if j == k:
            return ShortSequence(k, (n,), first_run_has_ones=True)
        return ShortSequence(k, (j - 1, n - j + 1))
    if family == 3:
        if n < k + 2:
            raise SequenceError(f"family 3 needs n >= k+2, got n={n}, k={k}")
        return ShortSequence(k, (k, n - k - 1, 1), first_run_has_ones=True)
    raise SequenceError(f"unknown family {family}; expected 1, 2 or 3")


def family_spectrum_symbolic(
    family: int,
    n: int,
    k: int,
    j: int | None = None,
    merge_tol: float = 1e-9,
) -> Spectrum:
    """Spectrum of a family member from its catalogued closed forms.

    Each family's block profile is entered by hand and passed to the
    quotient solver of the closed route: family 1 has
    (binomial(n-3, k-3), binomial(n-2, k-2)), family 2 has
    (sum over the pseudodominants p of binomial(p-3, k-3),
    binomial(n-2, k-2)), and family 3 has
    (binomial(n-3, k-3) + 1, binomial(n-3, k-3), binomial(n-2, k-2)).
    Complete-hypergraph boundaries fall back to the general closed route.
    Always agrees with `full_spectrum_closed`.
    """
    ss = family_sequence(family, n, k, j)
    if ss.r == 1:
        return full_spectrum_closed(ss, merge_tol)
    a_cnt = binomial(n - 3, k - 3)
    b_cnt = binomial(n - 2, k - 2)
    entries: list[tuple[float, int, str]] = []
    if family == 1:
        profile: tuple[int, ...] = (a_cnt, b_cnt)
        entries.append((as_float(-a_cnt), n - 2, "block1"))
    elif family == 2:
        a_cnt = sum(binomial(p - 3, k - 3) for p in range(j, n + 1))
        profile = (a_cnt, b_cnt)
        entries.append((as_float(-a_cnt), j - 2, "block1"))
        entries.append((as_float(-b_cnt), n - j, "block2"))
    else:
        profile = (a_cnt + 1, a_cnt, b_cnt)
        entries.append((as_float(-(a_cnt + 1)), k - 1, "block1"))
        if n - k - 2 >= 1:
            entries.append((as_float(-a_cnt), n - k - 2, "block2"))
    roots = quotient_eigenvalues(profile, ss.runs)
    entries.extend((v, 1, "quotient") for v in roots)
    pairs = _merge_entries(entries, merge_tol)
    total = sum(p.multiplicity for p in pairs)
    if total != n:
        raise RuntimeError(
            f"internal: family multiplicities sum to {total}, expected {n}"
        )
    return Spectrum(pairs, merge_tol)


@dataclass(frozen=True)
class ScanRow:
    sequence: str
    n: int
    k: int
    r: int
    min_quotient_gap: float
    flagged: bool


def scan_quotient_simplicity(
    n_max: int,
    k_values: Iterable[int],
    tol: float = 1e-9,
    budget: int = DEFAULT_SEQUENCE_BUDGET,
) -> list[ScanRow]:
    """Minimum quotient eigenvalue gap for every connected sequence.

    A row is flagged when two quotient eigenvalues sit closer than tol,
    i.e. the quotient fails to separate them numerically.  Single-block
    sequences report an infinite gap.
    """
    k_set = sorted({k for k in k_values})
    total = count_valid_sequences(n_max, k_set, connected_only=True)
    if total > budget:
        raise ResourceLimitError(
            f"scan would visit {total} sequences, over the budget of {budget}"
        )
    out = []
    for k in k_set:
        for n in range(k, n_max + 1):
            for s in iter_valid_sequences(n, k, connected_only=True):
                ss = to_short(s)
                values = quotient_eigenvalues(block_profile(ss), ss.runs)
                if len(values) > 1:
                    gap = min(
                        values[i] - values[i + 1] for i in range(len(values) - 1)
                    )
                else:
                    gap = math.inf
                out.append(
                    ScanRow(
                        sequence=format_binary(s),
                        n=n,
                        k=k,
                        r=len(values),
                        min_quotient_gap=gap,
                        flagged=gap < tol,
                    )
                )
    return out
