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
catalogued families (`families`) are templates of run lengths, answered
as any sequence is.  Everything before the rational QL is folded one
block at a time from the last block up by three steps: `gamma_step`
(gamma and the edge count), `pair_sums` (the exact sums) and
`_Pencil.push` (the reduction).
`block_profile` and `_Pencil.of` fold them over one sequence, and the
quotient-gap walk in `scan` folds them along a tree of suffixes.  The
dense oracle `oracle.full_spectrum_numeric` shares `_rational_ql` with
the closed route.  The quotient as an explicit r x r matrix and the dense
Jacobi solver are in `quotient`.  A `spectrum` call loads none of
`families`, `scan` and `quotient`: this module serves their public names,
and the oracles', on first use through the package's `_SERVED`, the one
list of them.
"""

import math
import sys
from collections.abc import Iterable

from . import _served
from .combinatorics import as_float, check_closed, check_expanded
from .errors import ConvergenceError
from .hypergraph import BlockProfile, block_profile
from .records import FrozenRecord
from .sequences import ShortSequence

__all__ = [
    "MERGE_TOL",
    "QL_ITERATIONS",
    "BlockEigenvalue",
    "EigenPair",
    "Spectrum",
    "block_eigenvalues",
    "quotient_eigenvalues",
    "full_spectrum_closed",
]

#: Absolute distance within which the closed route reports values once.
#: Block values are exact integers; a quotient estimate within it of one
#: is reported at that block value.
MERGE_TOL = 1e-9


class BlockEigenvalue(FrozenRecord):
    """One closed-form eigenvalue with its guaranteed multiplicity."""

    _fields = ("value", "multiplicity_lower_bound", "block_index")


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
    `scan._scan_size` grows one suffix into several sequences, and `of` folds
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


class Spectrum(FrozenRecord):
    """Eigenvalues with multiplicities, sorted descending."""

    _fields = ("pairs",)

    @property
    def distinct_count(self) -> int:
        return len(self.pairs)

    def expanded(self) -> list[float]:
        """Every eigenvalue repeated by multiplicity, descending; a total
        multiplicity over `EXPANDED_CAP` is refused (`check_expanded`)."""
        check_expanded(sum(p.multiplicity for p in self.pairs))
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


def __getattr__(name: str) -> object:
    """A name of the package's `_SERVED`, the one list of the names served
    on first use, from its module (PEP 562), so that the closed route
    loads none of them."""
    return _served(__name__, name)
