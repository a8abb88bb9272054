"""Exact binomial counts with total boundary conventions.

Counting is done with native integers, which never overflow.  Counts only
become lossy when converted to floating point, and `as_float` refuses any
conversion that a double cannot represent exactly.  Python converts at
most 4,300 decimal digits between integers and text: `count_text` names a
longer count by its bit length, and `read_decimal` reads longer digits.

Every fixed cap on the work or the text a call may build is here, with
the check that refuses past it before the work starts, so that no other
module raises `ResourceLimitError` or `CountTooLargeError`.  The checks
read a `ShortSequence` by its attributes alone.
"""

import math

from .errors import CountTooLargeError, ResourceLimitError

#: Largest magnitude a double represents exactly (2**53).
FLOAT_SAFE_LIMIT = 2**53


def binomial(n: int, k: int) -> int:
    """Number of k-subsets of an n-set, zero outside 0 <= k <= n.

    The zero conventions (negative k, negative n, k > n) make every
    counting formula in this package total: a term that would select from
    a set that is too small, or select a negative number of elements,
    contributes nothing.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_exceeds(n: int, k: int, limit: int) -> bool:
    """binomial(n, k) > limit, under the same zero conventions, without
    computing a binomial past the limit.

    With k the smaller of k and n - k, step i holds binomial(n - k + i, i),
    which grows with i and at least doubles at each step, so the product
    stops within log2(limit) + 1 steps, whatever n and k are.
    """
    if k < 0 or n < 0 or k > n:
        return 0 > limit
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > limit:
            return True
    return value > limit


#: Most decimal digits Python converts between an integer and text.
TEXT_DIGITS = 4300


def count_text(count: int) -> str:
    """A count in decimal, or by its bit length past the 4,300 digits
    Python converts to text, so that a message never fails to name it."""
    try:
        return str(count)
    except ValueError:
        return bits_text(count.bit_length())


def bits_text(bits: int) -> str:
    """`count_text` of a count past 4,300 digits, from its bit length alone,
    so that a count too large to build is named too; a bit length past
    4,300 digits is named by its own bit length in turn."""
    return f"a number of {count_text(bits)} bits"


def read_decimal(text: str) -> int:
    """`int(text)` without the 4,300-digit limit.

    Longer text must be decimal digits, surrounding whitespace allowed,
    and is read in two halves, high * 10**len(low) + low, each half the
    same way.
    """
    if len(text) <= TEXT_DIGITS:
        return int(text)
    digits = text.strip()
    if not digits.isdecimal():
        raise ValueError(f"not a decimal integer of {len(digits)} characters")
    half = len(digits) // 2
    high, low = digits[:half], digits[half:]
    return read_decimal(high) * 10 ** len(low) + read_decimal(low)


def as_float(count: int) -> float:
    """Convert an exact count to a double, refusing lossy conversions."""
    if abs(count) > FLOAT_SAFE_LIMIT:
        raise CountTooLargeError(
            f"count {count_text(count)} exceeds 2**53 and would round in "
            "double precision"
        )
    return float(count)


#: Cap on materialized edges and on brute-force subset iteration.  On a
#: 2-vCPU Xeon VM `edges "C(392,1)_4"` (9,962,680 edges of 4 vertices)
#: takes 25 s at 856 MB peak RSS, and 1,975,354 edges 4.8 s at 185 MB.
EDGE_CAP = 10**7

#: Cap on the work of `oracle.pair_count`'s direct sum, weighed as n times
#: min(k, n - k): it walks up to n pseudodominants, each adding a binomial
#: of about min(k, n - k) factors.  On a 2-vCPU Xeon VM the calls at the
#: cap take 1.0-1.6 s up to k = 100 (`C(10000000)_2` at 397 MB peak RSS,
#: `C(200000)_100` at 22 MB) and up to 3.1 s where the binomials grow
#: long (`C(10000)_2000`, at 15 MB); `C(1000000)_1000`, 50 times over,
#: did not finish in 120 s.  At k = 2 it admits the n up to `EDGE_CAP`.
PAIR_WALK_CAP = 2 * 10**7

#: Cap on the vertices an edge list holds, its edges times k, so that few
#: edges of many vertices are refused too; every k <= 4 list under
#: `EDGE_CAP` is under it.  On the same VM `edges "C(119,1)_5"`
#: (7,940,751 edges, 39,703,755 entries) takes 22 s at 684 MB peak RSS,
#: and `edges "C(24,2)_10"` (3,350,479 edges, 33,504,790) 12 s at 463 MB.
EDGE_ENTRY_CAP = 4 * EDGE_CAP

#: Cap on the n * n cells of a dense matrix, checked before it is allocated.
DENSE_CELL_CAP = 10**7

#: Cap on the characters of text a call builds, the cell cap at 16 digits
#: a cell: the digits of a dense pair-count matrix, cells times the digits
#: of its largest possible entry, and the 2n - 1 characters of a bit form.
TEXT_CAP = 16 * DENSE_CELL_CAP

#: Cap on n**3 for a dense eigensolve of an n x n matrix, so n <= 1000.
#: In pure Python the solve takes 88 s on a random k = 3 sequence and 85 s
#: on a random k = 2 one at n = 1000, on a 2-vCPU Xeon VM (9e-8 s * n**3;
#: 0.4 s at n = 200).
DENSE_SOLVE_CAP = 10**9

#: Cap on r**2 for the closed route on r runs, so r <= 2000.  Its pencil
#: reduction, rational QL and certificate counts cost O(r**2); on the
#: alternating k = 2 sequence it takes 0.55 s at r = 1001 and 2.4 s at
#: r = 2001 on a 2-vCPU Xeon VM, and a bit form that fits one argv string
#: (128 KiB) reaches r of about 65,000.
CLOSED_WORK_CAP = 4 * 10**6

#: Cap on the number of sequences a sweep may visit.  On a 2-vCPU Xeon VM
#: `verify --n-max 16 --k 2,3` (98,302 sequences) takes 23.6-25.5 s at
#: 18.6 MB peak RSS, about as much memory as `--n-max 14 --k 2` takes: a
#: walk keeps nothing per sequence.  `scan --n-max 17 --k 2,3` (98,302)
#: takes 7.1-8.7 s at 42 MB, `--k 2` (65,535) 5.1-6.0 s at 34 MB.
SEQUENCE_BUDGET = 100_000

#: Cap on the work of a `verify` walk, weighed in the ordered vertex
#: pairs of its k-subsets: over its (k, n) sizes, the size's sequences
#: times binomial(n, k) times k(k-1).  A sequence's edge list and its
#: complement's hold each k-subset once, and the recount adds 1 per
#: ordered pair of each edge's vertices.  On a 2-vCPU Xeon VM `verify
#: --n-max 16 --k 2,3` (105,906,184) takes 23.6-25.5 s at 18.6 MB peak
#: RSS: at k = 2 and 3 the rest of a sequence's work dominates, and
#: `SEQUENCE_BUDGET` bounds it.  From k = 4 to k = 70 a unit costs 0.03 to
#: 0.1 us, the most at k = 4: the largest call the cap admits there,
#: `--n-max 15 --k 4` (104,988,648), takes 9.7-10.6 s at 18.1 MB,
#: `--n-max 15 --k 8` (119,447,440) 5.9 s and `--n-max 72 --k 70`
#: (100,145,220) 2.9 s.
SUBSET_BUDGET = 12 * 10**7

#: Cap on the eigenvalues a spectrum lists repeated by multiplicity
#: (`Spectrum.expanded`), its total multiplicity.  On a 2-vCPU Xeon VM
#: `C(10000000,1)_2` expands in 0.1 s at 167 MB peak RSS.
EXPANDED_CAP = 10**7

#: Cap on the bits of a sequence count built in closed form
#: (`count_valid_sequences`).  On a 2-vCPU Xeon VM a count of 10**8 bits
#: takes 0.024 s at 40 MB peak RSS.
COUNT_BIT_CAP = 10**8


def check_dense(n: int) -> None:
    """Refuse a dense n x n matrix over `DENSE_CELL_CAP` cells."""
    if n * n > DENSE_CELL_CAP:
        raise ResourceLimitError(
            f"a dense {count_text(n)}x{count_text(n)} matrix has "
            f"{count_text(n * n)} cells, over the cap of {DENSE_CELL_CAP}"
        )


def check_dense_digits(ss) -> None:
    """Refuse the pair-count matrix of ss over `TEXT_CAP` digits.
    Every edge lies within the vertices up to the last with bit 1, e, so
    binomial(e-2, k-2) bounds every entry; it is below 2**(e-2), so only
    an e past the digits a cell may have weighs it."""
    n, e = ss.n, ss.last_one
    digits = TEXT_CAP // (n * n)
    if e - 2 > digits and binomial_exceeds(e - 2, ss.k - 2, 10**digits - 1):
        raise ResourceLimitError(
            f"a dense {count_text(n)}x{count_text(n)} matrix of pair counts "
            f"up to binomial({count_text(e - 2)}, {count_text(ss.k - 2)}), "
            f"more than {digits} digits each, is over the cap of "
            f"{TEXT_CAP} digits"
        )


def check_bit_text(n: int) -> None:
    """Refuse the bit form of n vertices, 2n - 1 characters, over
    `TEXT_CAP`, before any of it is built."""
    if 2 * n - 1 > TEXT_CAP:
        raise ResourceLimitError(
            f"the bit form of {count_text(n)} vertices has "
            f"{count_text(2 * n - 1)} characters, over the cap of {TEXT_CAP}"
        )


def check_pair_walk(n: int, k: int) -> None:
    """Refuse `oracle.pair_count`'s walk over the n vertices of a sequence
    of uniformity k when n * min(k, n - k) is over `PAIR_WALK_CAP`."""
    weight = n * min(k, n - k)
    if weight > PAIR_WALK_CAP:
        raise ResourceLimitError(
            f"a walk over {count_text(n)} vertices at uniformity "
            f"{count_text(k)} weighs {count_text(weight)}, over the cap of "
            f"{PAIR_WALK_CAP}"
        )


def check_edges(ss) -> None:
    """Refuse to list the edges of ss when they are over `EDGE_CAP`, or
    their k vertices each over `EDGE_ENTRY_CAP`.  The last vertex with
    bit 1, e, closes binomial(e-1, k-1) edges alone; the exact total is
    built only when that bound has at most 4,300 digits, and a message
    past them names the bound's least bit length."""
    e = ss.last_one
    if binomial_exceeds(e - 1, ss.k - 1, EDGE_CAP):
        text_limit = 10**TEXT_DIGITS
        if binomial_exceeds(e - 1, ss.k - 1, text_limit - 1):
            raise ResourceLimitError(
                f"at least {bits_text(text_limit.bit_length())} edges exceed "
                f"the cap of {EDGE_CAP}"
            )
    total = edge_total(ss)
    if total > EDGE_CAP:
        raise ResourceLimitError(
            f"{count_text(total)} edges exceed the cap of {EDGE_CAP}"
        )
    if total * ss.k > EDGE_ENTRY_CAP:
        raise ResourceLimitError(
            f"{count_text(total)} edges of {count_text(ss.k)} vertices hold "
            f"{count_text(total * ss.k)} entries, over the cap of {EDGE_ENTRY_CAP}"
        )


def edge_total(ss) -> int:
    """Number of edges, from the runs: `edges_ending` summed over the
    ones blocks."""
    total = end = 0
    for size, ones in ss.blocks():
        end += size
        if ones:
            total += edges_ending(ss.k, end, size)
    return total


def edges_ending(k: int, end: int, size: int) -> int:
    """Edges whose last vertex lies in a ones block of `size` vertices
    ending at position `end`: by the hockey stick, the block on positions
    a..b closes binomial(b, k) - binomial(a-1, k)."""
    return binomial(end, k) - binomial(end - size, k)


def check_dense_solve(n: int) -> None:
    """Refuse a dense eigensolve of an n x n matrix with n**3 over
    `DENSE_SOLVE_CAP`, before the matrix is built."""
    if n**3 > DENSE_SOLVE_CAP:
        raise ResourceLimitError(
            f"a dense eigensolve of a {count_text(n)}x{count_text(n)} matrix costs "
            f"n**3 = {count_text(n**3)}, over the cap of {DENSE_SOLVE_CAP}"
        )


def check_pair_counts(ss) -> None:
    """Refuse, before any exact binomial, a sequence whose pair counts
    would round in double precision.

    No edge holds a vertex past the last one with bit 1, e (n when the
    sequence is connected), so those vertices have pair count 0.  The last
    two vertices up to e have the largest pair count, binomial(e-2, k-2):
    every pair lies in at most that many edges.  Past 2**53 it is refused
    with `CountTooLargeError`, as `_Pencil` would refuse it, but before the
    r exact gammas are computed, whose cost grows with k without bound.
    """
    e = ss.last_one
    if binomial_exceeds(e - 2, ss.k - 2, FLOAT_SAFE_LIMIT):
        raise CountTooLargeError(
            f"the pair count binomial({count_text(e - 2)}, "
            f"{count_text(ss.k - 2)}) of the last two vertices in an edge "
            "exceeds 2**53 and would round in double precision"
        )


def check_closed(ss) -> None:
    """Refuse, before any exact binomial, a sequence that the closed route
    cannot answer; `full_spectrum_closed` and `family_spectrum_symbolic`
    call it first.

    The vertices past the last one with bit 1 have pair count 0, and the
    route answers them as it answers any block.  `check_pair_counts`
    refuses a pair count past 2**53, which `oracle.full_spectrum_numeric`
    refuses too.  Then r**2 over `CLOSED_WORK_CAP` is refused with
    `ResourceLimitError` (never at r <= n <= 1000).
    """
    check_pair_counts(ss)
    if ss.r**2 > CLOSED_WORK_CAP:
        raise ResourceLimitError(
            f"the closed route on {count_text(ss.r)} runs costs "
            f"r**2 = {count_text(ss.r**2)}, over the cap of {CLOSED_WORK_CAP}"
        )


def check_sweep(what: str, bits: int, total: int | None) -> None:
    """Refuse a sweep space of more than `SEQUENCE_BUDGET` sequences with
    a `ResourceLimitError` that says `what` would visit it.  `total` is
    the count of `bits` bits, None past 4 * 4,300 bits (so more than
    4,300 digits, and far over the budget), where the count is weighed
    and named by its bit length without being built."""
    if total is None:
        over = bits_text(bits)  # 2**(bits-1) has more than 4,300 digits
    else:
        over = count_text(total) if total > SEQUENCE_BUDGET else None
    if over is not None:
        raise ResourceLimitError(
            f"{what} would visit {over} sequences, over the budget of "
            f"{SEQUENCE_BUDGET}"
        )


def check_expanded(total: int) -> None:
    """Refuse to list a spectrum's eigenvalues repeated by multiplicity
    when their `total` is over `EXPANDED_CAP`, before any is listed."""
    if total > EXPANDED_CAP:
        raise ResourceLimitError(
            f"{count_text(total)} eigenvalues repeated by multiplicity, over "
            f"the cap of {EXPANDED_CAP}"
        )


def check_count_bits(bits: int) -> None:
    """Refuse to build a count of `bits` bits over `COUNT_BIT_CAP`."""
    if bits > COUNT_BIT_CAP:
        raise ResourceLimitError(
            f"a count of {count_text(bits)} bits is over the cap of "
            f"{COUNT_BIT_CAP} bits"
        )


def check_subsets(what: str, sizes: list[tuple[int, int]]) -> None:
    """Refuse a sweep space of (k, n) `sizes` that weighs more than
    `SUBSET_BUDGET` ordered vertex pairs of k-subsets with a
    `ResourceLimitError` that says `what` would count them.  A size with
    n >= k holds 2**(n-k+1) sequences, and n = k-1 only the lone zero
    run, which has no k-subset.  Call it after `check_sweep`, which
    bounds every n - k, so the weight is cheap to build."""
    total = sum(
        binomial(n, k) * k * (k - 1) << (n - k + 1) for k, n in sizes if n >= k
    )
    if total > SUBSET_BUDGET:
        raise ResourceLimitError(
            f"{what} would count {count_text(total)} vertex pairs of "
            f"k-subsets, over the budget of {SUBSET_BUDGET}"
        )
