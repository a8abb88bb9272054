"""Threshold hypergraphs materialized from creation sequences.

Everything here is exact.  Edges are k-subsets whose largest vertex has
creation bit 1, and the adjacency matrix counts, for each vertex pair, the
edges containing both.  For i < j that count depends only on the block
(run) of j, and `block_profile` computes those r values, gamma, straight
from the run lengths; `adjacency` expands them into the matrix and the
closed spectral route works from them alone.  The edge list, the direct
pair count and the recount that check them are in `oracle`, which
`ThresholdHypergraph.edges`, `pair_count` and `pseudodominants` call.

A `ThresholdHypergraph` computes on the run-length form alone and builds
its n creation bits only when `sequence` is asked for.  The size caps
(`check_edges` on the edge count, `check_dense` on n and
`check_dense_digits` on the text of the matrix) are constants, checked on
the runs inside each function, whoever calls.
"""

from functools import cached_property

from .combinatorics import (
    TEXT_DIGITS,
    binomial,
    binomial_exceeds,
    bits_text,
    count_text,
)
from .errors import ResourceLimitError
from .records import FrozenRecord
from .sequences import (
    BinarySequence,
    ShortSequence,
    format_short,
    parse_runs,
    to_binary,
    to_short,
)

__all__ = [
    "EDGE_CAP",
    "EDGE_ENTRY_CAP",
    "DENSE_CELL_CAP",
    "DENSE_DIGIT_CAP",
    "AdjacencyMatrix",
    "ThresholdHypergraph",
    "BlockProfile",
    "block_profile",
    "edge_total",
    "check_dense",
    "check_dense_digits",
    "check_edges",
]

#: Cap on materialized edges and on brute-force subset iteration.  On a
#: 2-vCPU Xeon VM `edges "C(392,1)_4"` (9,962,680 edges of 4 vertices)
#: takes 25 s at 856 MB peak RSS, and 1,975,354 edges 4.8 s at 185 MB.
EDGE_CAP = 10**7

#: Cap on the vertices an edge list holds, its edges times k, so that few
#: edges of many vertices are refused too; every k <= 4 list under
#: `EDGE_CAP` is under it.  On the same VM `edges "C(119,1)_5"`
#: (7,940,751 edges, 39,703,755 entries) takes 22 s at 684 MB peak RSS,
#: and `edges "C(24,2)_10"` (3,350,479 edges, 33,504,790) 12 s at 463 MB.
EDGE_ENTRY_CAP = 4 * EDGE_CAP

#: Cap on the n * n cells of a dense matrix, checked before it is allocated.
DENSE_CELL_CAP = 10**7

#: Cap on the digits of a dense pair-count matrix, cells times the digits
#: of its largest possible entry: the cell cap at 16 digits a cell.
DENSE_DIGIT_CAP = 16 * DENSE_CELL_CAP


def check_dense(n: int) -> None:
    """Refuse a dense n x n matrix over `DENSE_CELL_CAP` cells."""
    if n * n > DENSE_CELL_CAP:
        raise ResourceLimitError(
            f"a dense {count_text(n)}x{count_text(n)} matrix has "
            f"{count_text(n * n)} cells, over the cap of {DENSE_CELL_CAP}"
        )


def check_dense_digits(ss: ShortSequence) -> None:
    """Refuse the pair-count matrix of ss over `DENSE_DIGIT_CAP` digits.
    Every edge lies within the vertices up to the last with bit 1, e, so
    binomial(e-2, k-2) bounds every entry; it is below 2**(e-2), so only
    an e past the digits a cell may have weighs it."""
    n, e = ss.n, ss.last_one
    digits = DENSE_DIGIT_CAP // (n * n)
    if e - 2 > digits and binomial_exceeds(e - 2, ss.k - 2, 10**digits - 1):
        raise ResourceLimitError(
            f"a dense {count_text(n)}x{count_text(n)} matrix of pair counts "
            f"up to binomial({count_text(e - 2)}, {count_text(ss.k - 2)}), "
            f"more than {digits} digits each, is over the cap of "
            f"{DENSE_DIGIT_CAP} digits"
        )


def check_edges(ss: ShortSequence) -> None:
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


def edge_total(ss: ShortSequence) -> int:
    """Number of edges, from the runs: by the hockey stick, the edges
    ending in a ones block on positions a..b number
    binomial(b, k) - binomial(a-1, k)."""
    total = end = 0
    for size, ones in ss.blocks():
        end += size
        if ones:
            total += binomial(end, ss.k) - binomial(end - size, ss.k)
    return total


class BlockProfile(FrozenRecord):
    """The r pair counts gamma of a sequence, with exact invariants.

    gamma[s] is the number of edges through any vertex pair whose later
    vertex lies in block s, so it fixes the whole adjacency matrix.
    Construction refuses a gamma without one entry per run, and one pass
    over the blocks computes, exactly:

    - `pair_total`, gamma summed over all vertex pairs, which counts every
      edge binomial(k, 2) times;
    - `frobenius_sq`, |A|_F**2: vertex j pairs with its j - 1 predecessors
      at gamma of its block, and every such pair appears twice in the
      symmetric matrix.
    """

    _fields = ("seq", "gamma", "pair_total", "frobenius_sq")

    def __init__(self, seq: ShortSequence, gamma: tuple[int, ...]) -> None:
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "gamma", tuple(int(g) for g in gamma))
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.gamma) != self.seq.r:
            raise ValueError(
                f"need one pair count per run: {len(self.gamma)} for "
                f"{self.seq.r} runs"
            )
        pairs = squares = before = 0
        for g, a in zip(self.gamma, self.seq.runs):
            # the pairs whose later vertex lies in this block
            ending = a * before + a * (a - 1) // 2
            pairs += g * ending
            squares += g * g * ending
            before += a
        object.__setattr__(self, "pair_total", pairs)
        object.__setattr__(self, "frobenius_sq", 2 * squares)


def block_profile(ss: ShortSequence) -> BlockProfile:
    """The `BlockProfile` of ss: the pair count gamma_s of any vertex pair
    whose later vertex is in block s, for every block s.

    For i < j the count depends on j alone: j closes binomial(j-2, k-2)
    edges through i when its bit is 1, and every later pseudodominant p
    closes binomial(p-3, k-3).  Over a ones block on positions a..b the
    hockey-stick identity sums the second kind to
    binomial(b-2, k-2) - binomial(a-3, k-2), so every vertex j of the
    block sees `after` + binomial(b-2, k-2), where `after` sums the later
    blocks, and a zeros block sees `after` alone.  One pass from the last
    block up: O(r) exact binomials, whatever n is.  A block with no pair
    ending in it (a lone first vertex) reports 0.

    The record's `pair_total` is checked against an identity from the
    other binomial family: summed over all pairs, gamma counts every edge
    binomial(k, 2) times, and `edge_total` counts the edges.  A mismatch
    raises RuntimeError.
    """
    k = ss.k
    profile = []
    after = 0  # edges through a fixed pair closed in the later blocks
    end = ss.n
    for size, ones in reversed(list(ss.blocks())):
        before = end - size
        if ones:
            # in the merged head the ones start at k, but no earlier
            # block reads the `after` it leaves
            top = binomial(end - 2, k - 2)
            g = after + top
            after += top - binomial(before - 2, k - 2)
        else:
            g = after
        profile.append(g)
        end = before
    bp = BlockProfile(ss, tuple(reversed(profile)))
    edges = edge_total(ss)
    if bp.pair_total != k * (k - 1) // 2 * edges:
        raise RuntimeError(
            f"internal: pair counts of {format_short(ss)} sum to "
            f"{count_text(bp.pair_total)}, but its {count_text(edges)} edges "
            f"give {count_text(k * (k - 1) // 2 * edges)}"
        )
    return bp


class AdjacencyMatrix(FrozenRecord):
    """Symmetric matrix of exact pair counts with a zero diagonal.

    Construction checks all of this in O(n**2): integer entries, a square
    shape, a zero diagonal, no negative count and symmetry.  The two
    builders skip that check, since their matrices hold it by
    construction: `ThresholdHypergraph.adjacency` writes c_max(i,j) of
    exact integer pair counts to both (i, j) and (j, i) and 0 on the
    diagonal, and `oracle.recount_pairs` adds each edge's pairs to both
    cells from zero, so only an edge that repeats a vertex can break it,
    by a count on the diagonal, which it refuses in O(n).  Any other
    matrix, such as one handed to `oracle.full_spectrum_numeric`, is
    checked in full.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(tuple(map(int, row)) for row in entries)
        object.__setattr__(self, "entries", rows)
        self.__post_init__()

    def __post_init__(self) -> None:
        entries = self.entries
        n = len(entries)
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError("adjacency matrix must be square")
            if row[i] != 0:
                raise ValueError("adjacency diagonal must be zero")
            if min(row) < 0:
                raise ValueError("pair counts cannot be negative")
        if entries != tuple(zip(*entries)):
            raise ValueError("adjacency matrix must be symmetric")

    def frobenius_sq(self) -> int:
        """Sum of squared entries, exact."""
        return sum(x * x for row in self.entries for x in row)


class ThresholdHypergraph(FrozenRecord):
    """k-uniform hypergraph defined by a creation sequence.

    Takes either encoding and keeps only the run-length form, `runs`,
    which every method reads; every size cap is checked on the runs.  The
    bit form, `sequence`, is built from the runs on request and read by
    no method.
    """

    _fields = ("runs",)

    def __init__(self, seq: BinarySequence | ShortSequence) -> None:
        if isinstance(seq, BinarySequence):
            seq = to_short(seq)
        object.__setattr__(self, "runs", seq)

    @classmethod
    def from_text(cls, text: str) -> "ThresholdHypergraph":
        """Either encoding; short-form text is never expanded."""
        return cls(parse_runs(text))

    @cached_property
    def sequence(self) -> BinarySequence:
        return to_binary(self.runs)

    @property
    def n(self) -> int:
        return self.runs.n

    @property
    def k(self) -> int:
        return self.runs.k

    def pseudodominants(self) -> list[int]:
        """Vertices whose creation bit is 1 (`oracle.pseudodominants`)."""
        from .oracle import pseudodominants

        return pseudodominants(self.runs)

    def edges(self) -> list[tuple[int, ...]]:
        """All edges as sorted tuples, in lexicographic order, under the
        edge caps (`oracle.edges`)."""
        from .oracle import edges

        return edges(self.runs)

    def pair_count(self, i: int, j: int) -> int:
        """Number of edges containing both v_i and v_j (`oracle.pair_count`)."""
        from .oracle import pair_count

        return pair_count(self.runs, i, j)

    def adjacency(self) -> AdjacencyMatrix:
        """Closed-form adjacency matrix: A[i][j] = gamma of the block of
        max(i, j) off the diagonal, expanded from `block_profile`."""
        check_dense(self.n)
        check_dense_digits(self.runs)
        bp = block_profile(self.runs)
        columns: list[int] = []
        for g, a in zip(bp.gamma, bp.seq.runs):
            columns += [g] * a
        c = tuple(columns)
        return _built_matrix(
            tuple((c[i],) * i + (0,) + c[i + 1 :] for i in range(self.n))
        )

    def to_general(self) -> "GeneralHypergraph":
        from .oracle import GeneralHypergraph

        edges = frozenset(frozenset(e) for e in self.edges())
        return GeneralHypergraph(self.n, self.k, edges)


def _built_matrix(entries: tuple[tuple[int, ...], ...]) -> AdjacencyMatrix:
    """An `AdjacencyMatrix` of entries that hold its contract by
    construction, without its O(n**2) check; only `adjacency` and
    `oracle.recount_pairs` may call it."""
    matrix = object.__new__(AdjacencyMatrix)
    object.__setattr__(matrix, "entries", entries)
    return matrix


def __getattr__(name: str) -> object:
    """The oracle names that the acceptance tests and the benchmark's
    tracer look up in this module, served from `oracle` (PEP 562)."""
    if name in (
        "GeneralHypergraph",
        "adjacency_bruteforce",
        "load_replaceable_non_threshold_7_4",
    ):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
