"""Threshold hypergraphs materialized from creation sequences.

Everything here is exact.  Edges are k-subsets whose largest vertex has
creation bit 1, and the adjacency matrix counts, for each vertex pair, the
edges containing both.  For i < j that count depends only on the block
(run) of j, and `block_profile` computes those r values, gamma, straight
from the run lengths; `adjacency` expands them into the matrix and the
closed spectral route works from them alone.  The edge list, the direct
pair count and the recount that check them are in `oracle`, which
`ThresholdHypergraph.edges` and `pair_count` call.

A `ThresholdHypergraph` computes on the run-length form alone and builds
its n creation bits only when `sequence` is asked for.
"""

import sys
from functools import cached_property
from operator import index
from types import ModuleType

from .combinatorics import (
    binomial,
    check_dense,
    check_dense_digits,
    count_text,
    edges_ending,
)
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
    "AdjacencyMatrix",
    "ThresholdHypergraph",
    "BlockProfile",
    "block_profile",
]


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
        object.__setattr__(self, "gamma", tuple(map(index, gamma)))
        if len(self.gamma) != self.seq.r:
            raise ValueError(
                f"need one pair count per run: {len(self.gamma)} for "
                f"{self.seq.r} runs"
            )
        pairs = squares = end = 0
        for g, a in zip(self.gamma, self.seq.runs):
            end += a
            pairs, squares = pair_sums(pairs, squares, g, a, end)
        object.__setattr__(self, "pair_total", pairs)
        object.__setattr__(self, "frobenius_sq", 2 * squares)


def pair_sums(
    pairs: int, squares: int, g: int, size: int, end: int
) -> tuple[int, int]:
    """`pairs` and `squares` with one block's term added: the block of
    `size` vertices ending at position `end`, at pair count g, closes the
    pairs of each of its vertices with every earlier vertex, and each such
    pair adds g to `pair_total` and g**2 to half of `frobenius_sq`."""
    ending = size * (end - size) + size * (size - 1) // 2
    return pairs + g * ending, squares + g * g * ending


def block_profile(ss: ShortSequence) -> BlockProfile:
    """The `BlockProfile` of ss: the pair count gamma_s of any vertex pair
    whose later vertex is in block s, for every block s, folded by
    `gamma_step` from the last block up: O(r) exact binomials, whatever
    n is.

    The record's `pair_total` is checked by `check_pair_total` against the
    edge count that the same steps return, an identity from the other
    binomial family; a failure names ss in its short form.
    """
    k = ss.k
    profile = []
    after = edges = 0
    end = ss.n
    for size, ones in reversed(list(ss.blocks())):
        g, after, edges = gamma_step(k, end, size, ones, after, edges)
        profile.append(g)
        end -= size
    bp = BlockProfile(ss, tuple(reversed(profile)))
    check_pair_total(k, bp.pair_total, edges, ss)
    return bp


def gamma_step(
    k: int, end: int, size: int, ones: bool, after: int, edges: int
) -> tuple[int, int, int]:
    """One block's step, from the last block up, for the block of `size`
    vertices ending at position `end`.  It reads `after`, the edges
    through a fixed pair that the later blocks close, and `edges`, the
    edges that end in the later blocks.  It returns the block's gamma, the
    `after` that the block before it reads, and `edges` plus the edges
    that end in this block (`edges_ending`; none end in a zeros block).

    For i < j the count depends on j alone: j closes binomial(j-2, k-2)
    edges through i when its bit is 1, and every later pseudodominant p
    closes binomial(p-3, k-3).  Over a ones block on positions a..b the
    hockey-stick identity sums the second kind to
    binomial(b-2, k-2) - binomial(a-3, k-2), so every vertex j of the
    block sees `after` + binomial(b-2, k-2), and a zeros block sees
    `after` alone.  A block with no pair ending in it (a lone first
    vertex) reports 0.  In the merged head the ones start at k, but no
    earlier block reads the `after` it leaves.
    """
    if not ones:
        return after, after, edges
    top = binomial(end - 2, k - 2)
    return (
        after + top,
        after + top - binomial(end - size - 2, k - 2),
        edges + edges_ending(k, end, size),
    )


def check_pair_total(
    k: int, pair_total: int, edges: int, sequence: ShortSequence | str
) -> None:
    """Raise RuntimeError unless the pair counts of `sequence` sum to
    binomial(k, 2) times its `edges`, gamma and `edges_ending` being two
    independent binomial families; only a failure formats a record."""
    if pair_total != k * (k - 1) // 2 * edges:
        name = sequence if isinstance(sequence, str) else format_short(sequence)
        raise RuntimeError(
            f"internal: pair counts of {name} sum to "
            f"{count_text(pair_total)}, but its {count_text(edges)} edges "
            f"give {count_text(k * (k - 1) // 2 * edges)}"
        )


class AdjacencyMatrix(FrozenRecord):
    """Symmetric matrix of exact pair counts with a zero diagonal.

    Construction checks all of this in O(n**2): integer entries, a square
    shape, a zero diagonal, no negative count and symmetry.  The two
    builders skip that check, since their matrices hold it by
    construction: `ThresholdHypergraph.adjacency` writes c_max(i,j) of
    exact integer pair counts to both (i, j) and (j, i) and 0 on the
    diagonal, and `oracle.recount_pairs` adds each edge's pairs to both
    cells from zero, so only an edge that repeats a vertex can break it,
    by a count on the diagonal, which it refuses in O(n).  A matrix built
    any other way is checked in full.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(tuple(map(index, row)) for row in entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("adjacency matrix must be square")
            if row[i] != 0:
                raise ValueError("adjacency diagonal must be zero")
            if min(row) < 0:
                raise ValueError("pair counts cannot be negative")
        if rows != tuple(zip(*rows)):
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

    def edges(self) -> list[tuple[int, ...]]:
        """All edges as sorted tuples, in lexicographic order, under the
        edge caps (`oracle.edges`)."""
        return _oracle().edges(self.runs)

    def pair_count(self, i: int, j: int) -> int:
        """Number of edges containing both v_i and v_j (`oracle.pair_count`)."""
        return _oracle().pair_count(self.runs, i, j)

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
        edges = frozenset(frozenset(e) for e in self.edges())
        return _oracle().GeneralHypergraph(self.n, self.k, edges)


#: The key of `oracle` in `sys.modules`.
_ORACLE = f"{__package__}.oracle"


def _oracle() -> ModuleType:
    """The `oracle` module, imported by the first call that runs an oracle
    and looked up in `sys.modules` by every later one: `pair_count(1, 4)`
    on `C(3,2)_3` took 3.6 us with an import in each call, 2.2 us so."""
    try:
        return sys.modules[_ORACLE]
    except KeyError:
        from . import oracle

        return oracle


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
        return getattr(_oracle(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
