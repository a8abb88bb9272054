"""Threshold hypergraphs materialized from creation sequences.

Everything here is exact.  Edges are k-subsets whose largest vertex has
creation bit 1, and the adjacency matrix counts, for each vertex pair, the
edges containing both.  For i < j that count depends only on the block
(run) of j, and `block_profile` computes those r values, gamma, straight
from the run lengths; `adjacency` expands them into the matrix and the
closed spectral route works from them alone.  `adjacency_bruteforce`
recounts every pair by walking the edge list, and `pair_count` sums the
edges of one pair directly; both stay independent of `block_profile` and
serve as its oracles.

A `ThresholdHypergraph` keeps the run-length form and builds its n
creation bits only for the two methods that read single vertices,
`pseudodominants` (which `edges` lists from) and `pair_count`.  The size
caps (`check_edges` on the edge count, `check_dense` on n and
`check_dense_digits` on the text of the matrix) are checked on the runs
inside each method, so a short form over a cap is refused before any bit
is built, whoever calls.
"""

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import combinations
from typing import Iterable

from .combinatorics import (
    TEXT_DIGITS,
    binomial,
    binomial_exceeds,
    bits_text,
    count_text,
)
from .errors import ResourceLimitError, SequenceError
from .sequences import (
    BinarySequence,
    ShortSequence,
    format_short,
    parse_runs,
    to_binary,
    to_short,
)

__all__ = [
    "DEFAULT_EDGE_CAP",
    "DENSE_CELL_CAP",
    "DENSE_DIGIT_CAP",
    "AdjacencyMatrix",
    "ThresholdHypergraph",
    "GeneralHypergraph",
    "BlockProfile",
    "block_profile",
    "edge_total",
    "check_dense",
    "check_dense_digits",
    "check_edge_cap",
    "check_edges",
    "adjacency_bruteforce",
    "recount_pairs",
    "edge_links",
    "totally_replaceable",
    "load_replaceable_non_threshold_7_4",
]

#: Default cap on materialized edges and on brute-force subset iteration.
DEFAULT_EDGE_CAP = 10**7

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


def check_edge_cap(total: int, cap: int = DEFAULT_EDGE_CAP) -> None:
    """Refuse to list `total` edges when that is over `cap`."""
    if total > cap:
        raise ResourceLimitError(
            f"{count_text(total)} edges exceed the cap of {cap}; raise the cap "
            "to enumerate"
        )


def check_edges(ss: ShortSequence, cap: int = DEFAULT_EDGE_CAP) -> None:
    """`check_edge_cap` on the edges of ss.  The last vertex with bit 1,
    e, closes binomial(e-1, k-1) edges alone; the exact total is built
    only when that bound has at most 4,300 digits, and a message past
    them names the bound's least bit length."""
    e = ss.last_one
    if binomial_exceeds(e - 1, ss.k - 1, cap):
        text_limit = 10**TEXT_DIGITS
        if binomial_exceeds(e - 1, ss.k - 1, text_limit - 1):
            raise ResourceLimitError(
                f"at least {bits_text(text_limit.bit_length())} edges exceed "
                f"the cap of {cap}; raise the cap to enumerate"
            )
    check_edge_cap(edge_total(ss), cap)


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


@dataclass(frozen=True)
class BlockProfile:
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

    seq: ShortSequence
    gamma: tuple[int, ...]
    pair_total: int = field(init=False)
    frobenius_sq: int = field(init=False)

    def __post_init__(self) -> None:
        gamma = tuple(int(g) for g in self.gamma)
        if len(gamma) != self.seq.r:
            raise ValueError(
                f"need one pair count per run: {len(gamma)} for "
                f"{self.seq.r} runs"
            )
        pairs = squares = before = 0
        for g, a in zip(gamma, self.seq.runs):
            # the pairs whose later vertex lies in this block
            ending = a * before + a * (a - 1) // 2
            pairs += g * ending
            squares += g * g * ending
            before += a
        object.__setattr__(self, "gamma", gamma)
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


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric matrix of exact pair counts with a zero diagonal."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(map(int, row)) for row in self.entries)
        object.__setattr__(self, "entries", entries)
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


@dataclass(frozen=True, init=False)
class ThresholdHypergraph:
    """k-uniform hypergraph defined by a creation sequence.

    Takes either encoding and keeps the run-length form, `runs`.  The bit
    form, `sequence`, is the one given or is built on first use, and only
    the methods that read single vertices (`pseudodominants`, for `edges`,
    and `pair_count`) use it; every size cap is checked on the runs before
    that.
    """

    runs: ShortSequence

    def __init__(self, seq: BinarySequence | ShortSequence) -> None:
        if isinstance(seq, BinarySequence):
            object.__setattr__(self, "sequence", seq)  # kept, not rebuilt
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
        """Vertices whose creation bit is 1, i.e. the possible edge maxima."""
        return [i for i, b in enumerate(self.sequence.bits, start=1) if b]

    def edges(self, cap: int = DEFAULT_EDGE_CAP) -> list[tuple[int, ...]]:
        """All edges as sorted tuples, in lexicographic order.

        The count is checked against `cap` (`check_edges`) before anything
        is materialized, the bits included.
        """
        check_edges(self.runs, cap)
        k = self.k
        out = []
        for v in self.pseudodominants():
            for rest in combinations(range(1, v), k - 1):
                out.append(rest + (v,))
        out.sort()
        return out

    def pair_count(self, i: int, j: int) -> int:
        """Number of edges containing both v_i and v_j, in closed form.

        Split by the edge's largest vertex: the later of i, j can be the
        maximum itself, and any pseudodominant beyond it closes edges that
        need k-3 further vertices below it.
        """
        if i == j:
            raise ValueError("pair counts are defined for distinct vertices")
        for v in (i, j):
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} out of range 1..{self.n}")
        lo, hi = min(i, j), max(i, j)
        k = self.k
        own = binomial(hi - 2, k - 2) if self.sequence.bits[hi - 1] else 0
        later = sum(
            binomial(v - 3, k - 3) for v in self.pseudodominants() if v > hi
        )
        return own + later

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
        return AdjacencyMatrix(
            tuple((c[i],) * i + (0,) + c[i + 1 :] for i in range(self.n))
        )

    def to_general(self) -> "GeneralHypergraph":
        edges = frozenset(frozenset(e) for e in self.edges())
        return GeneralHypergraph(self.n, self.k, edges)


def adjacency_bruteforce(h: ThresholdHypergraph) -> AdjacencyMatrix:
    """Recount every pair by walking the edge list, listed under
    `DEFAULT_EDGE_CAP`.  Oracle for `adjacency`; the cell cap is checked
    before any edge is listed."""
    check_dense(h.n)
    return recount_pairs(h.n, h.edges())


def recount_pairs(n: int, edges: Iterable[Iterable[int]]) -> AdjacencyMatrix:
    """Adjacency matrix of an edge list on vertices 1..n, counted edge by edge."""
    check_dense(n)
    rows = [[0] * n for _ in range(n)]
    for e in edges:
        for a, b in combinations(e, 2):
            rows[a - 1][b - 1] += 1
            rows[b - 1][a - 1] += 1
    return AdjacencyMatrix(tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class GeneralHypergraph:
    """Arbitrary k-uniform hypergraph given by an explicit edge set."""

    n: int
    k: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if self.k < 2 or self.n < 0:
            raise ValueError("need k >= 2 and n >= 0")
        vertices = frozenset(range(1, self.n + 1))
        for e in self.edges:
            if len(e) != self.k:
                raise ValueError(f"edge {sorted(e)} does not have {self.k} vertices")
            if not e <= vertices:
                raise ValueError(f"edge {sorted(e)} leaves the vertex range")

    @classmethod
    def from_edge_lines(cls, text: str, n: int, k: int) -> "GeneralHypergraph":
        """Parse one comma-separated edge per line (blank lines ignored)."""
        edges = set()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                vertices = [int(p) for p in line.split(",")]
            except ValueError as exc:
                raise SequenceError(f"bad edge line: {line!r}") from exc
            edges.add(frozenset(vertices))
        return cls(n, k, frozenset(edges))

    def sorted_edges(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    def replaceable(self, x: int, y: int) -> bool:
        """True when y can stand in for x: swapping x out of any edge that
        avoids y yields another edge.  Vacuously true when x has no such
        edges.  Reads link(x) and link(y) from `edge_links`."""
        if x == y:
            raise ValueError("replaceability is defined for distinct vertices")
        for v in (x, y):
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} out of range 1..{self.n}")
        links = edge_links(self.n, self.edges)
        return _replaces(links[x], links[y], y)

    def is_totally_replaceable(self) -> bool:
        """Every vertex pair is comparable under replaceability."""
        return totally_replaceable(edge_links(self.n, self.edges))


def edge_links(n: int, edges: Iterable[Iterable[int]]) -> list[set[int]]:
    """link(v) = {e - {v} : v in e} for every vertex v of an edge list on
    vertices 1..n, indexed by v.  Each member is a vertex bitmask, bit v
    standing for vertex v (entry 0 is empty).  One pass over the edges."""
    links: list[set[int]] = [set() for _ in range(n + 1)]
    for e in edges:
        mask = _mask(e)
        for v in e:
            links[v].add(mask ^ 1 << v)
    return links


def totally_replaceable(links: list[set[int]]) -> bool:
    """Every vertex pair is comparable under replaceability, read off the
    links of `edge_links`: n - 1 set differences, not one per pair.

    If y replaces x, the swap e -> e - {x} + {y} maps x's edges that avoid
    y one-to-one into y's that avoid x, so y has at least x's degree
    |link|, and at equal degrees x replaces y too.  If z replaces y as
    well, z replaces x: an edge e through x that avoids z reaches
    e - {x} + {z} through e - {x} + {y} (y, then z) if y is not in e, and
    through e - {y} + {z} (z, then y) if it is.  So, with the vertices in
    degree order, every pair is comparable exactly when each vertex
    replaces the one before it.
    """
    chain = sorted(range(1, len(links)), key=lambda v: len(links[v]))
    return all(_replaces(links[x], links[y], y) for x, y in zip(chain, chain[1:]))


def _mask(vertices: Iterable[int]) -> int:
    """Vertex bitmask, bit v standing for vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _replaces(link_x: set[int], link_y: set[int], y: int) -> bool:
    """y replaces x, read off the links: an edge e through x that avoids y
    maps to the edge e - {x} + {y} exactly when e - {x} is in link(y), so
    every member of link(x) - link(y) must be one that contains y."""
    return all(map((1 << y).__and__, link_x - link_y))


def load_replaceable_non_threshold_7_4() -> GeneralHypergraph:
    """Bundled 4-uniform example on 7 vertices: every vertex pair is
    comparable under replaceability, yet no creation sequence produces its
    edge set (under any vertex relabeling)."""
    text = (
        resources.files("threshspec")
        .joinpath("data/replaceable_non_threshold_7_4.txt")
        .read_text(encoding="ascii")
    )
    return GeneralHypergraph.from_edge_lines(text, n=7, k=4)
