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
"""

from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from typing import Iterable

from .combinatorics import as_float, binomial
from .errors import ResourceLimitError, SequenceError
from .sequences import (
    BinarySequence,
    ShortSequence,
    format_short,
    parse_sequence,
    to_short,
)

__all__ = [
    "DEFAULT_EDGE_CAP",
    "DENSE_CELL_CAP",
    "AdjacencyMatrix",
    "ThresholdHypergraph",
    "GeneralHypergraph",
    "block_profile",
    "adjacency_bruteforce",
    "load_replaceable_non_threshold_7_4",
]

#: Default cap on materialized edges and on brute-force subset iteration.
DEFAULT_EDGE_CAP = 10**7

#: Cap on the n * n cells of a dense matrix, checked before it is allocated.
DENSE_CELL_CAP = 10**7


def _check_dense(n: int) -> None:
    if n * n > DENSE_CELL_CAP:
        raise ResourceLimitError(
            f"a dense {n}x{n} matrix has {n * n} cells, over the cap of "
            f"{DENSE_CELL_CAP}"
        )


def block_profile(ss: ShortSequence) -> tuple[int, ...]:
    """Pair count gamma_s of any vertex pair whose later vertex is in block s.

    For i < j the count depends on j alone: j closes binomial(j-2, k-2)
    edges through i when its bit is 1, and every later pseudodominant p
    closes binomial(p-3, k-3).  Over a ones block on positions a..b the
    hockey-stick identity sums the second kind to
    binomial(b-2, k-2) - binomial(a-3, k-2), so every vertex j of the
    block sees `after` + binomial(b-2, k-2), where `after` sums the later
    blocks, and a zeros block sees `after` alone.  One pass from the last
    block up: O(r) exact binomials, whatever n is.  A block with no pair
    ending in it (a lone first vertex) reports 0.

    The result is checked against an identity from the other binomial
    family: summed over all pairs, gamma counts every edge binomial(k, 2)
    times, and the edges ending in a ones block number
    binomial(b, k) - binomial(a-1, k).  A mismatch raises RuntimeError.
    """
    k, runs = ss.k, ss.runs
    head_ones = ss.first_run_has_ones
    profile = [0] * len(runs)
    after = 0  # edges through a fixed pair closed in the later blocks
    pairs = edges = 0
    end = sum(runs)
    for s in range(len(runs) - 1, -1, -1):
        size = runs[s]
        before = end - size
        if (s % 2 == 0) == head_ones:
            # in the merged head the ones start at k, but no earlier
            # block reads the `after` it leaves
            top = binomial(end - 2, k - 2)
            g = profile[s] = after + top
            after += top - binomial(before - 2, k - 2)
            edges += binomial(end, k) - binomial(before, k)
        else:
            g = profile[s] = after
        pairs += g * (size * before + size * (size - 1) // 2)
        end = before
    if pairs != k * (k - 1) // 2 * edges:
        raise RuntimeError(
            f"internal: pair counts of {format_short(ss)} sum to {pairs}, "
            f"but its {edges} edges give {k * (k - 1) // 2 * edges}"
        )
    return tuple(profile)


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

    @property
    def n(self) -> int:
        return len(self.entries)

    def frobenius_sq(self) -> int:
        """Sum of squared entries, exact."""
        return sum(x * x for row in self.entries for x in row)

    def to_float_rows(self) -> list[list[float]]:
        """Double-precision copy; refuses entries beyond 2**53."""
        return [[as_float(x) for x in row] for row in self.entries]

    def csv_lines(self) -> list[str]:
        return [",".join(str(x) for x in row) for row in self.entries]


@dataclass(frozen=True)
class ThresholdHypergraph:
    """k-uniform hypergraph defined by a creation sequence."""

    sequence: BinarySequence

    @classmethod
    def from_text(cls, text: str) -> "ThresholdHypergraph":
        return cls(parse_sequence(text))

    @property
    def n(self) -> int:
        return self.sequence.n

    @property
    def k(self) -> int:
        return self.sequence.k

    def pseudodominants(self) -> list[int]:
        """Vertices whose creation bit is 1, i.e. the possible edge maxima."""
        return [i for i, b in enumerate(self.sequence.bits, start=1) if b]

    def is_edge(self, vertices: Iterable[int]) -> bool:
        e = sorted(set(vertices))
        if len(e) != self.k:
            raise ValueError(f"an edge needs exactly {self.k} distinct vertices")
        if e[0] < 1 or e[-1] > self.n:
            raise ValueError(f"vertex out of range 1..{self.n}")
        return self.sequence.bits[e[-1] - 1] == 1

    def edge_count(self) -> int:
        """Total number of edges, in closed form."""
        k = self.k
        return sum(binomial(v - 1, k - 1) for v in self.pseudodominants())

    def edges(self, cap: int = DEFAULT_EDGE_CAP) -> list[tuple[int, ...]]:
        """All edges as sorted tuples, in lexicographic order.

        The closed-form count is checked against `cap` before anything is
        materialized.
        """
        total = self.edge_count()
        if total > cap:
            raise ResourceLimitError(
                f"{total} edges exceed the cap of {cap}; raise the cap to enumerate"
            )
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
        _check_dense(self.n)
        ss = to_short(self.sequence)
        columns: list[int] = []
        for g, a in zip(block_profile(ss), ss.runs):
            columns += [g] * a
        c = tuple(columns)
        return AdjacencyMatrix(
            tuple((c[i],) * i + (0,) + c[i + 1 :] for i in range(self.n))
        )

    def split_partition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(independent part, clique part): zero bits never finish an edge,
        and any k one-bit vertices form an edge on their own."""
        zeros = tuple(i for i, b in enumerate(self.sequence.bits, 1) if not b)
        ones = tuple(i for i, b in enumerate(self.sequence.bits, 1) if b)
        return zeros, ones

    def to_general(self, cap: int = DEFAULT_EDGE_CAP) -> "GeneralHypergraph":
        edges = frozenset(frozenset(e) for e in self.edges(cap))
        return GeneralHypergraph(self.n, self.k, edges)


def adjacency_bruteforce(
    h: ThresholdHypergraph, cap: int = DEFAULT_EDGE_CAP
) -> AdjacencyMatrix:
    """Recount every pair by walking the edge list.  Oracle for `adjacency`."""
    n = h.n
    _check_dense(n)
    rows = [[0] * n for _ in range(n)]
    for e in h.edges(cap):
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

    def is_edge(self, vertices: Iterable[int]) -> bool:
        return frozenset(vertices) in self.edges

    def links(self) -> list[set[int]]:
        """link(v) = {e - {v} : v in e} for every vertex v, indexed by v.

        Each member is a vertex bitmask, bit v standing for vertex v (entry
        0 is empty).  One pass over the edges builds all n links.
        """
        links: list[set[int]] = [set() for _ in range(self.n + 1)]
        for e in self.edges:
            mask = _mask(e)
            for v in e:
                links[v].add(mask ^ 1 << v)
        return links

    def replaceable(self, x: int, y: int) -> bool:
        """True when y can stand in for x: swapping x out of any edge that
        avoids y yields another edge.  Vacuously true when x has no such
        edges.  Builds link(x) and link(y) only."""
        if x == y:
            raise ValueError("replaceability is defined for distinct vertices")
        for v in (x, y):
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return _replaces(self._link(x), self._link(y), y)

    def _link(self, v: int) -> set[int]:
        """link(v) alone, as in `links`, from the edges through v."""
        bit = 1 << v
        return {_mask(e) ^ bit for e in self.edges if v in e}

    def is_totally_replaceable(self) -> bool:
        """Every vertex pair is comparable under replaceability.

        If y replaces x, the swap e -> e - {x} + {y} maps the edges through
        x that avoid y one-to-one into the edges through y that avoid x, so
        y has at least x's degree, and at equal degrees the map is onto and
        x replaces y as well.  A pair is therefore comparable exactly when
        the vertex of larger degree (|link|) replaces the other: one set
        difference per pair.
        """
        links = self.links()
        for x, y in combinations(range(1, self.n + 1), 2):
            if len(links[x]) > len(links[y]):
                x, y = y, x
            if not _replaces(links[x], links[y], y):
                return False
        return True


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
