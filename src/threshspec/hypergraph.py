"""Threshold hypergraphs materialized from creation sequences.

Everything here is exact.  Edges are k-subsets whose largest vertex has
creation bit 1, and the adjacency matrix counts, for each vertex pair, the
edges containing both.  For i < j that count depends on j alone, and
`ThresholdHypergraph.column_counts` computes those n values in closed form;
`adjacency` expands them into the matrix and the closed spectral route
(`spectrum.block_profile`) groups them by block.  `adjacency_bruteforce`
recounts every pair by walking the edge list, and `pair_count` sums the
edges of one pair directly; both stay independent of `column_counts` and
serve as its oracles.
"""

from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from typing import Iterable

from .combinatorics import as_float, binomial
from .errors import ResourceLimitError, SequenceError
from .sequences import BinarySequence, parse_sequence

__all__ = [
    "DEFAULT_EDGE_CAP",
    "AdjacencyMatrix",
    "ThresholdHypergraph",
    "GeneralHypergraph",
    "adjacency_bruteforce",
    "load_replaceable_non_threshold_7_4",
]

#: Default cap on materialized edges and on brute-force subset iteration.
DEFAULT_EDGE_CAP = 10**7


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric matrix of exact pair counts with a zero diagonal."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple(tuple(int(x) for x in row) for row in self.entries)
        )
        n = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError("adjacency matrix must be square")
            if row[i] != 0:
                raise ValueError("adjacency diagonal must be zero")
            if any(x < 0 for x in row):
                raise ValueError("pair counts cannot be negative")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
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

    def column_counts(self) -> tuple[int, ...]:
        """Pair count c_j shared by every pair (i, j) with i < j, for j = 1..n.

        For i < j the count depends on j alone: j closes binomial(j-2, k-2)
        edges through i when its bit is 1, and every later pseudodominant p
        closes binomial(p-3, k-3).  One pass from the last vertex down,
        O(n) binomial evaluations.  The first vertex has no earlier partner
        and gets 0.
        """
        k = self.k
        bits = self.sequence.bits
        out = [0] * self.n
        after = 0  # edges through a fixed pair closed beyond vertex j
        for j in range(self.n, 1, -1):
            if bits[j - 1]:
                out[j - 1] = after + binomial(j - 2, k - 2)
                after += binomial(j - 3, k - 3)
            else:
                out[j - 1] = after
        return tuple(out)

    def adjacency(self) -> AdjacencyMatrix:
        """Closed-form adjacency matrix: A[i][j] = c[max(i, j)] off the
        diagonal, expanded from `column_counts`."""
        c = self.column_counts()
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
        for e in self.edges:
            if len(e) != self.k:
                raise ValueError(f"edge {sorted(e)} does not have {self.k} vertices")
            if not all(1 <= v <= self.n for v in e):
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

    def replaceable(self, x: int, y: int) -> bool:
        """True when y can stand in for x: swapping x out of any edge that
        avoids y yields another edge.  Vacuously true when x has no such
        edges."""
        if x == y:
            raise ValueError("replaceability is defined for distinct vertices")
        for v in (x, y):
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} out of range 1..{self.n}")
        for e in self.edges:
            if x in e and y not in e:
                if (e - {x}) | {y} not in self.edges:
                    return False
        return True

    def is_totally_replaceable(self) -> bool:
        """Every vertex pair is comparable under replaceability."""
        for x, y in combinations(range(1, self.n + 1), 2):
            if not (self.replaceable(x, y) or self.replaceable(y, x)):
                return False
        return True


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
