"""The oracles of the closed route, which share with it only the run
decoding.

The closed route (`block_profile` in `hypergraph`, and `spectrum`) gets
every pair count and eigenvalue from gamma.  The code here recomputes
them without gamma, so a fault there shows as a disagreement:

- `edges` lists the edges: for each of the `pseudodominants` v, the set
  E_v of the k-subsets whose largest vertex is v, which `closed_edges`
  lists.  `adjacency_bruteforce` recounts every pair by walking that
  list with `recount_pairs`; `pair_count` sums the edges of one pair
  directly.  `pseudodominants` and `pair_count` read the ones blocks off
  `ShortSequence.blocks()`, the one run decoding they share with
  `block_profile`.  `ThresholdHypergraph.edges` and `pair_count` hand
  their runs to these.
- `full_spectrum_numeric` diagonalizes the full n x n matrix, read off
  h's direct pair counts alone and not off gamma, by Householder
  reduction to tridiagonal form and the same rational QL, generic dense
  linear algebra that sees only the matrix.  It reports bit-equal values
  once.  Sharing the QL cannot make the routes agree on a wrong value:
  the closed route keeps a QL value only where the counts confirm it.
- `GeneralHypergraph` is any edge set, such as the paper's
  counterexample, and `edge_links` and `totally_replaceable` decide its
  replaceability.  `edge_links` is the one code that builds a link: it
  keys the links by the edges' vertices, so a vertex in no edge costs
  nothing, and `replaceable(x, y)` reads the same map.

Every oracle reads a vertex by one rule, `_check_vertices`: an int (a
bool counts) in 1..n, decided in O(1) per distinct vertex, whatever n.
The refusal names the least int or float outside the rule, else the
least by type name and repr, so that it never compares two types.  An
edge list and each of its edges must be collections that can be read
twice: a one-shot iterator is refused with TypeError.

The verify sweeps and the test-suite check the agreement of the two
routes exhaustively on small instances.  From `hypergraph` and
`spectrum` this module reads only the matrix and spectrum records,
`ThresholdHypergraph` and the shared `_rational_ql`, and no other module
imports it at module level, so that only a call that runs an oracle
loads it; `tests/test_oracle_boundary.py` holds both rules.
"""

import math
import operator
from collections.abc import Collection, Iterable, Sequence
from functools import cached_property
from itertools import combinations, groupby

from .combinatorics import (
    binomial,
    check_dense,
    check_dense_solve,
    check_edges,
    check_pair_counts,
    check_pair_walk,
)
from .hypergraph import AdjacencyMatrix, ThresholdHypergraph, _built_matrix
from .records import FrozenRecord
from .sequences import ShortSequence
from .spectrum import EigenPair, Spectrum, _rational_ql

__all__ = [
    "GeneralHypergraph",
    "pseudodominants",
    "closed_edges",
    "edges",
    "pair_count",
    "adjacency_bruteforce",
    "recount_pairs",
    "edge_links",
    "totally_replaceable",
    "load_replaceable_non_threshold_7_4",
    "householder_ql_eigenvalues",
    "full_spectrum_numeric",
]

def pseudodominants(ss: ShortSequence) -> list[int]:
    """Vertices whose creation bit is 1, i.e. the possible edge maxima:
    those of the ones blocks, from position k on in the merged head."""
    out, end = [], 0
    for size, ones in ss.blocks():
        if ones:
            out += range(max(end + 1, ss.k), end + size + 1)
        end += size
    return out


def edges(ss: ShortSequence) -> list[tuple[int, ...]]:
    """All edges as sorted tuples, in lexicographic order.

    The count is checked against `EDGE_CAP`, and the count times k
    against `EDGE_ENTRY_CAP` (`check_edges`), before anything is
    materialized.
    """
    check_edges(ss)
    out = []
    for v in pseudodominants(ss):
        out += closed_edges(v, ss.k)
    out.sort()
    return out


def closed_edges(v: int, k: int) -> list[tuple[int, ...]]:
    """E_v, the k-subsets of 1..v whose largest vertex is v, as sorted
    tuples in lexicographic order: the edges that v closes when its
    creation bit is 1, the same for every sequence.  Empty for v < k."""
    return [rest + (v,) for rest in combinations(range(1, v), k - 1)]


def pair_count(ss: ShortSequence, i: int, j: int) -> int:
    """Number of edges containing both v_i and v_j, in closed form.

    Split by the edge's largest vertex: the later of i, j can be the
    maximum itself, and any pseudodominant beyond it closes edges that
    need k-3 further vertices below it.
    """
    if i == j:
        raise ValueError("pair counts are defined for distinct vertices")
    _check_vertices(ss.n, [(i, j)])
    check_pair_walk(ss.n, ss.k)
    hi, k = max(i, j), ss.k
    ones = pseudodominants(ss)
    own = binomial(hi - 2, k - 2) if hi in ones else 0
    later = sum(binomial(v - 3, k - 3) for v in ones if v > hi)
    return own + later


def adjacency_bruteforce(h: ThresholdHypergraph) -> AdjacencyMatrix:
    """Recount every pair by walking the edge list, listed under
    `EDGE_CAP`.  Oracle for `adjacency`; the cell cap is checked
    before any edge is listed."""
    check_dense(h.n)
    return recount_pairs(h.n, h.edges())


def _check_vertices(n: int, edges: Collection[Iterable[int]]) -> set[int]:
    """The distinct vertices of an edge list, each decided in O(1),
    whatever n.  A vertex that is not an int in 1..n is refused by name:
    the least int or float among them, else the least by type name and
    repr, an order that compares no two types and reads no hash.  A
    one-shot iterable, of edges or as an edge, which this pass would leave
    empty for the caller's own, is refused with TypeError."""
    if iter(edges) is edges:
        raise TypeError(
            f"edges must be a collection, not a one-shot {type(edges).__name__}"
        )
    try:
        sum(map(len, edges))
    except TypeError as exc:
        raise TypeError(f"edges must be collections: {exc}") from None
    vertices = set().union(*edges)
    outside = [v for v in vertices if not (isinstance(v, int) and 1 <= v <= n)]
    if outside:
        numbers = [v for v in outside if isinstance(v, (int, float))]
        by_type = min(outside, key=lambda v: (type(v).__name__, repr(v)))
        raise ValueError(f"vertex {min(numbers, default=by_type)} out of range 1..{n}")
    return vertices


def recount_pairs(n: int, edges: Collection[Iterable[int]]) -> AdjacencyMatrix:
    """Adjacency matrix of an edge list on vertices 1..n, counted edge by
    edge.  An edge that repeats a vertex or leaves 1..n is refused with
    ValueError."""
    check_dense(n)
    _check_vertices(n, edges)
    rows = [[0] * n for _ in range(n)]
    for e in edges:
        for a, b in combinations(e, 2):
            rows[a - 1][b - 1] += 1
            rows[b - 1][a - 1] += 1
    if any(rows[i][i] for i in range(n)):
        raise ValueError("adjacency diagonal must be zero")
    return _built_matrix(tuple(tuple(row) for row in rows))


class GeneralHypergraph(FrozenRecord):
    """Arbitrary k-uniform hypergraph given by an explicit edge set."""

    _fields = ("n", "k", "edges")

    def __init__(self, n: int, k: int, edges: frozenset[frozenset[int]]) -> None:
        super().__init__(n, k, edges)
        if self.k < 2 or self.n < 0:
            raise ValueError("need k >= 2 and n >= 0")
        _check_vertices(self.n, self.edges)
        for e in self.edges:
            if len(e) != self.k:
                raise ValueError(f"edge {sorted(e)} does not have {self.k} vertices")

    def sorted_edges(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    @cached_property
    def links(self) -> dict[int, set[int]]:
        """The `edge_links` of the edges, built on first use and kept."""
        return edge_links(self.n, self.edges)

    def replaceable(self, x: int, y: int) -> bool:
        """True when y can stand in for x: swapping x out of any edge that
        avoids y yields another edge.  Vacuously true when x has no such
        edges.  Read off `links`, where a vertex in no edge has no key and
        the empty link."""
        if x == y:
            raise ValueError("replaceability is defined for distinct vertices")
        _check_vertices(self.n, [(x, y)])
        links = self.links
        return _replaces(links.get(x, set()), links.get(y, set()), y)

    def is_totally_replaceable(self) -> bool:
        """Every vertex pair is comparable under replaceability."""
        return totally_replaceable(self.links)


def edge_links(n: int, edges: Collection[Iterable[int]]) -> dict[int, set[int]]:
    """link(v) = {e - {v} : v in e} for every vertex v of an edge list on
    vertices 1..n, keyed by v: the vertices of the edges are the keys, and
    no other vertex is, so nothing is sized by n.  Each member is a vertex
    bitmask, bit v standing for vertex v.  One pass over the edges; a
    vertex outside 1..n, or an edge that repeats a vertex, is refused
    with ValueError, as `recount_pairs` refuses them."""
    links = {v: set() for v in _check_vertices(n, edges)}
    for e in edges:
        mask = _mask(e)
        if mask.bit_count() != len(e):
            raise ValueError(f"edge {tuple(e)} repeats a vertex")
        for v in e:
            links[v].add(mask ^ 1 << v)
    return links


def totally_replaceable(links: dict[int, set[int]]) -> bool:
    """Every vertex pair is comparable under replaceability, read off the
    links of `edge_links`: len(links) - 1 set differences, not one per
    pair.

    If y replaces x, the swap e -> e - {x} + {y} maps x's edges that avoid
    y one-to-one into y's that avoid x, so y has at least x's degree
    |link|, and at equal degrees x replaces y too.  If z replaces y as
    well, z replaces x: an edge e through x that avoids z reaches
    e - {x} + {z} through e - {x} + {y} (y, then z) if y is not in e, and
    through e - {y} + {z} (z, then y) if it is.  So, with the vertices in
    degree order, every pair is comparable exactly when each vertex
    replaces the one before it.

    A vertex in no edge has the empty link, so every vertex replaces it,
    and only the keys, the vertices of the edges, are chained: leaving the
    others out changes no answer.
    """
    chain = sorted(links, key=lambda v: len(links[v]))
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
    """The paper's 4-uniform example on 7 vertices: every vertex pair is
    comparable under replaceability, yet no creation sequence produces
    its edges {v, 5, 6, 7}, v = 1..4, under any vertex relabeling."""
    edges = frozenset(frozenset((v, 5, 6, 7)) for v in range(1, 5))
    return GeneralHypergraph(7, 4, edges)


def householder_ql_eigenvalues(matrix: Sequence[Sequence[float]]) -> list[float]:
    """All eigenvalues of a symmetric matrix, sorted descending.

    Householder reduction to tridiagonal form, tred1 of Wilkinson and
    Reinsch, Handbook for Automatic Computation II (1971), then
    `_rational_ql` (tqlrat) on the tridiagonal matrix: the eigenvalues-only
    path of EISPACK's driver rs.  The matrix must be square, finite and
    exactly symmetric, else `ValueError`.  Each eigenvalue gets at most
    `spectrum.QL_ITERATIONS` QL sweeps (tqlrat's 30), else
    `ConvergenceError`; the fixed order of operations makes the output
    repeatable.
    """
    n = len(matrix)
    a = [[float(x) for x in row] for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return []
    for i, row in enumerate(a):
        if not all(map(math.isfinite, row)):
            j = next(j for j, x in enumerate(row) if not math.isfinite(x))
            raise ValueError(f"matrix entry at ({i},{j}) is {row[j]}, not finite")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    # d is the diagonal, e[i] the entry at (i, i - 1).  Row i's reflector
    # P = I - u u^T / h zeroes a[i][:i - 1] and acts on the leading i x i
    # block, kept whole: A <- A - u q^T - q u^T with p = A u / h and
    # q = p - (u.p / 2h) u.  u is x / |x| shifted at its last entry, so h
    # is neither tiny nor huge.  A row that is already reduced is skipped.
    d = [0.0] * n
    e = [0.0] * n
    for i in range(n - 1, 0, -1):
        d[i] = a[i][i]
        x = a[i][:i]
        f = x[-1]
        if not any(x[:-1]):
            e[i] = f
            continue
        sigma = math.hypot(*x)
        e[i] = -math.copysign(sigma, f)
        u = [v / sigma for v in x]
        u[-1] += math.copysign(1.0, f)
        h = abs(u[-1])
        p = [sum(map(operator.mul, a[j], u)) / h for j in range(i)]
        half = sum(map(operator.mul, u, p)) / (2.0 * h)
        q = [pj - half * uj for pj, uj in zip(p, u)]
        for j in range(i):
            row = a[j]
            uj, qj = u[j], q[j]
            row[:i] = [v - uj * qk - qj * uk for v, uk, qk in zip(row, u, q)]
    d[0] = a[0][0]
    e2 = [x * x for x in e[1:]]  # e2[i] couples d[i] and d[i + 1]
    return sorted(_rational_ql(d, e2), reverse=True)


def full_spectrum_numeric(h: ThresholdHypergraph) -> Spectrum:
    """Spectrum of the full adjacency matrix by direct diagonalization.

    Oracle for the closed route: `householder_ql_eigenvalues` on the exact
    entries, O(n**3).  `check_dense_solve`, then `check_pair_counts`'s
    2**53 test, refuse before a column is read.  The matrix is read off
    h's pair counts alone: the columns c_j = `pair_count(1, j)`,
    A[i][j] = c_max(i,j), share no code with `block_profile`, so a fault
    there shows as a disagreement.  Only bit-equal values are reported
    once, at the solver's double: a tolerance would average distinct
    values, which the comparison with the closed route must see.
    """
    check_dense_solve(h.n)
    check_pair_counts(h.runs)
    c = (0, *(h.pair_count(1, j) for j in range(2, h.n + 1)))
    rows = [(c[i],) * i + (0,) + c[i + 1 :] for i in range(h.n)]
    groups = groupby(householder_ql_eigenvalues(rows))
    return Spectrum(tuple(EigenPair(v, len(list(g)), "numeric") for v, g in groups))
