"""Exhaustive verification over small creation sequences.

One walk, `run_all_sweeps`, visits every valid sequence up to a size
bound once, as the run shape that `iter_short_sequences` lists, and runs
five checks on it, each of an identity whose two sides are computed by
unrelated code paths; no bit is built.  It takes the (k, n) sizes in the
order of `sequences.sweep_space`, and each size's sequences as
complement pairs: every zero-head sequence is followed by its
complement, which `complement_sequence` gives as the same runs with the
merged head, so the merged-head half is never listed on its own.  The
walk builds each sequence's closed-form adjacency and edge list, which
feeds the complement check, and its brute-force recount and links from
per-vertex pieces: an edge has one largest vertex, so the edge set is
the disjoint union of the sets E_v (`oracle.closed_edges`) that its
`pseudodominants` v close, and E_v is the same for every sequence of a
size.  So each E_v's recount and links are built once per size, on
first use, and a visit's recount is the sum of its closing vertices'
recounts and its links their union.  One generator, `_failures`, runs
the five checks in the order of `_CHECKS`.  The one list of a size's
k-subsets and its pieces are built once per size and dropped when the
size ends, the pair's comparison with the list once per pair, and
nothing else outlives a pair: uniqueness reads each matrix back to its
sequence (`decode`) instead of keeping the matrices seen, so a walk's
memory does not grow with n_max.  A walk imports the oracles it checks
against: importing this module does not.  The CLI `verify` command runs
the walk; each `sweep_*` runs it too and returns its own check's frozen
result, which counts every failure and keeps the first `MAX_REPORTED`
messages.
"""

from collections.abc import Iterable, Iterator
from itertools import chain, combinations, groupby
from types import ModuleType

from .combinatorics import check_subsets
from .errors import SequenceError
from .hypergraph import AdjacencyMatrix, ThresholdHypergraph, block_profile
from .records import FrozenRecord
from .sequences import (
    ShortSequence,
    complement_sequence,
    format_bits,
    iter_short_sequences,
    sweep_space,
)
from .spectrum import block_eigenvalues

__all__ = [
    "SweepResult",
    "sweep_adjacency_oracle",
    "sweep_two_route",
    "sweep_uniqueness",
    "sweep_replaceability",
    "sweep_complement_partition",
    "run_all_sweeps",
    "decode",
]

#: How many failure messages a result keeps; `failed` counts them all.
MAX_REPORTED = 5


class SweepResult(FrozenRecord):
    """One check over a walk: sequences checked, failed, first messages."""

    _fields = ("name", "checked", "failed", "failures")

    @property
    def passed(self) -> bool:
        return self.failed == 0


def decode(entries: tuple[tuple[int, ...], ...], k: int) -> ShortSequence:
    """The creation sequence of uniformity k whose pair-count matrix is
    `entries`, read off vertex 1's row alone: a left inverse of the
    adjacency, decode(A(ss)) = ss for every valid ss.  So distinct
    sequences of one size have distinct matrices, since the matrix fixes
    its first row.  It reads only the entries: no gamma, no `block_profile`
    and no `pair_count`.

    Proof.  For j >= 2, c_j = A[1][j] is the pair count gamma of the
    block of j, the same for every vertex of a block.  Neighbouring
    blocks never share it.  Every ones block ends at some b >= k, and
    sees binomial(b-2, k-2) >= 1 more than the zeros block after it.  A
    ones block that follows a zeros block starts at some a >= k+1, past
    a first zero run of at least k, and sees binomial(a-3, k-2) >= 1
    more than that zeros block.  So the maximal groups of equal c are the
    blocks, the first one short of vertex 1.  Vertex 1 lies in vertex
    2's block, since a first run holds at least 2 vertices once n >= 2.
    Trailing zeros lie in no edge, so their c is 0, and a last ones block
    has c = binomial(n-2, k-2) >= 1: the last run is zeros exactly when
    its c is 0.  The kinds alternate, so the last run's kind and the run
    count's parity fix `first_run_has_ones`.  The lone zero run
    (n = k-1) reads as one zeros run; at n = 1 the row is the diagonal's
    0 alone, read the same way.

    A row that no sequence has is refused with `SequenceError`.
    """
    row = entries[0]
    runs = [len(list(g)) for _, g in groupby(row[1:])] or [0]
    runs[0] += 1  # vertex 1, in vertex 2's block
    last_ones = row[-1] != 0
    return ShortSequence(k, tuple(runs), (len(runs) % 2 == 1) == last_ones)


#: The checks, in the order `_failures` runs them and `run_all_sweeps`
#: reports them.
_CHECKS = (
    "oracle_equivalence",
    "two_route",
    "uniqueness",
    "replaceability_totality",
    "complement_partition",
)


def _failures(
    h: ThresholdHypergraph,
    adjacency: AdjacencyMatrix,
    recount: tuple[int, ...],
    links: dict[int, set[int]],
    split: bool,
    oracle: ModuleType,
) -> Iterator[tuple[int, str]]:
    """Each failure of the five checks on one sequence, as its check's
    index in `_CHECKS` and its message, in that order.  The checks share
    the sequence's closed-form adjacency, read its recount (row-major)
    and links as `_merged` builds them, and read the pair's one
    comparison with the k-subsets as `split`; they call the oracles
    through the module the walk imported.  The sequence's text is
    written only for a failure.  `two_route` runs on connected sequences
    only."""
    ss = h.runs
    if recount != _flat(adjacency):
        yield 0, format_bits(ss)
    if ss.connected:
        try:
            values = block_eigenvalues(block_profile(ss))
        except RuntimeError as exc:
            yield 1, f"{format_bits(ss)}: {exc}"
        else:
            for b in values:
                first = sum(ss.runs[: b.block_index - 1]) + 1
                direct = -h.pair_count(first, first + 1)
                if b.value != direct:
                    yield 1, (
                        f"{format_bits(ss)}: block {b.block_index} gives "
                        f"{b.value} but the direct pair count gives {direct}"
                    )
            if sum(b.multiplicity_lower_bound for b in values) != ss.n - ss.r:
                yield 1, f"{format_bits(ss)}: block multiplicities missed n-r"
    try:
        back = decode(adjacency.entries, h.k)
    except SequenceError as exc:
        yield 2, f"{format_bits(ss)} reads back as no sequence: {exc}"
    else:
        if back != ss:
            yield 2, f"{format_bits(ss)} reads back as {format_bits(back)}"
    if not oracle.totally_replaceable(links):
        yield 3, format_bits(ss)
    # the mate is `complement_sequence`'s; by uniqueness only the true
    # complement's edges split the k-subsets with this one's
    if not split:
        yield 4, format_bits(ss)


def _flat(matrix: AdjacencyMatrix) -> tuple[int, ...]:
    """The entries of a matrix in row-major order."""
    return tuple(chain.from_iterable(matrix.entries))


def _merged(
    base: tuple[int, ...],
    pieces: list[tuple[tuple[int, ...], dict[int, set[int]]]],
) -> tuple[tuple[int, ...], dict[int, set[int]]]:
    """A visit's recount, row-major, and links from the pieces of its
    closing vertices, each E_v's row-major recount and links.  An edge
    has exactly one largest vertex, so both add up over the pieces: the
    recount is `base`, the size's recount of no edge, plus the pieces'
    recounts, entry for entry, and each vertex's link is the union of
    its links in the pieces, a new set, so no piece's set is changed."""
    recount = tuple(map(sum, zip(base, *(p[0] for p in pieces))))
    parts = {}
    for _, piece in pieces:
        for u, link in piece.items():
            parts.setdefault(u, []).append(link)
    return recount, {u: set().union(*links) for u, links in parts.items()}


def sweep_adjacency_oracle(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Closed-form adjacency equals the edge-list recount, entry for entry,
    summed over the edges each closing vertex closes: the first result of
    `run_all_sweeps`."""
    return run_all_sweeps(n_max, k_values)[0]


def sweep_two_route(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Block eigenvalues agree with direct pair counts on connected sequences.

    This is where the two routes meet: each block eigenvalue -gamma_s, from
    `block_profile`, must equal minus `pair_count` of the block's
    first two vertices, an independent direct sum.  The sweep also confirms
    the block eigenvalue count is n - r.  The second result of
    `run_all_sweeps`, so both budgets weigh it.
    """
    return run_all_sweeps(n_max, k_values)[1]


def sweep_uniqueness(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Distinct sequences of the same size give distinct adjacency matrices.

    Each closed-form matrix is read back to its sequence by `decode`, so
    the walk keeps no matrix: as fresh processes on a 2-vCPU Xeon VM,
    `verify --n-max 14 --k 2` peaks at 18.0 MB RSS and `--n-max 16 --k 2`
    at 18.1 MB.  The third result of `run_all_sweeps`, so both budgets
    weigh it.
    """
    return run_all_sweeps(n_max, k_values)[2]


def sweep_replaceability(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Every vertex pair of a sequence hypergraph is replaceability-comparable:
    the fourth result of `run_all_sweeps`."""
    return run_all_sweeps(n_max, k_values)[3]


def sweep_complement_partition(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """A hypergraph and its complement split the k-subsets exactly.

    Both edge lists hold distinct sorted tuples, so they split the
    k-subsets exactly when their merged sort lists each k-subset once.
    The fifth result of `run_all_sweeps`.
    """
    return run_all_sweeps(n_max, k_values)[4]


def run_all_sweeps(n_max: int, k_values: Iterable[int]) -> list[SweepResult]:
    """All five sweeps in one walk, guarded up front by the sequence and
    subset budgets; the edge lists inside it are listed under the edge
    cap, and a size's k-subsets after its first pair's two edge lists,
    since the list is as long as the two together.  The listing feeds
    the complement check; the recount and the links are built from
    per-vertex pieces: for each (k, n) size, the recount of no edge once,
    at the first pair, and each E_v's recount and links once, when a
    visit first reads v, all dropped when the size ends.  The results are
    built once, after the walk, from each check's tallies."""
    from . import oracle

    sizes = sweep_space(n_max, k_values, "sweeps", False)
    check_subsets("sweeps", sizes)
    failed = [0] * len(_CHECKS)
    logs = [[] for _ in _CHECKS]
    visited = connected = 0
    for k, n in sizes:
        subsets = base = None
        pieces = {}
        for ss in iter_short_sequences(n, k):
            if ss.first_run_has_ones:
                break  # the merged-head half: each of its sequences was a mate
            mate = complement_sequence(ss)
            # the lone zero run is its own complement; each member's
            # adjacency comes before its edges, so the cell cap refuses
            # a huge lone zero run before its edge list is listed
            members = (ss,) if mate == ss else (ss, mate)
            pair = [
                (h, h.adjacency(), h.edges())
                for h in map(ThresholdHypergraph, members)
            ]
            if subsets is None:
                subsets = list(combinations(range(1, n + 1), k))
                base = _flat(oracle.recount_pairs(n, []))
            split = sorted(pair[0][2] + pair[-1][2]) == subsets
            for h, adjacency, _ in pair:
                closing = oracle.pseudodominants(h.runs)
                for v in closing:
                    if v not in pieces:
                        closed = oracle.closed_edges(v, k)
                        pieces[v] = (
                            _flat(oracle.recount_pairs(n, closed)),
                            oracle.edge_links(n, closed),
                        )
                visited += 1
                connected += h.runs.connected
                # the merged recount and links live in the generator alone,
                # so they are freed when it ends, before the next merge
                parts = [pieces[v] for v in closing]
                checks = _failures(h, adjacency, *_merged(base, parts), split, oracle)
                for i, message in checks:
                    failed[i] += 1
                    if failed[i] <= MAX_REPORTED:
                        logs[i].append(message)
    # two_route counts connected sequences only: the golden verify digest
    # and the benchmark's checker pin its count
    return [
        SweepResult(name, connected if i == 1 else visited, failed[i], tuple(logs[i]))
        for i, name in enumerate(_CHECKS)
    ]
