"""Exhaustive verification over small creation sequences.

One walk visits every valid sequence up to a size bound once, as the run
shape that `iter_short_sequences` lists, and runs checks on it, each of
an identity whose two sides are computed by unrelated code paths; no bit
is built.  It takes the (k, n) sizes in the order of
`sequences.sweep_space`, and each size's sequences as complement pairs:
every zero-head sequence is followed by its complement, the same runs
with the merged head, so the merged-head half is never listed on its
own.  What the checks compare against at one size is built once per
size, what the two sequences of a pair share once per pair, and a walk
imports the oracles it checks against: importing this module does not.
The CLI `verify` command runs all five checks in one walk; each
`sweep_*` is the walk with one check.
"""

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import combinations
from types import ModuleType
from weakref import ref

from .combinatorics import check_subsets
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


class _Size:
    """What the visits of one (k, n) size share: the adjacency entries seen
    so far, each with its first sequence, and the list of every k-subset.
    The list is built at its first use, which follows the edge lists
    under their cap: it is as long as the two lists together."""

    def __init__(self, k: int, n: int) -> None:
        self.k, self.n = k, n
        self.seen: dict[tuple, ShortSequence] = {}

    @cached_property
    def subsets(self) -> list[tuple[int, ...]]:
        return list(combinations(range(1, self.n + 1), self.k))


class _Visit:
    """One sequence as the checks see it.  Each check is a method named
    after its sweep that yields the sequence's failures; they share one
    edge list and one closed-form adjacency, `_edges` and `_adjacency`,
    each built at its first read and then held as a plain attribute, and
    call the oracles through the module the walk imported.  The
    sequence's text is written only for a failure.

    `mate` is a weak reference to the visit of the sequence's complement,
    so that mates form no cycle (a lone zero run is its own mate): the
    complement check reads the mate's edge list, and the pair's one
    comparison with the k-subsets, `split`, held by the visit that made
    it.  Helpers start with `_`, so that `_CHECKS` does not take them."""

    def __init__(self, ss: ShortSequence, size: _Size, oracle: ModuleType) -> None:
        self.h, self.size, self.oracle = ThresholdHypergraph(ss), size, oracle
        self.mate: ref[_Visit] | None = None
        self.split: bool | None = None

    def __getattr__(self, name: str) -> object:
        if name == "_edges":
            self._edges = self.h.edges()
            return self._edges
        if name == "_adjacency":
            self._adjacency = self.h.adjacency()
            return self._adjacency
        raise AttributeError(name)

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
        runs = self.h.runs
        first = self.size.seen.setdefault(self._adjacency.entries, runs)
        if first is not runs:
            yield f"{format_bits(first)} collides with {self._text}"

    def replaceability_totality(self) -> Iterator[str]:
        links = self.oracle.edge_links(self.h.n, self._edges)
        if not self.oracle.totally_replaceable(links):
            yield self._text

    def complement_partition(self) -> Iterator[str]:
        mate = self.mate()
        # the mate is the complement the walk built; by uniqueness no other
        # sequence splits the k-subsets with this one
        if complement_sequence(self.h.runs) != mate.h.runs:
            yield self._text
            return
        split = mate.split
        if split is None:
            split = self.split = sorted(self._edges + mate._edges) == self.size.subsets
        if not split:
            yield self._text


#: The checks, in the order `_Visit` defines them and `run_all_sweeps` reports.
_CHECKS = tuple(name for name in vars(_Visit) if not name.startswith("_"))

#: The checks that read edge lists, whose k-subsets `check_subsets` weighs.
_LISTING = {"oracle_equivalence", "replaceability_totality", "complement_partition"}


def _walk(n_max: int, k_values: Iterable[int], *names: str) -> list[SweepResult]:
    from . import oracle

    sizes = sweep_space(n_max, k_values, "sweeps", False)
    if _LISTING.intersection(names):
        check_subsets("sweeps", sizes)
    results = [SweepResult(name) for name in names]
    # each check bound once; two_route walks connected sequences only:
    # the golden verify digest and the benchmark's checker pin its count
    checks = [
        (res, getattr(_Visit, res.name), res.name == "two_route") for res in results
    ]
    for k, n in sizes:
        size = _Size(k, n)
        for ss in iter_short_sequences(n, k):
            if ss.first_run_has_ones:
                break  # the merged-head half: each of its sequences was a mate
            pair = [_Visit(ss, size, oracle)]
            if n >= k:  # else the lone zero run, its own complement
                pair.append(_Visit(ShortSequence(k, ss.runs, True), size, oracle))
            for v, mate in zip(pair, pair[::-1]):
                v.mate = ref(mate)
            for v in pair:
                connected = v.h.runs.connected
                for res, check, connected_only in checks:
                    if connected or not connected_only:
                        res.checked += 1
                        for failure in check(v):
                            res.record(failure)
    return results


def sweep_adjacency_oracle(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Closed-form adjacency equals the edge-list recount, entry for entry."""
    return _walk(n_max, k_values, "oracle_equivalence")[0]


def sweep_two_route(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Block eigenvalues agree with direct pair counts on connected sequences.

    This is where the two routes meet: each block eigenvalue -gamma_s, from
    `block_profile`, must equal minus `pair_count` of the block's
    first two vertices, an independent direct sum.  The sweep also confirms
    the block eigenvalue count is n - r.
    """
    return _walk(n_max, k_values, "two_route")[0]


def sweep_uniqueness(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Distinct sequences of the same size give distinct adjacency matrices."""
    return _walk(n_max, k_values, "uniqueness")[0]


def sweep_replaceability(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Every vertex pair of a sequence hypergraph is replaceability-comparable."""
    return _walk(n_max, k_values, "replaceability_totality")[0]


def sweep_complement_partition(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """A hypergraph and its complement split the k-subsets exactly.

    Both edge lists hold distinct sorted tuples, so they split the
    k-subsets exactly when their merged sort lists each k-subset once.
    """
    return _walk(n_max, k_values, "complement_partition")[0]


def run_all_sweeps(n_max: int, k_values: Iterable[int]) -> list[SweepResult]:
    """All five sweeps in one walk, guarded up front by the sequence and
    subset budgets; the edge lists inside it are listed under the edge
    cap."""
    return _walk(n_max, k_values, *_CHECKS)
