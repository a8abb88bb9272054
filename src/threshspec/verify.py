"""Exhaustive verification over small creation sequences.

One walk visits every valid sequence up to a size bound once, in the
order of `sequences.sweep_space`, and runs checks on it, each of an
identity whose two sides are computed by unrelated code paths.  The CLI
`verify` command runs all five checks in one walk; each `sweep_*` is the
walk with one check.  `sweep_space` refuses a walk over the sequence
budget before it starts: `run_all_sweeps` takes the budget, the `sweep_*`
functions use `DEFAULT_SEQUENCE_BUDGET`.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator

from .hypergraph import (
    ThresholdHypergraph,
    block_profile,
    edge_links,
    recount_pairs,
    totally_replaceable,
)
from .sequences import (
    DEFAULT_SEQUENCE_BUDGET,
    BinarySequence,
    complement_sequence,
    format_bits,
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


@dataclass
class SweepResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, message: str) -> None:
        if len(self.failures) < MAX_REPORTED:
            self.failures.append(message)
        elif len(self.failures) == MAX_REPORTED:
            self.failures.append("...")


class _Visit:
    """One sequence as the checks see it.  Each check is a method named
    after its sweep that yields the sequence's failures; they share one
    edge list and one closed-form adjacency, each built on first use."""

    def __init__(self, s: BinarySequence, seen: dict[tuple, str]) -> None:
        self.s, self.h = s, ThresholdHypergraph(s)
        self.text = format_bits(self.h.runs)
        self.edges, self.adjacency = cache(self.h.edges), cache(self.h.adjacency)
        self.seen = seen  # adjacency entries of this size -> first sequence

    def oracle_equivalence(self) -> Iterator[str]:
        if self.adjacency() != recount_pairs(self.s.n, self.edges()):
            yield self.text

    def two_route(self) -> Iterator[str]:
        ss = self.h.runs
        try:
            values = block_eigenvalues(block_profile(ss))
        except RuntimeError as exc:
            yield f"{self.text}: {exc}"
            return
        for b in values:
            first = sum(ss.runs[: b.block_index - 1]) + 1
            direct = -self.h.pair_count(first, first + 1)
            if b.value != direct:
                yield (
                    f"{self.text}: block {b.block_index} gives "
                    f"{b.value} but the direct pair count gives {direct}"
                )
        if sum(b.multiplicity_lower_bound for b in values) != self.s.n - ss.r:
            yield f"{self.text}: block multiplicities missed n-r"

    def uniqueness(self) -> Iterator[str]:
        key = self.adjacency().entries
        if key in self.seen:
            yield f"{self.seen[key]} collides with {self.text}"
        else:
            self.seen[key] = self.text

    def replaceability_totality(self) -> Iterator[str]:
        if not totally_replaceable(edge_links(self.s.n, self.edges())):
            yield self.text

    def complement_partition(self) -> Iterator[str]:
        n, k = self.s.n, self.s.k
        theirs = ThresholdHypergraph(complement_sequence(self.s)).edges()
        if sorted(self.edges() + theirs) != list(combinations(range(1, n + 1), k)):
            yield self.text


#: The checks, in the order `_Visit` defines them and `run_all_sweeps` reports.
_CHECKS = tuple(name for name in vars(_Visit) if not name.startswith("_"))


def _walk(
    n_max: int,
    k_values: Iterable[int],
    *names: str,
    budget: int = DEFAULT_SEQUENCE_BUDGET,
) -> list[SweepResult]:
    results = [SweepResult(name) for name in names]
    for size in sweep_space(n_max, k_values, "sweeps", budget, False):
        seen: dict[tuple, str] = {}
        for s in size:
            v = _Visit(s, seen)
            for res in results:
                # two_route walks connected sequences only: the golden
                # verify digest and the benchmark's checker pin its count
                if s.connected or res.name != "two_route":
                    res.checked += 1
                    for failure in getattr(v, res.name)():
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


def run_all_sweeps(
    n_max: int, k_values: Iterable[int], *, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> list[SweepResult]:
    """All five sweeps in one walk, guarded up front by the sequence budget;
    the edge lists inside it keep `ThresholdHypergraph.edges`' default cap."""
    return _walk(n_max, k_values, *_CHECKS, budget=budget)
