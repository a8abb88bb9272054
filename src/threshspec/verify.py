"""Exhaustive verification sweeps over small creation sequences.

Each sweep walks every valid sequence up to a size bound and checks one
identity whose two sides are computed by unrelated code paths.  The CLI
`verify` command runs all of them; the test-suite calls them directly at
the bounds it pins.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .errors import ResourceLimitError
from .hypergraph import ThresholdHypergraph, adjacency_bruteforce
from .sequences import (
    BinarySequence,
    complement_sequence,
    count_valid_sequences,
    format_binary,
    iter_valid_sequences,
    to_short,
)
from .spectrum import DEFAULT_SEQUENCE_BUDGET, block_eigenvalues, block_profile

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


def _sequences(
    n_max: int, k_values: Iterable[int], connected_only: bool = False
) -> Iterator[BinarySequence]:
    for k in sorted(set(k_values)):
        for n in range(k - 1, n_max + 1):
            yield from iter_valid_sequences(n, k, connected_only)


def sweep_adjacency_oracle(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Closed-form adjacency equals the edge-list recount, entry for entry."""
    res = SweepResult("oracle_equivalence")
    for s in _sequences(n_max, k_values):
        h = ThresholdHypergraph(s)
        res.checked += 1
        if h.adjacency() != adjacency_bruteforce(h):
            res.record(format_binary(s))
    return res


def sweep_two_route(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Block eigenvalues agree with direct pair counts on connected sequences.

    This is where the two routes meet: each block eigenvalue -gamma_s, from
    `block_profile`, must equal minus `pair_count` of the block's
    first two vertices, an independent direct sum.  The sweep also confirms
    the block eigenvalue count is n - r.
    """
    res = SweepResult("two_route")
    for s in _sequences(n_max, k_values, connected_only=True):
        ss = to_short(s)
        h = ThresholdHypergraph(s)
        res.checked += 1
        try:
            values = block_eigenvalues(block_profile(ss))
        except RuntimeError as exc:
            res.record(f"{format_binary(s)}: {exc}")
            continue
        for b in values:
            first = ss.prefix_sum(b.block_index - 1) + 1
            direct = -h.pair_count(first, first + 1)
            if b.value != direct:
                res.record(
                    f"{format_binary(s)}: block {b.block_index} gives "
                    f"{b.value} but the direct pair count gives {direct}"
                )
        if sum(b.multiplicity_lower_bound for b in values) != s.n - ss.r:
            res.record(f"{format_binary(s)}: block multiplicities missed n-r")
    return res


def sweep_uniqueness(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Distinct sequences of the same size give distinct adjacency matrices."""
    res = SweepResult("uniqueness")
    for k in sorted(set(k_values)):
        for n in range(k - 1, n_max + 1):
            seen: dict[tuple, str] = {}
            for s in iter_valid_sequences(n, k):
                res.checked += 1
                key = ThresholdHypergraph(s).adjacency().entries
                text = format_binary(s)
                if key in seen:
                    res.record(f"{seen[key]} collides with {text}")
                else:
                    seen[key] = text
    return res


def sweep_replaceability(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """Every vertex pair of a sequence hypergraph is replaceability-comparable."""
    res = SweepResult("replaceability_totality")
    for s in _sequences(n_max, k_values):
        res.checked += 1
        g = ThresholdHypergraph(s).to_general()
        if not g.is_totally_replaceable():
            res.record(format_binary(s))
    return res


def sweep_complement_partition(n_max: int, k_values: Iterable[int]) -> SweepResult:
    """A hypergraph and its complement split the k-subsets exactly.

    Both edge lists hold distinct sorted tuples, so they split the
    k-subsets exactly when their merged sort lists each k-subset once.
    """
    res = SweepResult("complement_partition")
    for s in _sequences(n_max, k_values):
        res.checked += 1
        ours = ThresholdHypergraph(s).edges()
        theirs = ThresholdHypergraph(complement_sequence(s)).edges()
        if sorted(ours + theirs) != list(combinations(range(1, s.n + 1), s.k)):
            res.record(format_binary(s))
    return res


def run_all_sweeps(
    n_max: int, k_values: Iterable[int], *, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> list[SweepResult]:
    """All five sweeps, guarded up front by the sequence budget; the edge
    lists inside them keep `ThresholdHypergraph.edges`' default cap."""
    k_set = sorted(set(k_values))
    total = count_valid_sequences(n_max, k_set)
    if total > budget:
        raise ResourceLimitError(
            f"sweeps would visit {total} sequences, over the budget of {budget}"
        )
    return [
        sweep_adjacency_oracle(n_max, k_set),
        sweep_two_route(n_max, k_set),
        sweep_uniqueness(n_max, k_set),
        sweep_replaceability(n_max, k_set),
        sweep_complement_partition(n_max, k_set),
    ]
