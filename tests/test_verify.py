import pytest

from threshspec.errors import ResourceLimitError
from threshspec.sequences import format_binary
from threshspec.verify import (
    MAX_REPORTED,
    SweepResult,
    run_all_sweeps,
    sweep_adjacency_oracle,
    sweep_complement_partition,
    sweep_replaceability,
    sweep_two_route,
    sweep_uniqueness,
)


def test_sweep_result_truncates_failure_log():
    res = SweepResult("demo")
    assert res.passed
    for i in range(MAX_REPORTED + 3):
        res.record(f"failure {i}")
    assert not res.passed
    assert len(res.failures) == MAX_REPORTED + 1
    assert res.failures[-1] == "..."


def test_all_sweeps_pass_at_small_sizes():
    results = run_all_sweeps(6, [2, 3, 4])
    assert [r.name for r in results] == [
        "oracle_equivalence",
        "two_route",
        "uniqueness",
        "replaceability_totality",
        "complement_partition",
    ]
    for r in results:
        assert r.passed, (r.name, r.failures)
        assert r.checked > 0


def test_checked_counts_match_sequence_space():
    # four sweeps walk all valid sequences, the two-route sweep only
    # the connected ones
    all_count = sum(2 ** (n - 1) for n in range(1, 6))  # k=2, n_max=5
    res = sweep_adjacency_oracle(5, [2])
    assert res.checked == all_count
    assert sweep_uniqueness(5, [2]).checked == all_count
    assert sweep_replaceability(5, [2]).checked == all_count
    assert sweep_complement_partition(5, [2]).checked == all_count
    connected = sum(2 ** (n - 2) for n in range(2, 6))
    assert sweep_two_route(5, [2]).checked == connected


def test_budget_guard():
    with pytest.raises(ResourceLimitError):
        run_all_sweeps(30, [3], budget=1000)


def test_two_route_sweep_catches_a_wrong_profile(monkeypatch, capsys):
    # the direct pair count is the sweep's reference, so a profile that is
    # off by one in a block of twins must fail the sweep and the CLI
    import threshspec.verify as verify
    from threshspec.cli import main

    real = verify.block_profile

    def off_by_one(ss):
        profile = list(real(ss))
        for s, size in enumerate(ss.runs):
            if size >= 2:
                profile[s] += 1
                break
        return tuple(profile)

    monkeypatch.setattr(verify, "block_profile", off_by_one)
    res = sweep_two_route(6, [3])
    assert not res.passed
    assert "direct pair count" in res.failures[0]
    assert main(["verify", "--n-max", "6", "--k", "3"]) == 2
    out, err = capsys.readouterr()
    assert "sweep=two_route checked=15 failed=" in out
    assert out.splitlines()[-1] == "FAILED"


def test_replaceability_sweep_catches_a_missing_edge(monkeypatch, capsys):
    # the sweep reads replaceability off the explicit edge set, so an edge
    # set that lost one edge and with it the comparability of some pair
    # must fail the sweep and the CLI
    from test_hypergraph import edge_walk_totally_replaceable

    from threshspec.cli import main
    from threshspec.hypergraph import (
        DEFAULT_EDGE_CAP,
        GeneralHypergraph,
        ThresholdHypergraph,
    )

    real = ThresholdHypergraph.to_general
    broken = []

    def drop_an_edge(self, cap=DEFAULT_EDGE_CAP):
        g = real(self, cap)
        for e in g.sorted_edges():
            smaller = GeneralHypergraph(g.n, g.k, g.edges - {frozenset(e)})
            if not edge_walk_totally_replaceable(smaller):
                broken.append(self.sequence)
                return smaller
        return g

    monkeypatch.setattr(ThresholdHypergraph, "to_general", drop_an_edge)
    res = sweep_replaceability(6, [3])
    assert broken
    assert not res.passed
    assert res.failures[0] == format_binary(broken[0])
    assert main(["verify", "--n-max", "6", "--k", "3"]) == 2
    out, err = capsys.readouterr()
    assert "sweep=replaceability_totality checked=31 failed=" in out
    assert out.splitlines()[-1] == "FAILED"
