"""Tests of the benchmark itself: its definition-level checks against the
package's oracles, its inputs against the package's parser, and its metric
names against BENCHMARK.json.

    python3 -m pytest perfbench
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from threshspec import (  # noqa: E402
    ThresholdHypergraph,
    adjacency_bruteforce,
    count_valid_sequences,
    iter_valid_sequences,
    parse_sequence,
    to_short,
)
from threshspec.cli import main as cli_main  # noqa: E402


def test_frobenius_matches_bruteforce_recount():
    for k in (2, 3, 4, 6):
        for n in range(k - 1, 10):
            for s in iter_valid_sequences(n, k):
                h = ThresholdHypergraph(s)
                expected = adjacency_bruteforce(h).frobenius_sq()
                assert workloads.frobenius_sq(k, s.bits) == expected, s


def test_run_count_matches_short_form():
    for k in (2, 3, 6):
        for s in iter_valid_sequences(9, k, connected_only=True):
            assert workloads.run_count(k, s.bits) == to_short(s).r, s


def test_sequence_count_matches_package():
    for n_max, ks in itertools.product((8, 10, 13), workloads.VERIFY_K_SETS):
        for connected in (False, True):
            assert workloads.sequence_count(n_max, ks, connected) == (
                count_valid_sequences(n_max, ks, connected)
            )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_text_parses_to_the_checked_bits(workload):
    ops = itertools.islice(workloads.generate(workload, seed=7), 60)
    for op in ops:
        if op.bits:
            assert parse_sequence(op.argv[1]).bits == op.bits
            assert op.bits[-1] == 1 and not any(op.bits[: op.k_values[0] - 1])


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a = list(itertools.islice(workloads.generate(workload, 3), 20))
        b = list(itertools.islice(workloads.generate(workload, 3), 20))
        c = list(itertools.islice(workloads.generate(workload, 4), 20))
        assert a == b and a != c


def test_checks_mix_is_one_third_each():
    ops = list(itertools.islice(workloads.generate("checks", 1), 90))
    kinds = [op.kind for op in ops]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "verify": 30,
        "scan": 30,
        "spectrum_verify": 30,
    }


def _run_cli(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_checks_accept_program_output(capsys):
    bits = (0, 0, 1, 0, 1, 1, 0, 1)
    op = workloads.Op("spectrum_verify", ("spectrum", "k=3;0,0,1,0,1,1,0,1", "--verify"), (3,), 8, bits)
    assert workloads.check(op, *_run_cli(list(op.argv), capsys)) == workloads.Outcome()
    op = workloads.Op("verify", ("verify", "--n-max", "6", "--k", "2,4"), (2, 4), 6)
    outcome = workloads.check(op, *_run_cli(list(op.argv), capsys))
    assert outcome.wrong is None and outcome.refused is None
    op = workloads.Op("scan", ("scan", "--n-max", "7", "--k", "3"), (3,), 7)
    outcome = workloads.check(op, *_run_cli(list(op.argv), capsys))
    assert (outcome.wrong, outcome.sequences) == (None, 31)


def test_checks_reject_wrong_output(capsys):
    op = workloads.Op("spectrum", ("spectrum", "k=3;0,0,1,0,1"), (3,), 5, (0, 0, 1, 0, 1))
    code, out, err = _run_cli(list(op.argv), capsys)
    first, rest = out.split("\n", 1)
    value = float(first.split()[0].split("=")[1])
    shifted = first.replace(first.split()[0], f"lambda={value * (1 + 1e-6)!r}")
    assert workloads.check(op, code, shifted + "\n" + rest, err).wrong
    assert workloads.check(op, code, rest, err).wrong  # one eigenvalue lost
    assert workloads.check(op, 2, out, err).refused
    op = workloads.Op("scan", ("scan", "--n-max", "7", "--k", "3"), (3,), 7)
    code, out, err = _run_cli(list(op.argv), capsys)
    assert workloads.check(op, code, out.rsplit("\n", 2)[0], err).wrong


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_reported_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "many_runs",
         "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_length_is_fixed_whole_rounds(workload):
    ops = workloads.operations(workload, seed=5, seconds=30)
    assert len(ops) % workloads.ROUND_SIZE[workload] == 0
    assert ops == workloads.operations(workload, seed=5, seconds=30)
    assert len(workloads.operations(workload, seed=5, seconds=0.01)) == (
        workloads.ROUND_SIZE[workload]
    )


def test_many_runs_run_counts_do_not_depend_on_the_seed():
    def run_counts(seed):
        ops = workloads.operations("many_runs", seed, seconds=30)
        return sorted(workloads.run_count(op.k_values[0], op.bits) for op in ops)

    counts = run_counts(1)
    # the boundaries move, so r may differ by the merged head, never more
    assert all(abs(a - b) <= 1 for a, b in zip(counts, run_counts(2)))
    assert 0.45 < sum(counts) / len(counts) / workloads.MANY_RUNS_N < 0.55


def test_transition_quantile_matches_uniform_bits():
    m = 9
    changes = sorted(
        sum(a != b for a, b in zip((0,) + middle + (1,), middle + (1,)))
        for middle in itertools.product((0, 1), repeat=m - 1)
    )
    for level in (0.01, 0.3, 0.5, 0.77, 1.0):
        expected = next(
            t for t in changes if sum(c <= t for c in changes) >= level * len(changes)
        )
        assert workloads.transition_quantile(m, level) == expected
