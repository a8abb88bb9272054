"""Smoke run of the benchmark in `perfbench/`: its output shape and its
independent `math.comb` checks of the spectra, with no timing gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, seconds, trace):
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            seconds,
            "--trace",
            trace,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", ["few_runs", "many_runs"])
def test_benchmark_run_is_correct(workload):
    # 0.1 s is one round: few_runs then visits every (k, r) pair once
    metrics = _run(workload, "0.1", "0")
    for name in ("latency_p50_ms", "setup_s", "peak_rss_mb"):
        assert metrics[name]["value"] > 0


#: Layers that the checks workload reaches through the package's own calls.
#: A function the tracer still finds by name, but that the package no
#: longer calls through that name, would read 0 here.
TRACED_LAYERS = (
    "hypergraph.adjacency_s",
    "hypergraph.edges_s",
    "hypergraph.edges_listed",
    "hypergraph.pair_count_calls",
    "sequences.parse_s",
    "sequences.convert_s",
    "spectrum.block_eigenvalues_s",
    "spectrum.closed_self_s",
    "spectrum.numeric_self_s",
    "spectrum.scan_self_s",
    "spectrum.scan_sequences",
)


def test_traced_checks_reach_every_working_layer():
    # 2 s is one full round of nine operations per pass; a shorter run is
    # cut by its deadline after three
    metrics = _run("checks", "2", "1")
    assert [name for name in TRACED_LAYERS if not metrics[name]["value"] > 0] == []
