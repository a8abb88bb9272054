"""Smoke run of the benchmark in `perfbench/`: its output shape and its
independent `math.comb` checks of the spectra, with no timing gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["few_runs", "many_runs"])
def test_benchmark_run_is_correct(workload):
    # 0.1 s is one round: few_runs then visits every (k, r) pair once
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0.1",
            "--trace",
            "0",
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
    for name in ("latency_p50_ms", "setup_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0
