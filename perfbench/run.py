"""Closed-loop benchmark of the threshspec command line.

    python3 perfbench/run.py --workload many_runs --seed 1 --seconds 30 --trace 0

One client in one process calls `threshspec.cli.main(argv)` with stdout
and stderr captured, sends the next operation only after the previous one
returns, and checks every output against the definition (workloads.py).
The operations of a run are fixed by `--seed` and `--seconds`: about as
many as take `--seconds` at reference speed.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the first half of the run is replayed under the tracer
(tracer.py) and the line holds the per-layer metrics, per operation.
Times and rates are given at reference speed (see `REF_SECONDS`); the raw
values are in the run record, the line before the result.  README.md
lists the metrics.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_REPORTED = 5

#: Reference-kernel time that defines "reference speed".  A machine shared
#: with other tenants changes speed by tens of percent within minutes, and
#: that swamps a single run.  The kernel is timed before every operation,
#: and each operation's time is multiplied by REF_SECONDS / (median kernel
#: time over the operation and its `NEIGHBOURS` on each side).
REF_SECONDS = 0.010
NEIGHBOURS = 3

#: A run's operations are fixed in advance (`workloads.operations`); it is
#: cut short only when it takes this many times its nominal length, or
#: `MAX_SECONDS`, so that it still ends within three minutes.
SLOWDOWN_LIMIT = 2.5
MAX_SECONDS = 75.0

#: Operations between two timed fresh imports of the package.
SETUP_EVERY = 6

_TABLE = tuple(range(1 << 15))
_MATRIX = tuple(
    tuple(1.0 / (1 + abs(i - j)) + i * j % 5 for j in range(20)) for i in range(20)
)


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the program's: integer
    arithmetic, scattered table reads, a set of tuples and a dict, two
    Jacobi sweeps on a float matrix, a pair-count table of tuples and a set
    of frozensets.  Each shape feels a busy neighbour differently, and the
    mix tracks all three workloads better than any one shape."""
    total = 0
    for i in range(25_000):
        total += i * i % 7
    j = 0
    for _ in range(10_000):
        j = (j * 1103515245 + 12345) & 0x7FFF
        total += _TABLE[j] % 7
    counts: dict[int, int] = {}
    for a, b in {(i % 997, i % 991) for i in range(1_000)}:
        counts[a] = counts.get(a, 0) + b
    m = [list(row) for row in _MATRIX]
    n = len(m)
    for _ in range(2):
        for p in range(n - 1):
            for q in range(p + 1, n):
                tau = (m[q][q] - m[p][p]) / (2.0 * m[p][q])
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for i in range(n):
                    mip, miq = m[i][p], m[i][q]
                    m[i][p] = m[p][i] = c * mip - s * miq
                    m[i][q] = m[q][i] = s * mip + c * miq
    rows = [[0] * 105 for _ in range(105)]
    for col in range(1, 105):
        for row in range(col):
            rows[row][col] = rows[col][row] = math.comb(col + 20, 3)
    table = tuple(tuple(row) for row in rows)
    edges = {frozenset((i, i * 7 % 97, i * 13 % 89)) for i in range(750)}
    return total + len(counts) + len(table) + len(edges) + int(m[0][0])


def local_factors(refs: list[float]) -> list[float]:
    """Per-operation factor from measured speed to reference speed."""
    return [
        REF_SECONDS / statistics.median(refs[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1])
        for i in range(len(refs))
    ]


def fresh_import():
    """Import the package from scratch, as a new CLI process would, and
    time the import.  Earlier copies are dropped and their reference cycles
    collected first, so peak memory does not depend on when the collector
    last ran."""
    for name in [m for m in sys.modules if m.split(".")[0] == "threshspec"]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    cli = importlib.import_module("threshspec.cli")
    return cli, time.perf_counter() - start


def first_import():
    """Import threshspec from `src/` of the checkout, or stop the run."""
    sys.path.insert(0, str(SRC))
    try:
        cli, _ = fresh_import()
    except ImportError as exc:
        raise SystemExit(f"error: cannot import threshspec from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: threshspec comes from {cli.__file__}, not {SRC}")
    return cli


def time_limit(seconds: float) -> float:
    return min(SLOWDOWN_LIMIT * seconds, MAX_SECONDS)


def call(main, op) -> tuple[float, int | str, str, str]:
    """Run one operation; the timed span covers the call alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(op.argv))
        except Exception as exc:  # a crash is a failed operation, not the end
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Loop:
    """Closed-loop client: runs operations, times and checks each one."""

    def __init__(self) -> None:
        self.ops: list = []
        self.refs: list[float] = []  # reference-kernel time before each op
        self.setups: list[tuple[int, float]] = []  # (op index, import time)
        self.latencies: list[float] = []
        self.sequences: list[int] = []
        self.output_bytes = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.refused: list[str] = []

    def run(self, main, op) -> None:
        elapsed, code, out, err = call(main, op)
        self.ops.append(op)
        self.latencies.append(elapsed)
        self.output_bytes += len(out.encode()) + len(err.encode())
        if isinstance(code, str):
            outcome = workloads.Outcome(wrong=code)
        else:
            try:
                outcome = workloads.check(op, code, out, err)
            except (ValueError, KeyError) as exc:
                outcome = workloads.Outcome(wrong=f"unreadable output: {exc}")
        self.sequences.append(outcome.sequences)
        for problem, log in ((outcome.wrong, self.wrong), (outcome.refused, self.refused)):
            if problem is not None and len(log) < MAX_REPORTED:
                log.append(f"{' '.join(op.argv)[:120]}: {problem}")
        self.failed += outcome.wrong is not None or outcome.refused is not None


def end_to_end(loop: Loop, factors: list[float]) -> dict:
    """End-to-end metrics with each operation's time scaled by its factor
    (all ones for the raw values)."""
    lat = [t * f for t, f in zip(loop.latencies, factors)]
    setup = [t * factors[i] for i, t in loop.setups]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    sweeps = [i for i, op in enumerate(loop.ops) if op.kind in ("verify", "scan")]
    counted = sweeps or range(len(lat))  # spectrum-only: one sequence each
    return {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "throughput_ops_per_s": (len(lat) / sum(lat), "1/s"),
        "sweep_seq_per_s": (
            sum(loop.sequences[i] for i in counted) / sum(lat[i] for i in counted),
            "1/s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }


def per_layer(tracer: Tracer, traced: Loop, untraced: Loop, factor: float) -> dict:
    """Per-operation layer totals, times scaled by `factor`.  The overhead
    compares the two passes over the same operations, each rescaled by its
    own kernel samples, so a change of machine speed between the passes
    does not show as overhead."""
    ops = len(traced.ops)
    traced_total = sum(traced.latencies)
    overhead = (traced_total / statistics.median(traced.refs)) / (
        sum(untraced.latencies) / statistics.median(untraced.refs)
    ) - 1
    metrics = {}
    for name in sorted(tracer.present):
        if name.endswith("_s"):
            metrics[name] = (tracer.totals.get(name, 0.0) * factor / ops, "s/op")
        else:
            metrics[name] = (tracer.totals.get(name, 0.0) / ops, "count/op")
    metrics["cli.output_bytes"] = (traced.output_bytes / ops, "B/op")
    metrics["trace.op_s"] = (traced_total * factor / ops, "s/op")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def record(args, loops: list[Loop], raw: dict) -> dict:
    """Run record: machine, commit, the measured shape of the workload and
    the metrics before rescaling.  A traced run replays its untraced half,
    so the shape is the last loop's; failures are counted over every loop."""
    ops = loops[-1].ops
    spectra = [op for op in ops if op.bits]
    r_over_n = [workloads.run_count(op.k_values[0], op.bits) / op.n for op in spectra]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "operations": len(ops),
        "op_mix": dict(Counter(op.kind for op in ops)),
        "n": {
            kind: sorted({op.n for op in ops if op.kind == kind})
            for kind in sorted({op.kind for op in ops})
        },
        "k_mix": dict(Counter(",".join(map(str, op.k_values)) for op in ops)),
        "mean_r_over_n": statistics.fmean(r_over_n) if r_over_n else None,
        "error_rate": sum(loop.failed for loop in loops)
        / sum(len(loop.ops) for loop in loops),
        "setup_samples_s": [t for loop in loops for _, t in loop.setups],
        "reference_samples_s": [t for loop in loops for t in loop.refs],
        "latency_samples_s": [t for loop in loops for t in loop.latencies],
        "raw_metrics": {name: value for name, (value, _) in raw.items()},
        "wrong_answers": [w for loop in loops for w in loop.wrong],
        "refusals": [r for loop in loops for r in loop.refused],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def drive(main, ops, limit: float, setups: bool) -> Loop:
    """Run the operations `ops` in order.

    The reference kernel is timed before every operation.  With `setups`,
    the package is also imported afresh and the import timed before every
    `SETUP_EVERY` operations, so set-up is sampled across the run.
    The run stops early only after `limit` seconds of wall time, a guard
    for a machine far slower than the one `OPS_PER_SECOND` was set on.
    """
    loop = Loop()
    deadline = time.perf_counter() + limit
    for i, op in enumerate(ops):
        if setups and i % SETUP_EVERY == 0:
            cli, elapsed = fresh_import()
            main = cli.main
            loop.setups.append((i, elapsed))
        start = time.perf_counter()
        reference_kernel()
        loop.refs.append(time.perf_counter() - start)
        loop.run(main, op)
        if time.perf_counter() >= deadline:
            break
    return loop


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = first_import()
    if args.trace:
        ops = workloads.operations(args.workload, args.seed, args.seconds / 2)
        limit = time_limit(args.seconds / 2)
        untraced = drive(cli.main, ops, limit, setups=False)
        tracer = Tracer()
        tracer.install()
        root = tracer.wrap(cli.main, "cli.self_s")
        tracer.present.add("cli.self_s")
        traced = drive(root, untraced.ops, math.inf, setups=False)
        loops = [untraced, traced]
        raw = per_layer(tracer, traced, untraced, 1.0)
        factor = REF_SECONDS / statistics.median(traced.refs)
        metrics = per_layer(tracer, traced, untraced, factor)
    else:
        ops = workloads.operations(args.workload, args.seed, args.seconds)
        loop = drive(cli.main, ops, time_limit(args.seconds), setups=True)
        loops = [loop]
        raw = end_to_end(loop, [1.0] * len(loop.ops))
        metrics = end_to_end(loop, local_factors(loop.refs))
    print("record " + json.dumps(record(args, loops, raw)))
    result = {
        "correct": not any(loop.wrong for loop in loops),
        "attempted": sum(len(loop.ops) for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
