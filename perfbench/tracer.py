"""Outside-in span tracer for the traced run.

The tracer wraps public functions of the threshspec package by replacing
attributes: a module-level function is replaced in every threshspec module
that holds it (so `spectrum.to_short` and `verify.to_short` are both
caught), a method is replaced on its class.  Spans nest on one stack; when
a span closes, its duration minus the time of its traced children is added
to its metric, so the self times of one operation add up to its wall time.
A target missing from the package is skipped and its metrics are absent.
"""

import sys
import time
from collections import defaultdict

PACKAGE = "threshspec"
NUMERIC = "spectrum.numeric_self_s"


def _jacobi_metric(stack) -> str:
    """Jacobi under the dense numeric route, or on a quotient."""
    if any(frame[0] == NUMERIC for frame in stack):
        return "spectrum.jacobi_dense_s"
    return "spectrum.jacobi_quotient_s"


def _count_jacobi(counts, metric, args, result) -> None:
    prefix = metric[: -len("_s")]
    if metric == "spectrum.jacobi_quotient_s":
        counts[prefix + "_calls"] += 1
    counts[prefix + "_dim_sum"] += len(args[0])


def _count_adjacency(counts, metric, args, result) -> None:
    counts["hypergraph.adjacency_calls"] += 1
    counts["hypergraph.adjacency_cells"] += args[0].n ** 2


def _counter(name, of_result=None):
    """Count calls, or a number read off each call's result."""

    def count(counts, metric, args, result):
        counts[name] += 1 if of_result is None else of_result(result)

    return count


def _sweep(function, sweep):
    checked = _counter("verify.sequences_checked", lambda res: res.checked)
    return (
        "verify",
        function,
        f"verify.{sweep}_s",
        checked,
        (f"verify.{sweep}_s", "verify.sequences_checked"),
    )


#: (module, attribute, time metric or a function of the open spans that
#: names it, counter, metrics the target yields).  A target without a time
#: metric only counts, and its time stays with its caller.
TARGETS = (
    ("sequences", "parse_sequence", "sequences.parse_s", None, ("sequences.parse_s",)),
    ("sequences", "to_short", "sequences.convert_s", None, ("sequences.convert_s",)),
    ("sequences", "to_binary", "sequences.convert_s", None, ("sequences.convert_s",)),
    (
        "hypergraph",
        "ThresholdHypergraph.adjacency",
        "hypergraph.adjacency_s",
        _count_adjacency,
        (
            "hypergraph.adjacency_s",
            "hypergraph.adjacency_calls",
            "hypergraph.adjacency_cells",
        ),
    ),
    (
        "hypergraph",
        "ThresholdHypergraph.pair_count",
        None,
        _counter("hypergraph.pair_count_calls"),
        ("hypergraph.pair_count_calls",),
    ),
    (
        "hypergraph",
        "ThresholdHypergraph.edges",
        "hypergraph.edges_s",
        _counter("hypergraph.edges_listed", len),
        ("hypergraph.edges_s", "hypergraph.edges_listed"),
    ),
    (
        "hypergraph",
        "adjacency_bruteforce",
        "hypergraph.bruteforce_s",
        None,
        ("hypergraph.bruteforce_s",),
    ),
    (
        "hypergraph",
        "GeneralHypergraph.replaceable",
        "hypergraph.replaceable_s",
        _counter("hypergraph.replaceable_calls"),
        ("hypergraph.replaceable_s", "hypergraph.replaceable_calls"),
    ),
    (
        "spectrum",
        "jacobi_eigenvalues",
        _jacobi_metric,
        _count_jacobi,
        (
            "spectrum.jacobi_quotient_s",
            "spectrum.jacobi_quotient_calls",
            "spectrum.jacobi_quotient_dim_sum",
            "spectrum.jacobi_dense_s",
            "spectrum.jacobi_dense_dim_sum",
        ),
    ),
    (
        "spectrum",
        "quotient_matrix",
        "spectrum.quotient_collapse_s",
        None,
        ("spectrum.quotient_collapse_s",),
    ),
    (
        "spectrum",
        "block_eigenvalues",
        "spectrum.block_eigenvalues_s",
        None,
        ("spectrum.block_eigenvalues_s",),
    ),
    (
        "spectrum",
        "symmetrize_quotient",
        "spectrum.symmetrize_s",
        None,
        ("spectrum.symmetrize_s",),
    ),
    (
        "spectrum",
        "full_spectrum_closed",
        "spectrum.closed_self_s",
        None,
        ("spectrum.closed_self_s",),
    ),
    ("spectrum", "full_spectrum_numeric", NUMERIC, None, (NUMERIC,)),
    (
        "spectrum",
        "scan_quotient_simplicity",
        "spectrum.scan_self_s",
        _counter("spectrum.scan_sequences", len),
        ("spectrum.scan_self_s", "spectrum.scan_sequences"),
    ),
    _sweep("sweep_adjacency_oracle", "oracle_equivalence"),
    _sweep("sweep_two_route", "two_route"),
    _sweep("sweep_uniqueness", "uniqueness"),
    _sweep("sweep_replaceability", "replaceability_totality"),
    _sweep("sweep_complement_partition", "complement_partition"),
)


class Tracer:
    """Self time and counts per metric, aggregated as spans close."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [metric, start, child seconds]
        self.totals: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()

    def wrap(self, function, metric, counter=None):
        """`function` inside a span named by `metric`, then `counter`."""
        stack, totals = self.stack, self.totals
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if metric is None:
                result = function(*args, **kwargs)
                counter(totals, None, args, result)
                return result
            name = metric(stack) if callable(metric) else metric
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[1]
                totals[name] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
            if counter is not None:
                counter(totals, name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target found in the imported package."""
        modules = [
            module
            for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module_name, attribute, metric, counter, yields in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            traced = self.wrap(original, metric, counter)
            if path:
                setattr(owner, leaf, traced)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)
            self.present.update(yields)
