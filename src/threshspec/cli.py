"""Command-line interface.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 bad input, 2 a verification disagreed, 3 a resource budget (a size or
work cap, or an eigensolver's iteration cap) or the precision limit (an
exact count beyond 2**53) was hit, 141 the reader closed stdout before
all output was written (128 + SIGPIPE, the status of a tool SIGPIPE ends).
Identical invocations produce byte-identical output.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
from typing import TextIO

from .errors import (
    ConvergenceError,
    CountTooLargeError,
    ResourceLimitError,
    SequenceError,
)
from .hypergraph import DEFAULT_EDGE_CAP, ThresholdHypergraph
from .sequences import (
    ShortSequence,
    format_binary,
    format_short,
    parse_runs,
    parse_sequence,
    to_binary,
)
from .spectrum import (
    DEFAULT_SEQUENCE_BUDGET,
    Spectrum,
    check_dense_solve,
    family_sequence,
    family_spectrum_symbolic,
    full_spectrum_closed,
    full_spectrum_numeric,
    scan_quotient_simplicity,
)
from .verify import run_all_sweeps

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message: str) -> None:
        raise _UsageError(message)


def fmt(value: float) -> str:
    """12 significant digits, period decimal separator."""
    return format(float(value), ".12g")


def _json_number(value: float) -> float | None:
    """JSON has no infinity (RFC 8259): an infinite gap is written null."""
    return value if math.isfinite(value) else None


def _parse_k_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise SequenceError(f"bad uniformity list {text!r}") from exc
    if not values or any(k < 2 for k in values):
        raise SequenceError(f"uniformities must all be >= 2, got {text!r}")
    return values


def _spectrum_rows(spec: Spectrum) -> list[tuple[str, str, str]]:
    return [(fmt(p.value), str(p.multiplicity), p.source) for p in spec.pairs]


def _emit_spectrum(
    spec: Spectrum,
    ss: ShortSequence,
    output_format: str,
    out: TextIO,
    err: TextIO,
    verify_info: dict | None = None,
) -> None:
    if output_format == "structured":
        doc = {
            "n": ss.n,
            "k": ss.k,
            "sequence": format_binary(to_binary(ss)),
            "short": format_short(ss),
            "pairs": [
                {"value": p.value, "multiplicity": p.multiplicity, "source": p.source}
                for p in spec.pairs
            ],
            "distinct_count": spec.distinct_count,
            "merge_tol": spec.merge_tol,
        }
        if verify_info is not None:
            doc["verify"] = verify_info
        print(json.dumps(doc, indent=2), file=out)
        return
    if output_format == "text":
        for value, mult, source in _spectrum_rows(spec):
            print(f"lambda={value} mult={mult} source={source}", file=out)
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["lambda", "mult", "source"])
        writer.writerows(_spectrum_rows(spec))
    if verify_info is not None:
        status = "ok" if verify_info["ok"] else "mismatch"
        print(
            f"max_dev={fmt(verify_info['max_dev'])} "
            f"tol={fmt(verify_info['tol'])} status={status}",
            file=out if output_format == "text" else err,
        )


def cmd_spectrum(args, out: TextIO, err: TextIO) -> int:
    # short-form text is never expanded to bits unless --verify or the
    # structured output needs them
    ss = parse_runs(args.sequence)
    spec = full_spectrum_closed(ss, args.merge_tol)
    verify_info = None
    code = EXIT_OK
    if args.verify:
        # unclustered dense eigenvalues: clustering would average distinct
        # values; deviations are relative to max(1, |A|_F), |A|_F exact
        check_dense_solve(ss.n)
        h = ThresholdHypergraph(to_binary(ss))
        mat = h.adjacency()
        dense = full_spectrum_numeric(h, cluster_tol=0.0, adjacency=mat)
        scale = max(1.0, math.sqrt(mat.frobenius_sq()))
        deviations = [
            abs(x - y) for x, y in zip(spec.expanded(), dense.expanded())
        ]
        max_dev = max(deviations, default=0.0) / scale
        ok = max_dev <= args.tol
        verify_info = {"max_dev": max_dev, "tol": args.tol, "ok": ok}
        if not ok:
            code = EXIT_DISAGREE
    _emit_spectrum(spec, ss, args.format, out, err, verify_info)
    return code


def cmd_edges(args, out: TextIO, err: TextIO) -> int:
    h = ThresholdHypergraph(parse_sequence(args.sequence))
    edges = h.edges(args.edge_cap)
    if args.format == "structured":
        doc = {
            "n": h.n,
            "k": h.k,
            "sequence": format_binary(h.sequence),
            "edges": [list(e) for e in edges],
        }
        print(json.dumps(doc, indent=2), file=out)
    else:
        for e in edges:
            print(",".join(str(v) for v in e), file=out)
    return EXIT_OK


def cmd_adjacency(args, out: TextIO, err: TextIO) -> int:
    h = ThresholdHypergraph(parse_sequence(args.sequence))
    mat = h.adjacency()
    if args.format == "structured":
        doc = {
            "n": h.n,
            "k": h.k,
            "sequence": format_binary(h.sequence),
            "entries": [list(row) for row in mat.entries],
        }
        print(json.dumps(doc, indent=2), file=out)
    else:
        for line in mat.csv_lines():
            print(line, file=out)
    return EXIT_OK


def cmd_verify(args, out: TextIO, err: TextIO) -> int:
    results = run_all_sweeps(
        args.n_max, _parse_k_list(args.k), args.edge_cap, args.budget
    )
    all_ok = all(r.passed for r in results)
    if args.format == "structured":
        doc = {
            "sweeps": [
                {"name": r.name, "checked": r.checked, "failed": len(r.failures)}
                for r in results
            ],
            "ok": all_ok,
        }
        print(json.dumps(doc, indent=2), file=out)
    else:
        for r in results:
            print(
                f"sweep={r.name} checked={r.checked} failed={len(r.failures)}",
                file=out,
            )
        print("all checks passed" if all_ok else "FAILED", file=out)
    for r in results:
        for f in r.failures:
            print(f"{r.name}: {f}", file=err)
    return EXIT_OK if all_ok else EXIT_DISAGREE


def cmd_family(args, out: TextIO, err: TextIO) -> int:
    ss = family_sequence(args.family, args.n, args.k, args.j)
    spec = family_spectrum_symbolic(args.family, args.n, args.k, args.j, args.merge_tol)
    if args.format != "structured":
        stream = out if args.format == "text" else err
        print(f"short={format_short(ss)}", file=stream)
        print(f"sequence={format_binary(to_binary(ss))}", file=stream)
    _emit_spectrum(spec, ss, args.format, out, err)
    return EXIT_OK


def cmd_scan(args, out: TextIO, err: TextIO) -> int:
    rows = scan_quotient_simplicity(
        args.n_max, _parse_k_list(args.k), args.tol, args.budget
    )
    flagged = sum(1 for row in rows if row.flagged)
    min_gap = min((row.min_quotient_gap for row in rows), default=float("inf"))
    if args.format == "structured":
        doc = {
            "rows": [
                {
                    "sequence": row.sequence,
                    "n": row.n,
                    "k": row.k,
                    "r": row.r,
                    "min_quotient_gap": _json_number(row.min_quotient_gap),
                    "flagged": row.flagged,
                }
                for row in rows
            ],
            "sequences": len(rows),
            "flagged": flagged,
            "min_gap": _json_number(min_gap),
        }
        print(json.dumps(doc, indent=2), file=out)
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["sequence", "n", "k", "r", "min_quotient_gap", "flagged"])
        for row in rows:
            writer.writerow(
                [
                    row.sequence,
                    row.n,
                    row.k,
                    row.r,
                    fmt(row.min_quotient_gap),
                    int(row.flagged),
                ]
            )
    print(
        f"sequences={len(rows)} flagged={flagged} min_gap={fmt(min_gap)}",
        file=err,
    )
    return EXIT_OK


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _add_format(parser: _Parser, *choices: str) -> None:
    """`--format` over the formats a subcommand writes, the first the default."""
    parser.add_argument("--format", choices=choices, default=choices[0])


def build_parser() -> _Parser:
    output = _Parser(add_help=False)
    _add_format(output, "text", "csv", "structured")
    merging = _Parser(add_help=False)
    merging.add_argument("--merge-tol", type=_positive_float, default=1e-9)
    capping = _Parser(add_help=False)
    capping.add_argument("--edge-cap", type=_positive_int, default=DEFAULT_EDGE_CAP)

    parser = _Parser(prog="threshspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "spectrum", parents=[output, merging], help="closed-form spectrum"
    )
    p.add_argument("sequence")
    p.add_argument(
        "--verify",
        action="store_true",
        help="compare with the eigenvalues of the dense matrix (exit 2 on mismatch)",
    )
    p.add_argument(
        "--tol",
        type=_positive_float,
        default=1e-8,
        help="--verify tolerance on max_dev, the largest deviation divided by "
        "max(1, |A|_F) (default 1e-8)",
    )
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("edges", parents=[output, capping], help="edge list")
    p.add_argument("sequence")
    p.set_defaults(handler=cmd_edges)

    p = sub.add_parser("adjacency", parents=[output], help="pair-count matrix")
    p.add_argument("sequence")
    p.set_defaults(handler=cmd_adjacency)

    p = sub.add_parser("verify", parents=[capping], help="exhaustive sweeps")
    _add_format(p, "text", "structured")
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_SEQUENCE_BUDGET)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("family", parents=[output, merging], help="catalogued families")
    p.add_argument("family", type=int, choices=(1, 2, 3))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, default=None)
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("scan", help="quotient gap report")
    _add_format(p, "csv", "structured")
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_SEQUENCE_BUDGET)
    p.set_defaults(handler=cmd_scan)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first call rather than at import: each
    build costs about a millisecond, more than a small `spectrum` call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.handler(args, sys.stdout, sys.stderr)
        sys.stdout.flush()  # a closed pipe shows here when the output is short
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CountTooLargeError as exc:
        print(f"error: precision limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SequenceError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceLimitError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
