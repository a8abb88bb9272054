"""Command-line interface.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 bad input, 2 a verification disagreed, 3 a resource budget (a size or
work cap, or an eigensolver's iteration cap) or the precision limit (an
exact count beyond 2**53) was hit, 141 the reader closed stdout before
all output was written (128 + SIGPIPE, the status of a tool SIGPIPE ends).
Identical invocations produce byte-identical output.

Every command reads its sequence to the run-length form and calls the
library, which checks each size cap and the precision limit on the runs
before any bit or matrix is built; the CLI holds no guard of its own.
Integers on the command line may have any number of digits.  No option
sets a tolerance or raises a cap: the closed route reports values within
1e-9 once, `spectrum --verify` fails when the largest deviation from the
dense route, divided by max(1, |A|_F), is over 1e-8, `scan` flags a
quotient gap under 1e-9, `edges` lists at most 10**7 edges, and `verify`
and `scan` visit at most 100,000 sequences.

A call whose first argument names a subcommand, followed by that
subcommand's arguments in their plain form, is read from the table in
`SUBCOMMANDS` without argparse (`_read`).  Any other call (help, an
abbreviation, `--opt=value`, a usage error) is read by the top-level
argparse parser of all six, built from the same table (`_parser`), so
help and usage errors are argparse's own.  `-h` prints this docstring
but for this last paragraph.
"""

import functools
import math
import os
import sys
from io import TextIOBase
from itertools import islice
from types import SimpleNamespace

from .combinatorics import read_decimal
from .errors import (
    ConvergenceError,
    CountTooLargeError,
    ResourceLimitError,
    SequenceError,
)
from .hypergraph import ThresholdHypergraph, block_profile
from .sequences import ShortSequence, format_bits, format_short, parse_runs
from .spectrum import (
    MERGE_TOL,
    Spectrum,
    family_sequence,
    family_spectrum_symbolic,
    full_spectrum_closed,
    scan_quotient_simplicity,
)
from .verify import run_all_sweeps

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141

#: `spectrum --verify` fails when max_dev, the largest deviation of the
#: two routes divided by max(1, |A|_F), is over this.
VERIFY_TOL = 1e-8


class _UsageError(Exception):
    pass


def fmt(value: float) -> str:
    """12 significant digits, period decimal separator."""
    return format(float(value), ".12g")


def _json_number(value: float) -> float | None:
    """JSON has no infinity (RFC 8259): an infinite gap is written null."""
    return value if math.isfinite(value) else None


#: Encoded JSON pieces per write: one write a piece (`json.dump`) takes
#: nearly twice as long; one for the whole text (`json.dumps`) holds it all.
_JSON_BATCH = 8192

#: Longest piece joined into a batch, and the size of the slices a longer
#: one is written in: the `sequence` field has 2n - 1 characters.
_JSON_SLICE = 1 << 16


def _write_json(doc, out: TextIOBase) -> None:
    """`doc` as JSON indented by 2 and a newline, written in batches as it
    is encoded; no piece is empty, so an empty batch ends the pieces.  A
    batch with a piece over `_JSON_SLICE` characters is written piece by
    piece, each in slices, so that no copy of a long piece is made whole."""
    import json

    pieces = json.JSONEncoder(indent=2).iterencode(doc)
    while batch := list(islice(pieces, _JSON_BATCH)):
        if max(map(len, batch)) <= _JSON_SLICE:
            out.write("".join(batch))
            continue
        for piece in batch:
            for start in range(0, len(piece), _JSON_SLICE):
                out.write(piece[start : start + _JSON_SLICE])
    out.write("\n")


def _parse_k_list(text: str) -> list[int]:
    try:
        values = [read_decimal(p) for p in text.split(",") if p.strip() != ""]
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
    out: TextIOBase,
    err: TextIOBase,
    verify_info: dict | None = None,
) -> None:
    if output_format == "structured":
        doc = {
            "n": ss.n,
            "k": ss.k,
            "sequence": format_bits(ss),
            # the parity rule reads short-form text as connected only
            "short": format_short(ss) if ss.connected else None,
            "pairs": [
                {"value": p.value, "multiplicity": p.multiplicity, "source": p.source}
                for p in spec.pairs
            ],
            "distinct_count": spec.distinct_count,
            "merge_tol": MERGE_TOL,
        }
        if verify_info is not None:
            doc["verify"] = verify_info
        _write_json(doc, out)
        return
    if output_format == "text":
        out.writelines(
            f"lambda={value} mult={mult} source={source}\n"
            for value, mult, source in _spectrum_rows(spec)
        )
    else:
        import csv

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


def cmd_spectrum(args, out: TextIOBase, err: TextIOBase) -> int:
    # short-form text is never expanded to bits, --verify included
    ss = parse_runs(args.sequence)
    spec = full_spectrum_closed(ss)
    verify_info = None
    code = EXIT_OK
    if args.verify:
        # deviations are relative to max(1, |A|_F), |A|_F exact; only a
        # call that runs the dense oracle imports it
        from .oracle import full_spectrum_numeric

        dense = full_spectrum_numeric(ThresholdHypergraph(ss))
        scale = max(1.0, math.sqrt(block_profile(ss).frobenius_sq))
        deviations = [
            abs(x - y) for x, y in zip(spec.expanded(), dense.expanded())
        ]
        max_dev = max(deviations, default=0.0) / scale
        ok = max_dev <= VERIFY_TOL
        verify_info = {"max_dev": max_dev, "tol": VERIFY_TOL, "ok": ok}
        if not ok:
            code = EXIT_DISAGREE
    _emit_spectrum(spec, ss, args.format, out, err, verify_info)
    return code


def _emit_rows(h, key: str, rows, output_format: str, out: TextIOBase) -> int:
    """Rows of integers as comma-separated lines, or as `key` of a
    structured document."""
    if output_format == "structured":
        doc = {"n": h.n, "k": h.k, "sequence": format_bits(h.runs), key: rows}
        _write_json(doc, out)
    else:
        out.writelines(",".join(map(str, row)) + "\n" for row in rows)
    return EXIT_OK


def cmd_edges(args, out: TextIOBase, err: TextIOBase) -> int:
    h = ThresholdHypergraph.from_text(args.sequence)
    return _emit_rows(h, "edges", h.edges(), args.format, out)


def cmd_adjacency(args, out: TextIOBase, err: TextIOBase) -> int:
    h = ThresholdHypergraph.from_text(args.sequence)
    return _emit_rows(h, "entries", h.adjacency().entries, args.format, out)


def cmd_verify(args, out: TextIOBase, err: TextIOBase) -> int:
    results = run_all_sweeps(args.n_max, _parse_k_list(args.k))
    all_ok = all(r.passed for r in results)
    if args.format == "structured":
        doc = {
            "sweeps": [
                {"name": r.name, "checked": r.checked, "failed": len(r.failures)}
                for r in results
            ],
            "ok": all_ok,
        }
        _write_json(doc, out)
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


def cmd_family(args, out: TextIOBase, err: TextIOBase) -> int:
    ss = family_sequence(args.family, args.n, args.k, args.j)
    spec = family_spectrum_symbolic(args.family, args.n, args.k, args.j)
    if args.format != "structured":
        stream = out if args.format == "text" else err
        bits = format_bits(ss)  # refused before the first line is printed
        print(f"short={format_short(ss)}", file=stream)
        print("sequence=", bits, sep="", file=stream)
    _emit_spectrum(spec, ss, args.format, out, err)
    return EXIT_OK


def cmd_scan(args, out: TextIOBase, err: TextIOBase) -> int:
    rows = scan_quotient_simplicity(args.n_max, _parse_k_list(args.k))
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
        _write_json(doc, out)
    else:
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["sequence", "n", "k", "r", "min_quotient_gap", "flagged"])
        for row in rows:
            gap = fmt(row.min_quotient_gap)
            writer.writerow([row.sequence, row.n, row.k, row.r, gap, int(row.flagged)])
    print(
        f"sequences={len(rows)} flagged={flagged} min_gap={fmt(min_gap)}",
        file=err,
    )
    return EXIT_OK


def _integer(text: str) -> int:
    """argparse's `int`, without the 4,300-digit limit."""
    try:
        return read_decimal(text)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = read_decimal(text)
    except ValueError:
        value = 0
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _format(*choices: str) -> tuple:
    """`--format` over the formats a subcommand writes, the first the
    default."""
    return "--format", {"choices": choices, "default": choices[0]}


_FORMAT = _format("text", "csv", "structured")
_SEQUENCE = _FORMAT, ("sequence", {})
_SWEEP = (
    ("--n-max", {"type": _positive_int, "required": True}),
    ("--k", {"required": True}),
)
_VERIFY = "--verify", {
    "action": "store_true",
    "help": "compare with the eigenvalues of the dense matrix (exit 2 when "
    "max_dev, the largest deviation divided by max(1, |A|_F), is over 1e-8)",
}
_FAMILY = (
    _FORMAT,
    ("family", {"type": int, "choices": (1, 2, 3)}),
    ("--n", {"type": _integer, "required": True}),
    ("--k", {"type": _integer, "required": True}),
    ("--j", {"type": _integer, "default": None}),
)

#: Subcommand name: (help line, handler, its arguments in help order, each
#: (flag, `add_argument` keywords)), read by `_parser` and `_read` alike.
SUBCOMMANDS = {
    "spectrum": ("closed-form spectrum", cmd_spectrum, (*_SEQUENCE, _VERIFY)),
    "edges": ("edge list", cmd_edges, _SEQUENCE),
    "adjacency": ("pair-count matrix", cmd_adjacency, _SEQUENCE),
    "verify": (
        "exhaustive sweeps",
        cmd_verify,
        (_format("text", "structured"), *_SWEEP),
    ),
    "family": ("catalogued families", cmd_family, _FAMILY),
    "scan": ("quotient gap report", cmd_scan, (_format("csv", "structured"), *_SWEEP)),
}


def _read(command: str, args: list[str]) -> SimpleNamespace | None:
    """What `_parser().parse_args([command, *args])` returns less its
    `command`, read without argparse when `args` has the plain form: each
    option by its exact string, given once, its value the next token, and
    the positionals in any order.  Anything else (help, an abbreviation,
    `--opt=value`, `--`, any other token starting with `-`, a repeat, a
    missing or extra argument, a value that its type or choices refuse)
    gives None, and argparse reads it and reports; this never prints or
    raises."""
    _, handler, arguments = SUBCOMMANDS[command]
    keywords = dict(arguments)
    positionals = (flag for flag, _ in arguments if flag[0] != "-")
    given = {}
    tokens = iter(args)
    for token in tokens:
        option = token[:1] == "-"
        flag = token if option else next(positionals, None)
        kw = keywords.get(flag)
        if kw is None or flag in given:
            return None
        if "action" in kw:  # store_true, the only action in the table
            given[flag] = True
            continue
        value = next(tokens, "-") if option else token
        if value[:1] == "-":
            return None
        try:
            value = kw.get("type", str)(value)
        except Exception:  # ArgumentTypeError among them; argparse reports
            return None
        if value not in kw.get("choices", (value,)):
            return None
        given[flag] = value
    namespace = SimpleNamespace(handler=handler)
    for flag, kw in arguments:
        if flag not in given and (flag[0] != "-" or kw.get("required")):
            return None
        default = kw.get("default", False if "action" in kw else None)
        setattr(namespace, flag.lstrip("-").replace("-", "_"), given.get(flag, default))
    return namespace


@functools.cache
def _parser():
    """The top-level argparse parser of every subcommand, built on first
    use rather than at import: only a call that `_read` refuses imports
    argparse."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse that reports usage problems as exit code 1, not 2."""

        def error(self, message: str) -> None:
            raise _UsageError(message)

    description = __doc__.rsplit("\n\n", 1)[0]
    parser = _Parser(prog="threshspec", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = argv and argv[0] in SUBCOMMANDS and _read(argv[0], argv[1:])
        if not args:
            args = _parser().parse_args(argv)
        code = args.handler(args, sys.stdout, sys.stderr)
        sys.stdout.flush()  # a closed pipe shows here when the output is short
        return code
    except CountTooLargeError as exc:
        print(f"error: precision limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (_UsageError, SequenceError, ValueError, OverflowError) as exc:
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
