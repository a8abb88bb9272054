"""Golden digests of the command line.

Each subcommand gets one SHA-256 over ``repr((argv, exit code, stdout,
stderr))`` of every call in a fixed input set: valid and invalid short
forms (with structured `edges` and `adjacency` up to two runs), every
short bit string (with `edges` and `adjacency` up to seven bits), the
catalogued families (in csv and structured form too at k = 2 and 3),
three small sweeps and two budget refusals.  One more digest, `usage`,
covers help and usage errors: the bare command, `-h`, an unknown command,
an option before the command, and for every subcommand its `-h` and a
missing required argument, a bad `--format`, a bad value and an unknown
option.  Help is wrapped at a fixed `COLUMNS`.
A change that alters a byte of output or an exit code anywhere in the set
fails here.  `spectrum --verify` is left out: its dense QL step uses
`math.hypot`, whose last bit can differ between CPython versions.

After a deliberate output change, print the new digests with
``PYTHONPATH=src python tests/test_golden_output.py``.  With
``--dump FILE`` the script writes every (argv, exit code, stdout, stderr)
record as JSON instead, so two commits are audited by one diff of their
dumps.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
from itertools import product
from unittest import mock

from threshspec.cli import main

GOLDEN = {
    "spectrum": "fb7cd59d2f1dcae70960f0f6ae3cfec87a94edf3773164d282c4c431d9b995dc",
    "edges": "0d527020915876eb2cb539462f4b134168ff3599ff47429a3fdfb8dde56cf393",
    "adjacency": "d0c0fa7519e930cab74e54796514cc1d90909fcfa6feb33241b9a5a8fa615747",
    "family": "e737d9fe425af2592c7d10fdc5a426f84751ce36dd2a634702bc007ae712e741",
    "verify": "5b20f72cae99cdbd9ef344e36226e095913504f2b86a098390c6d43f9434bb31",
    "scan": "86a591bd1bbb800e6f1a2c161bedd4276b12f225349a2bd49c7b1335456166dd",
    "usage": "42aaa403c6b960dc167a1bb6bb3f6fd98d90a8661cbe5e266ca632b63142ae3c",
}

#: One call of each subcommand that parses, for the usage errors to vary.
_VALID = {
    "spectrum": ["spectrum", "C(3,1)_3"],
    "edges": ["edges", "C(3,1)_3"],
    "adjacency": ["adjacency", "C(3,1)_3"],
    "verify": ["verify", "--n-max", "4", "--k", "3"],
    "family": ["family", "1", "--n", "4", "--k", "3"],
    "scan": ["scan", "--n-max", "4", "--k", "3"],
}

#: A number each subcommand refuses at parse time; `adjacency` reads none
#: and gets a second sequence instead.
_BAD_VALUE = {
    "spectrum": ["--tol", "0"],
    "edges": ["--edge-cap", "0"],
    "adjacency": ["C(4,1)_3"],
    "verify": ["--n-max", "0"],
    "family": ["--n", "x"],
    "scan": ["--tol", "nan"],
}


def _usage_calls():
    yield []
    yield ["-h"]
    yield ["spectra", "C(3,1)_3"]
    yield ["--format", "csv", "spectrum", "C(3,1)_3"]
    for name, valid in _VALID.items():
        yield [name, "-h"]
        yield valid[:1]  # a required argument missing
        yield valid + ["--format", "yaml"]
        yield valid + _BAD_VALUE[name]
        yield valid + ["--bogus"]


def _calls():
    """(digest name, argv) of every call, in order."""
    for argv in _usage_calls():
        yield "usage", argv
    for argv in _argv_calls():
        yield argv[0], argv


def _argv_calls():
    for k in range(2, 6):
        for r in range(1, 4):
            # run length 0 and short first runs are refused, on purpose
            for runs in product(range(7), repeat=r):
                text = f"C({','.join(map(str, runs))})_{k}"
                yield ["spectrum", text]
                yield ["spectrum", text, "--format", "structured"]
                yield ["edges", text]
                yield ["adjacency", text]
                if r <= 2:
                    yield ["edges", text, "--format", "structured"]
                    yield ["adjacency", text, "--format", "structured"]
    for k in range(2, 5):
        for n in range(9):
            for bits in product("01", repeat=n):
                text = f"k={k};{','.join(bits)}"
                yield ["spectrum", text]
                if n <= 7:
                    yield ["edges", text]
                    yield ["adjacency", text]
    for family, n, k in product((1, 2, 3), range(1, 10), range(2, 6)):
        for j in (None, *range(1, 10)):
            extra = [] if j is None else ["--j", str(j)]
            yield ["family", str(family), "--n", str(n), "--k", str(k), *extra]
    for family, k, output_format in product((1, 2, 3), (2, 3), ("csv", "structured")):
        for n in (k + 2, 12):
            for j in range(k, n) if family == 2 else (None,):
                extra = [] if j is None else ["--j", str(j)]
                argv = ["family", str(family), "--n", str(n), "--k", str(k)]
                yield [*argv, *extra, "--format", output_format]
    yield ["verify", "--n-max", "9", "--k", "2,3,4"]
    yield ["verify", "--n-max", "7", "--k", "2,5", "--format", "structured"]
    yield ["scan", "--n-max", "10", "--k", "2,3,4"]
    # budget refusals that name an exact count of 302 digits
    yield ["verify", "--n-max", "1000", "--k", "2,3"]
    yield ["scan", "--n-max", "1000", "--k", "3"]


def records():
    """(digest name, (argv, exit code, stdout, stderr)) of every call, in
    order; help exits by `SystemExit`, whose code is recorded."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for name, argv in _calls():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            yield name, (argv, code, out.getvalue(), err.getvalue())


def digests() -> dict[str, str]:
    hashes = {name: hashlib.sha256() for name in GOLDEN}
    for name, record in records():
        hashes[name].update(repr(record).encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_cli_output_matches_golden_digests():
    assert digests() == GOLDEN


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description="print the golden digests")
    cli.add_argument("--dump", metavar="FILE", help="write the records as JSON")
    dump = cli.parse_args().dump
    if dump is None:
        for name, digest in digests().items():
            print(f'    "{name}": "{digest}",')
    else:
        with open(dump, "w") as fh:
            json.dump([list(record) for _, record in records()], fh, indent=0)
