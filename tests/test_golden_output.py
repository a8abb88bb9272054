"""Golden digests of the command line.

Each subcommand gets one SHA-256 over ``repr((argv, exit code, stdout,
stderr))`` of every call in a fixed input set: valid and invalid short
forms, every short bit string, the catalogued families and two small
sweeps.  A change that alters a byte of output or an exit code anywhere
in the set fails here.  `spectrum --verify` is left out: its dense QL
step uses `math.hypot`, whose last bit can differ between CPython
versions.

After a deliberate output change, print the new digests with
``PYTHONPATH=src python tests/test_golden_output.py``.
"""

import contextlib
import hashlib
import io
from itertools import product

from threshspec.cli import main

GOLDEN = {
    "spectrum": "b29b9359be748baf4d0abc93d79ae6bf36ffa8ac923726eee9b4d4ed9be4e907",
    "edges": "05fde20e092fb431c26019634d93b7c838908b385beda19f67bc8aefa7832cf3",
    "adjacency": "d1a14e50bef822e6cba70fc4e3436a29411784f137378c3c6cb37be87cbb321a",
    "family": "6abe53dcef918ab5d14f3f10e3cc18ea37014dce77a0b67e79fa9f3a440ebad5",
    "verify": "a0c3e16a401f9e64f299c513f9b663fae478b40054db9eff90816f8fbec74678",
    "scan": "11a90457a2d479d006155ed773fef65333d13063f35a6872b47819bce6f293b1",
}


def _calls():
    for k in range(2, 6):
        for r in range(1, 4):
            # run length 0 and short first runs are refused, on purpose
            for runs in product(range(7), repeat=r):
                text = f"C({','.join(map(str, runs))})_{k}"
                yield ["spectrum", text]
                yield ["spectrum", text, "--format", "structured"]
                yield ["edges", text]
                yield ["adjacency", text]
    for k in range(2, 5):
        for n in range(9):
            for bits in product("01", repeat=n):
                yield ["spectrum", f"k={k};{','.join(bits)}"]
    for family, n, k in product((1, 2, 3), range(1, 10), range(2, 6)):
        for j in (None, *range(1, 10)):
            extra = [] if j is None else ["--j", str(j)]
            yield ["family", str(family), "--n", str(n), "--k", str(k), *extra]
    yield ["verify", "--n-max", "9", "--k", "2,3,4"]
    yield ["scan", "--n-max", "10", "--k", "2,3,4"]


def digests() -> dict[str, str]:
    hashes = {name: hashlib.sha256() for name in GOLDEN}
    for argv in _calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = repr((argv, code, out.getvalue(), err.getvalue()))
        hashes[argv[0]].update(record.encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_cli_output_matches_golden_digests():
    assert digests() == GOLDEN


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
