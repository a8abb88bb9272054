"""Importing the CLI loads no module that a plain call does not need:
`dataclasses`, `inspect` and `typing`, which only generate or describe
code, `json` and `csv`, which only structured and CSV output use,
`argparse` and its `gettext`, which only help and usage errors use, the
package's oracles, which only a call that runs one imports, and the
`scan` walk, the families and the explicit quotient, which only their own
command or name loads.  In a fresh process the first three cost about a
quarter of the package's import time, and the package builds its records
without generated source."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src"

DEFERRED = {
    "dataclasses",
    "inspect",
    "typing",
    "json",
    "csv",
    "argparse",
    "gettext",
    "threshspec.oracle",
    "threshspec.scan",
    "threshspec.families",
    "threshspec.quotient",
}

# -S: `site` may load `typing` itself, which would hide the package's own
# imports
_CHILD = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import threshspec.cli
print(sorted({DEFERRED!r} & set(sys.modules)))
"""

# the spectrum goes to stdout; what the child found goes to stderr
_ORACLE_CHILD = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from threshspec.cli import main
def loaded(argv):
    code = main(argv)
    print(code, "threshspec.oracle" in sys.modules, file=sys.stderr)
loaded(["spectrum", "C(3,1)_3"])
loaded(["spectrum", "C(3,1)_3", "--verify"])
"""

# scan and family each load their own module and no other deferred one of
# the package; the deferred modules loaded so far go to stderr after each
# call, scan's summary before them
_COMMAND_CHILD = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from threshspec.cli import main
deferred = {{name for name in {DEFERRED!r} if name.startswith("threshspec.")}}
def loaded(argv):
    main(argv)
    print("loaded", sorted(deferred & set(sys.modules)), file=sys.stderr)
loaded(["spectrum", "C(3,2,4,1)_3"])
loaded(["scan", "--n-max", "5", "--k", "3"])
loaded(["family", "3", "--n", "6", "--k", "3"])
"""

# a plain call is read without argparse; help is argparse's
_ARGPARSE_CHILD = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from threshspec.cli import main
def loaded(argv):
    try:
        main(argv)
    except SystemExit:
        pass
    print(sorted({{"argparse", "gettext"}} & set(sys.modules)), file=sys.stderr)
loaded(["spectrum", "C(3,2,4,1)_3"])
loaded(["spectrum", "-h"])
"""


def _run_child(source):
    done = subprocess.run(
        [sys.executable, "-S", "-c", source],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_the_cli_imports_no_module_a_plain_call_does_not_need():
    assert _run_child(_CHILD).stdout.strip() == "[]"


def test_only_a_call_that_runs_an_oracle_imports_it():
    done = _run_child(_ORACLE_CHILD)
    assert done.stderr.splitlines() == ["0 False", "0 True"]
    assert done.stdout.endswith("status=ok\n")


def test_scan_loads_only_scan_and_family_only_families():
    done = _run_child(_COMMAND_CHILD)
    assert done.stderr.splitlines() == [
        "loaded []",
        "sequences=7 flagged=0 min_gap=3.73497000431",
        "loaded ['threshspec.scan']",
        "loaded ['threshspec.families', 'threshspec.scan']",
    ]
    assert done.stdout.startswith("lambda=")
    assert "\nsequence,n,k,r,min_quotient_gap,flagged\n" in done.stdout
    assert "\nshort=C(3,2,1)_3\n" in done.stdout


def test_only_help_or_a_usage_error_imports_argparse():
    done = _run_child(_ARGPARSE_CHILD)
    assert done.stderr.splitlines() == ["[]", "['argparse', 'gettext']"]
    assert done.stdout.startswith("lambda=")
    assert "usage: threshspec spectrum" in done.stdout


def test_the_package_runs_no_generated_source():
    calls = {
        (path.name, node.func.id)
        for path in sorted((SRC / "threshspec").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"exec", "eval", "compile"}
    }
    assert not calls
