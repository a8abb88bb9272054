"""Importing the CLI loads none of the costly standard modules that only
generate or describe code: `dataclasses`, `inspect` and `typing`.  In a
fresh process these three cost about a quarter of the package's import
time, and the package builds its records without generated source."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src"

# -S: `site` may load `typing` itself, which would hide the package's own
# imports
_CHILD = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import threshspec.cli
print(sorted({{"dataclasses", "inspect", "typing"}} & set(sys.modules)))
"""


def test_the_cli_imports_no_code_generating_module():
    done = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
