"""The runtime imports nothing outside the standard library, and every
module exports only names it defines.

numpy is installed for the tests, so an accidental third-party import in
the package would still run here; this reads the imports instead.  A stale
`__all__` entry still imports cleanly by name but breaks `import *`.
"""

import ast
import importlib
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "threshspec").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def test_every_exported_name_resolves():
    unresolved = []
    exported = 0
    for path in SOURCES:
        name = "threshspec" if path.stem == "__init__" else f"threshspec.{path.stem}"
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, attr):
                unresolved.append((name, attr))
    assert exported
    assert not unresolved
