"""The runtime imports nothing outside the standard library, every module
exports only names it defines, every name a module imports is used, and
every exception type the package defines is raised.

numpy is installed for the tests, so an accidental third-party import in
the package would still run here; this reads the imports instead.  A stale
`__all__` entry still imports cleanly by name but breaks `import *`.
"""

import ast
import importlib
import inspect
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


def _assigned_names(path):
    """Names bound by a top-level assignment in the source at path."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_exported_name_resolves():
    """Outside `__init__`, which gathers the public names, a module exports
    a class or function only when that module defines it, and a constant
    only when that module assigns it."""
    unresolved = []
    foreign = []
    exported = 0
    for path in SOURCES:
        name = "threshspec" if path.stem == "__init__" else f"threshspec.{path.stem}"
        module = importlib.import_module(name)
        assigned = _assigned_names(path)
        for attr in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, attr):
                unresolved.append((name, attr))
            elif path.stem != "__init__":
                value = getattr(module, attr)
                if inspect.isclass(value) or inspect.isroutine(value):
                    if value.__module__ != name:
                        foreign.append((name, attr))
                elif attr not in assigned:
                    foreign.append((name, attr))
    assert exported
    assert not unresolved
    assert not foreign


def _unused_imports(path):
    """Names bound by a module-level import at path that the module never
    reads and does not list in `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    module = importlib.import_module(f"threshspec.{path.stem}")
    return imported - read - set(getattr(module, "__all__", ()))


def test_every_import_is_used():
    """Outside `__init__`, which imports to re-export, a deleted caller
    leaves no import behind."""
    unused = {
        (path.name, name)
        for path in SOURCES
        if path.stem != "__init__"
        for name in _unused_imports(path)
    }
    assert not unused


def _raised_names(path):
    """Names of the classes or instances raised by a `raise` at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_exception_type_is_raised():
    """An error type that nothing raises is a contract no caller can meet:
    a deleted refusal takes its exception class with it."""
    errors = next(path for path in SOURCES if path.stem == "errors")
    defined = {
        node.name
        for node in ast.parse(errors.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    raised = {
        name for path in SOURCES if path != errors for name in _raised_names(path)
    }
    assert defined
    assert not defined - raised
