"""The runtime imports nothing outside the standard library and reads no
file, every module exports only names it defines, every name a module
imports is used, every exception type the package defines is raised, and
no caller can raise a cap.

numpy is installed for the tests, so an accidental third-party import in
the package would still run here; this reads the imports instead.  A stale
`__all__` entry still imports cleanly by name but breaks `import *`.
"""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

from threshspec import cli

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "threshspec").glob("*.py"))


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


_READERS = ("importlib.resources", "pathlib", "open()")


def _file_readers(path):
    """The file-reading imports (`importlib.resources`, `pathlib`) and the
    calls to the builtin `open` in the source at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = [f"{node.func.id}()"]
        else:
            continue
        yield from (n for n in names if n in _READERS)


def test_the_package_reads_no_file_at_run_time():
    """Everything the package knows is in its code: no module reads a
    file, the package directory holds only modules, and pyproject.toml
    ships no package data."""
    readers = {(path.name, name) for path in SOURCES for name in _file_readers(path)}
    assert not readers
    others = [
        path.relative_to(ROOT).as_posix()
        for path in SOURCES[0].parent.rglob("*")
        if "__pycache__" not in path.parts and path.suffix != ".py"
    ]
    assert not others
    assert "package-data" not in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


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


def _reads(tree, names):
    """(innermost enclosing function or None, whether it is called) for
    every read of one of `names` in tree, by name or as an attribute."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and node.id in names:
            yield function, id(node) in called
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield function, id(node) in called
        stack.extend((child, function) for child in ast.iter_child_nodes(node))


def test_only_the_package_builders_skip_the_matrix_check():
    """`hypergraph._built_matrix` makes an `AdjacencyMatrix` without its
    O(n**2) check, for the two builders whose matrices hold it by
    construction.  Any other matrix, such as one injected into
    `full_spectrum_numeric`, goes through the check: the helper is called
    from those two builders only, and nothing else makes an instance past
    `__init__`."""
    helper = "_built_matrix"
    hypergraph = next(path for path in SOURCES if path.stem == "hypergraph")
    tree = ast.parse(hypergraph.read_text(encoding="utf-8"))
    assert any(
        isinstance(node, ast.FunctionDef) and node.name == helper
        for node in tree.body
    )
    reads = {
        (path.name, function, call)
        for path in SOURCES
        for function, call in _reads(
            ast.parse(path.read_text(encoding="utf-8")), {helper, "__new__"}
        )
    }
    assert reads == {
        ("hypergraph.py", "adjacency", True),
        ("oracle.py", "recount_pairs", True),
        ("hypergraph.py", helper, True),  # its object.__new__
    }


def test_bits_are_built_only_from_text_or_on_request():
    """The package computes on `ShortSequence`.  Outside sequences.py no
    module constructs a `BinarySequence`, and `to_binary` is called only
    by `ThresholdHypergraph.sequence`, which builds the bits on request;
    inside sequences.py the bit form is made by the text readers and by
    `to_binary`, which `iter_valid_sequences` maps over the run shapes."""
    reads = {
        name: {
            (path.name, function, call)
            for path in SOURCES
            for function, call in _reads(
                ast.parse(path.read_text(encoding="utf-8")), {name}
            )
        }
        for name in ("BinarySequence", "to_binary")
    }
    constructed = {
        (path, function) for path, function, call in reads["BinarySequence"] if call
    }
    assert constructed == {
        ("sequences.py", "to_binary"),
        ("sequences.py", "parse_binary"),
    }
    assert reads["to_binary"] == {
        ("hypergraph.py", "sequence", True),
        ("sequences.py", "parse_sequence", True),
        ("sequences.py", "iter_valid_sequences", False),
    }


_CAP_NAME = re.compile(r"(^|[-_])(cap|budget)([-_]|$)")


def test_no_cap_or_budget_is_an_option():
    """Every size cap and the sequence budget are constants, which no call
    can raise: no function of the package has a parameter named for a cap
    or a budget, and no subcommand an option."""
    parameters = {
        (path.name, node.name, arg.arg)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if _CAP_NAME.search(arg.arg)
    }
    assert not parameters
    options = {
        (name, option)
        for name in cli.SUBCOMMANDS
        for action in cli._parser(name)._actions
        for option in action.option_strings
        if "cap" in option or "budget" in option
    }
    assert not options
