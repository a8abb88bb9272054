"""The runtime imports nothing outside the standard library and reads no
file, every module exports only names it defines, one table says where
each served name lives, every name a module imports is used, every
exception type the package defines is raised, no caller can raise a cap
or set a tolerance, and only combinatorics.py holds a cap or refuses
past one.

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

import pytest

import threshspec
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


def _assigned_names(text):
    """Names bound by a top-level assignment in the source text."""
    names = set()
    for node in ast.parse(text).body:
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
        assigned = _assigned_names(path.read_text(encoding="utf-8"))
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


def test_the_star_import_binds_every_name_the_package_serves():
    """`from threshspec import *` binds each name that `__init__` imports
    and the thirteen names that its `__getattr__` serves, each the object
    of the module that holds it, and nothing else."""
    served = {
        "GeneralHypergraph": "oracle",
        "adjacency_bruteforce": "oracle",
        "full_spectrum_numeric": "oracle",
        "householder_ql_eigenvalues": "oracle",
        "load_replaceable_non_threshold_7_4": "oracle",
        "ScanRow": "scan",
        "scan_quotient_simplicity": "scan",
        "family_sequence": "families",
        "family_spectrum_symbolic": "families",
        "QuotientMatrix": "quotient",
        "quotient_matrix": "quotient",
        "symmetrize_quotient": "quotient",
        "jacobi_eigenvalues": "quotient",
    }
    init = next(path for path in SOURCES if path.stem == "__init__")
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    namespace = {}
    exec("from threshspec import *", namespace)
    del namespace["__builtins__"]
    assert len(imported) == 34
    assert namespace.keys() == imported | served.keys()
    assert all(
        namespace[name] is getattr(importlib.import_module(f"threshspec.{module}"), name)
        for name, module in served.items()
    )


def _strings_outside_annotations(path):
    """The string constants of the source at path, bar those inside an
    annotation, which name a type rather than say where it lives."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    annotations = {
        id(inner)
        for node in ast.walk(tree)
        for note in (
            getattr(node, "annotation", None),
            getattr(node, "returns", None),
        )
        if note is not None
        for inner in ast.walk(note)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in annotations
    ]


def test_one_table_says_where_each_served_name_lives():
    """Outside the module that defines it, each served name is written as a
    string once, as a key of the package's `_SERVED`: `spectrum` and
    `hypergraph` serve it through the package's resolver, with no list of
    their own.  The defining module's `__all__` names the object, not where
    it is served from."""
    strings = {path.stem: _strings_outside_annotations(path) for path in SOURCES}
    written = {
        name: [
            (stem, found.count(name))
            for stem, found in strings.items()
            if stem != module and name in found
        ]
        for name, module in threshspec._SERVED.items()
    }
    assert len(written) == 13
    assert written == {name: [("__init__", 1)] for name in written}


SERVING = ["threshspec", "threshspec.spectrum", "threshspec.hypergraph"]


@pytest.mark.parametrize("asked", SERVING)
def test_each_served_name_is_the_object_of_its_module(asked):
    module = importlib.import_module(asked)
    for name, home in threshspec._SERVED.items():
        held = getattr(importlib.import_module(f"threshspec.{home}"), name)
        assert getattr(module, name) is held, name


@pytest.mark.parametrize("asked", SERVING)
def test_an_unknown_name_is_missing_from_the_module_asked(asked):
    module = importlib.import_module(asked)
    message = f"module {asked!r} has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
        module.no_such_name


def test_each_public_name_and_each_count_enters_once():
    """`__init__` writes each name it imports once, so no string constant
    in it equals one and `__all__` is read off the imports; `_Pencil.push`
    takes a block's two exact counts and converts them itself, so
    `_Pencil.of` converts none."""
    init = next(path for path in SOURCES if path.stem == "__init__")
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    strings = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert imported
    assert not imported & strings
    push = [
        names
        for module, function, names in _functions()
        if (module, function) == ("spectrum", "push")
    ]
    assert push == [["self", "g", "a"]]
    spectrum = next(path for path in SOURCES if path.stem == "spectrum")
    of = [
        method
        for node in ast.walk(ast.parse(spectrum.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name == "_Pencil"
        for method in node.body
        if isinstance(method, ast.FunctionDef) and method.name == "of"
    ]
    assert len(of) == 1
    assert not list(_reads(of[0], {"as_float"}))


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


def _raised_names(text):
    """Names of the classes or instances raised by a `raise` in the source
    text."""
    for node in ast.walk(ast.parse(text)):
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
        name
        for path in SOURCES
        if path != errors
        for name in _raised_names(path.read_text(encoding="utf-8"))
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
    construction.  Any other matrix goes through the check: the helper is
    called from those two builders only, and nothing else makes an
    instance past `__init__`."""
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


def _functions():
    """(module, name, parameter names) for every function of the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                every = (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                yield path.stem, node.name, [p.arg for p in every if p is not None]


def _options(*words):
    """(subcommand, option) for every option that contains one of words."""
    return {
        (name, option)
        for name, (_, _, arguments) in cli.SUBCOMMANDS.items()
        for option, _ in arguments
        if option[0] == "-" and any(word in option for word in words)
    }


_CAP_NAME = re.compile(r"(^|[-_])(cap|budget)([-_]|$)")


def test_no_cap_or_budget_is_an_option():
    """Every size cap and the sequence budget are constants, which no call
    can raise: no function of the package has a parameter named for a cap
    or a budget, and no subcommand an option."""
    parameters = {
        (module, function, name)
        for module, function, names in _functions()
        for name in names
        if _CAP_NAME.search(name)
    }
    assert not parameters
    assert not _options("cap", "budget")


def test_no_tolerance_or_matrix_is_an_option():
    """Every tolerance is a constant, and each entry point has one input
    path: no function of the package but `quotient.jacobi_eigenvalues`,
    which nothing in the package calls, has a parameter `tol` or `*_tol`;
    `full_spectrum_numeric` takes only the hypergraph; and no subcommand
    has a tolerance option."""
    functions = list(_functions())
    parameters = {
        (module, function, name)
        for module, function, names in functions
        for name in names
        if name == "tol" or name.endswith("_tol")
    }
    assert parameters <= {("quotient", "jacobi_eigenvalues", "tol")}
    numeric = [
        names for _, function, names in functions if function == "full_spectrum_numeric"
    ]
    assert numeric == [["h"]]
    assert not _options("tol")


def test_one_construction_path_and_no_enumeration_flag():
    """Each record validates in its own `__init__`, so no class has a
    `__post_init__` hook; the pencil is one class, which scan grows with
    `fork`, so no module subclasses `_Pencil`; and the run-shape
    enumerators take only the size, since the connected filter lives in
    `iter_valid_sequences` alone."""
    functions = list(_functions())
    assert not [
        (module, name) for module, name, _ in functions if name == "__post_init__"
    ]
    subclasses = [
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "_Pencil" for b in node.bases)
    ]
    assert not subclasses
    enumerators = {
        name: names
        for module, name, names in functions
        if module == "sequences" and name in ("iter_short_sequences", "_tail_runs")
    }
    assert enumerators == {
        "iter_short_sequences": ["n", "k"],
        "_tail_runs": ["m", "bit"],
    }


_REFUSALS = {"ResourceLimitError", "CountTooLargeError"}
# the CLI's exit code for a refusal, EXIT_BUDGET, is not a cap
_CAP_CONSTANT = re.compile(r"^(?!EXIT_).*_(CAP|BUDGET)$")


def _caps_outside_combinatorics(sources):
    """(module, name) for each cap refusal raised and each `*_CAP` or
    `*_BUDGET` constant assigned in a module other than combinatorics."""
    return {
        (module, name)
        for module, text in sources.items()
        if module != "combinatorics"
        for name in (
            *(n for n in _raised_names(text) if n in _REFUSALS),
            *(n for n in _assigned_names(text) if _CAP_CONSTANT.search(n)),
        )
    }


def _package_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}


def test_every_cap_and_its_refusal_is_in_combinatorics():
    """Each fixed cap, and the check that refuses past it, is written once:
    no other module assigns a cap or raises `ResourceLimitError` or
    `CountTooLargeError`; they call the checks."""
    sources = _package_sources()
    assert "combinatorics" in sources
    assert _caps_outside_combinatorics(sources) == set()


@pytest.mark.parametrize(
    "line, found",
    [
        (
            "def _planted():\n    raise ResourceLimitError('over')\n\n\n",
            ("sequences", "ResourceLimitError"),
        ),
        ("SHORT_TEXT_CAP = 10\n\n\n", ("sequences", "SHORT_TEXT_CAP")),
    ],
    ids=["raise", "constant"],
)
def test_a_planted_cap_outside_combinatorics_is_caught(line, found):
    sources = _package_sources()
    anchor = "def format_short("
    assert anchor in sources["sequences"]
    sources["sequences"] = sources["sequences"].replace(anchor, line + anchor, 1)
    assert _caps_outside_combinatorics(sources) == {found}
