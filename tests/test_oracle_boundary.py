"""The closed route and its oracles share only the run decoding.

The closed route gets every pair count and eigenvalue from gamma; the
oracles in oracle.py recompute them without it, so that a fault in one
shows as a disagreement.  This reads the source, as
`tests/test_stdlib_only.py` does, and holds five rules:

- no closed-route function reaches a name defined in oracle.py, either
  directly or through the package functions it calls;
- oracle.py reads from hypergraph.py and the modules of `SPECTRUM` only
  the names in `ALLOWED`;
- no module but oracle.py itself imports oracle.py at module level, so
  that importing the package, the closed route or the CLI need not import
  the oracles; only a call that runs one does;
- the closed route reads the run form: no closed-route function but
  `ThresholdHypergraph.adjacency` reaches the name `ThresholdHypergraph`,
  directly or through the package functions it calls, and each module of
  `SPECTRUM` imports from hypergraph.py only `RUN_FORM`;
- the oracles are reached only through their public functions: no module
  reads `sys.modules`, oracle.py defines no `list` subclass for a checked
  edge list, and verify.py builds a `ShortSequence` only in `decode`,
  taking each complement from `complement_sequence`.

The call graph is an over-approximation: an attribute read `x.name` on
anything but `self` or a module is taken to reach every package method
called `name`.  The checker is also run on sources with a planted fault,
so that a checker which sees nothing fails.
"""

import ast
from pathlib import Path

import pytest

SOURCES = {
    path.stem: path.read_text(encoding="utf-8")
    for path in (Path(__file__).parents[1] / "src" / "threshspec").glob("*.py")
}

ORACLE = "oracle"

#: The closed route: (module, function, class or method).  A class stands
#: for all of its methods.
CLOSED_ROUTE = (
    ("combinatorics", "edges_ending"),
    ("hypergraph", "block_profile"),
    ("hypergraph", "gamma_step"),
    ("hypergraph", "pair_sums"),
    ("hypergraph", "check_pair_total"),
    ("hypergraph", "BlockProfile"),
    ("hypergraph", "ThresholdHypergraph.adjacency"),
    ("spectrum", "_Pencil"),
    ("spectrum", "_rational_ql"),
    ("spectrum", "_merge_entries"),
    ("spectrum", "_assemble"),
    ("spectrum", "block_eigenvalues"),
    ("spectrum", "quotient_eigenvalues"),
    ("spectrum", "full_spectrum_closed"),
    ("quotient", "quotient_matrix"),
    ("families", "family_spectrum_symbolic"),
    ("scan", "scan_quotient_simplicity"),
    ("scan", "_scan_size"),
)

#: The closed route's modules past gamma: spectrum.py, and the quotient-gap
#: walk, the families and the explicit quotient, which load on first use.
SPECTRUM = ("spectrum", "scan", "families", "quotient")

#: The one closed-route method that reads a `ThresholdHypergraph`.
ADJACENCY = ("hypergraph", "ThresholdHypergraph.adjacency")

#: What a module of `SPECTRUM` may import from hypergraph.py: the run
#: form's profile, and the steps `block_profile` folds over one sequence,
#: which `scan` folds over its tree of suffixes.
RUN_FORM = {
    "BlockProfile",
    "block_profile",
    "gamma_step",
    "pair_sums",
    "check_pair_total",
}

#: What oracle.py may read from the closed route's modules: the records
#: both routes return and the QL they share.
ALLOWED = {
    "AdjacencyMatrix",
    "_built_matrix",
    "ThresholdHypergraph",
    "_rational_ql",
    "EigenPair",
    "Spectrum",
}


def _imported(node):
    """(bound name, module, name) for each name that an import of the
    package's own modules binds; name is None where a module is bound
    (`from . import oracle`)."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 1 and not module:
            return [(a.asname or a.name, a.name, None) for a in node.names]
        if node.level == 1 or module.startswith("threshspec."):
            module = module.removeprefix("threshspec.")
            return [(a.asname or a.name, module, a.name) for a in node.names]
    elif isinstance(node, ast.Import):
        return [
            (a.asname or a.name, a.name.removeprefix("threshspec."), None)
            for a in node.names
            if a.name.startswith("threshspec.")
        ]
    return []


class Package:
    """The package's definitions, read off its sources: every module-level
    function and class, every method as `Class.method`, and the names each
    module binds by import."""

    def __init__(self, sources):
        self.defs = {}  # (module, qualified name) -> def node
        self.bindings = {}  # module -> {bound name: (module, name or None)}
        self.methods = {}  # method name -> {(module, "Class.method")}
        for module, text in sources.items():
            bound = self.bindings[module] = {}
            for node in ast.parse(text).body:
                for local, *target in _imported(node):
                    bound[local] = tuple(target)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.defs[(module, node.name)] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            key = (module, f"{node.name}.{item.name}")
                            self.defs[key] = item
                            self.methods.setdefault(item.name, set()).add(key)

    def resolve(self, module, name):
        """(module, name) where `name`, read in `module`, is defined."""
        while (module, name) not in self.defs and name in self.bindings[module]:
            module, name = self.bindings[module][name]
            if name is None:
                break
        return module, name

    def members(self, key):
        """The defs a reference to key runs: a function itself, a class its
        construction."""
        node = self.defs.get(key)
        if isinstance(node, ast.FunctionDef):
            return [key]
        if isinstance(node, ast.ClassDef):
            return [
                (key[0], f"{key[1]}.{name}")
                for name in ("__init__",)
                if (key[0], f"{key[1]}.{name}") in self.defs
            ]
        return []

    def references(self, key):
        """Every (module, name) that the function at key reads: names it
        does not bind itself, what it imports, and methods by name."""
        module, qualified = key
        node = self.defs[key]
        owner = qualified.split(".")[0] if "." in qualified else None
        local = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        local |= {
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
        }
        for n in ast.walk(node):
            for _, *target in _imported(n):
                yield tuple(target) if target[1] is None else self.resolve(*target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                if n.id not in local:
                    yield self.resolve(module, n.id)
            elif isinstance(n, ast.Attribute):
                base = n.value
                if isinstance(base, ast.Name) and base.id == "self" and owner:
                    yield module, f"{owner}.{n.attr}"
                    continue
                if isinstance(base, ast.Name) and base.id not in local:
                    bound = self.resolve(module, base.id)
                    if bound[1] is None:  # a module
                        yield self.resolve(bound[0], n.attr)
                        continue
                if not n.attr.startswith("__"):
                    yield from self.methods.get(n.attr, ())

    def reach(self, root, hit=lambda target: target[0] == ORACLE):
        """The first name that root reaches and `hit` accepts (by default
        an oracle name), with the path to it, or None."""
        module, qualified = root
        start = [root]
        if isinstance(self.defs[root], ast.ClassDef):
            prefix = f"{qualified}."
            start = [k for k in self.defs if k[0] == module and k[1].startswith(prefix)]
        paths = {key: (key,) for key in start}
        queue = list(start)
        while queue:
            key = queue.pop(0)
            for target in self.references(key):
                if hit(target):
                    return paths[key] + (target,)
                for member in self.members(target):
                    if member not in paths:
                        paths[member] = paths[key] + (member,)
                        queue.append(member)
        return None


def closed_route_reaching_oracle(sources):
    """{closed-route root: its path to an oracle name} for every root that
    reaches one."""
    package = Package(sources)
    paths = {root: package.reach(root) for root in CLOSED_ROUTE}
    return {root: path for root, path in paths.items() if path}


def oracle_reads_outside_allowed(sources):
    """(module, name) for every name of hypergraph or a module of
    `SPECTRUM` that oracle.py reads and `ALLOWED` does not list."""
    tree = ast.parse(sources[ORACLE])
    closed = {"hypergraph", *SPECTRUM}
    modules = set()
    reads = set()
    for node in ast.walk(tree):
        for local, module, name in _imported(node):
            if module in closed:
                if name is None:
                    modules.add(local)
                else:
                    reads.add((module, name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            reads.add((node.value.id, node.attr))  # by its bound name
    return {(module, name) for module, name in reads if name not in ALLOWED}


def module_level_oracle_imports(sources):
    """(module, line) for each import of oracle.py that a module other than
    oracle.py runs at import time, outside any function."""
    found = set()
    for module in sources.keys() - {ORACLE}:
        stack = list(ast.parse(sources[module]).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if any(target == ORACLE for _, target, _ in _imported(node)):
                found.add((module, node.lineno))
            stack.extend(ast.iter_child_nodes(node))
    return found


def closed_route_reaching_the_hypergraph(sources):
    """{closed-route root: its path to the name `ThresholdHypergraph`} for
    every root but `ADJACENCY` that reaches it, wherever the name is
    bound."""
    package = Package(sources)
    paths = {
        root: package.reach(root, lambda target: target[1] == "ThresholdHypergraph")
        for root in CLOSED_ROUTE
        if root != ADJACENCY
    }
    return {root: path for root, path in paths.items() if path}


def spectrum_imports_outside_run_form(sources):
    """(module, name) for each name that a module of `SPECTRUM` imports
    from hypergraph.py, anywhere in the module, and `RUN_FORM` does not
    list; name is None for the hypergraph module itself."""
    return {
        (importer, name)
        for importer in SPECTRUM
        for node in ast.walk(ast.parse(sources[importer]))
        for _, module, name in _imported(node)
        if module == "hypergraph" and name not in RUN_FORM
    }


def sys_modules_readers(sources):
    """Each module that reads `sys.modules`."""
    return {
        module
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute)
        and node.attr == "modules"
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    }


def list_subclasses(text):
    """The classes a module defines on `list`."""
    return {
        node.name
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "list" for b in node.bases)
    }


def short_sequence_calls(tree):
    """How many `ShortSequence(...)` calls the tree holds."""
    return sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "ShortSequence"
        for node in ast.walk(tree)
    )


def test_the_closed_route_reaches_no_oracle():
    assert closed_route_reaching_oracle(SOURCES) == {}


def test_the_oracles_read_only_the_allowed_closed_route_names():
    assert oracle_reads_outside_allowed(SOURCES) == set()


def test_the_closed_route_does_not_import_the_oracles():
    assert module_level_oracle_imports(SOURCES) == set()


def test_the_closed_route_reads_the_run_form():
    assert closed_route_reaching_the_hypergraph(SOURCES) == {}
    assert spectrum_imports_outside_run_form(SOURCES) == set()


def test_the_oracles_are_reached_only_through_their_public_functions():
    assert sys_modules_readers(SOURCES) == set()
    assert list_subclasses(SOURCES[ORACLE]) == set()
    verify = ast.parse(SOURCES["verify"])
    (decode,) = (
        node
        for node in verify.body
        if isinstance(node, ast.FunctionDef) and node.name == "decode"
    )
    assert short_sequence_calls(verify) == short_sequence_calls(decode) == 1


def test_the_oracle_names_are_found():
    # the delegating methods and `spectrum --verify` reach oracle.py, so a
    # clean closed route is not a checker that resolves nothing
    package = Package(SOURCES)
    for key in (
        ("hypergraph", "ThresholdHypergraph.edges"),
        ("hypergraph", "ThresholdHypergraph.pair_count"),
        ("cli", "cmd_spectrum"),
    ):
        assert package.reach(key) is not None, key


def _planted(module, anchor, line):
    """The sources with `line` put before the first `anchor` in module."""
    text = SOURCES[module]
    assert anchor in text
    return {**SOURCES, module: text.replace(anchor, line + anchor, 1)}


BLOCK_PROFILE_BODY = "    k = ss.k\n    profile = []\n"


@pytest.mark.parametrize(
    "line",
    [
        "    ThresholdHypergraph(ss).pair_count(1, 2)\n",
        "    from .oracle import pair_count\n\n    pair_count(ss, 1, 2)\n",
        "    from . import oracle\n\n    oracle.pair_count(ss, 1, 2)\n",
    ],
    ids=["method", "imported", "module"],
)
def test_a_planted_call_from_block_profile_is_caught(line):
    sources = _planted("hypergraph", BLOCK_PROFILE_BODY, line)
    found = closed_route_reaching_oracle(sources)
    assert ("hypergraph", "block_profile") in found
    # and so is every closed-route function that computes gamma
    assert ("spectrum", "full_spectrum_closed") in found
    assert ("hypergraph", "ThresholdHypergraph.adjacency") in found


@pytest.mark.parametrize("module", ["hypergraph", "spectrum", "scan"])
@pytest.mark.parametrize(
    "line", ["from .oracle import pair_count\n", "from . import oracle\n"]
)
def test_a_planted_module_level_import_is_caught(module, line):
    sources = _planted(module, "from .records import FrozenRecord\n", line)
    assert module_level_oracle_imports(sources)


def test_a_planted_import_at_the_top_of_the_cli_is_caught():
    # cmd_spectrum imports full_spectrum_numeric in its --verify branch;
    # the same import at the top of cli.py loads the oracles for every call
    anchor = "from .sequences import "
    sources = _planted("cli", anchor, "from .oracle import full_spectrum_numeric\n")
    line = sources["cli"][: sources["cli"].index(anchor)].count("\n")
    assert module_level_oracle_imports(sources) == {("cli", line)}


def test_a_planted_read_of_gamma_in_the_oracles_is_caught():
    anchor = "from .records import FrozenRecord\n"
    planted = "from .hypergraph import block_profile\n"
    sources = _planted(ORACLE, anchor, planted)
    assert oracle_reads_outside_allowed(sources) == {("hypergraph", "block_profile")}


FULL_SPECTRUM_BODY = "    check_closed(ss)\n    return _assemble("


@pytest.mark.parametrize(
    "line, imported",
    [
        ("    ThresholdHypergraph(ss)\n", set()),
        (
            "    from .hypergraph import ThresholdHypergraph\n\n"
            "    ThresholdHypergraph(ss)\n",
            {("spectrum", "ThresholdHypergraph")},
        ),
    ],
    ids=["unbound", "imported"],
)
def test_a_planted_hypergraph_in_full_spectrum_closed_is_caught(line, imported):
    sources = _planted("spectrum", FULL_SPECTRUM_BODY, line)
    found = closed_route_reaching_the_hypergraph(sources)
    assert ("spectrum", "full_spectrum_closed") in found
    assert spectrum_imports_outside_run_form(sources) == imported


def test_a_planted_import_of_the_hypergraph_module_is_caught():
    anchor = "from .records import FrozenRecord\n"
    sources = _planted("spectrum", anchor, "from . import hypergraph\n")
    assert spectrum_imports_outside_run_form(sources) == {("spectrum", None)}
