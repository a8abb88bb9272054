import ast
import gc
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

import threshspec.oracle as oracle
import threshspec.scan as scan
import threshspec.sequences as sequences
import threshspec.verify as verify
from threshspec.errors import ResourceLimitError
from threshspec.hypergraph import AdjacencyMatrix, BlockProfile, ThresholdHypergraph
from threshspec.oracle import GeneralHypergraph
from threshspec.sequences import (
    complement_sequence,
    count_valid_sequences,
    format_bits,
    iter_short_sequences,
    iter_valid_sequences,
    parse_runs,
    to_short,
)
from threshspec.scan import scan_quotient_simplicity
from threshspec.spectrum import BlockEigenvalue
from threshspec.verify import (
    MAX_REPORTED,
    decode,
    run_all_sweeps,
    sweep_adjacency_oracle,
    sweep_complement_partition,
    sweep_replaceability,
    sweep_two_route,
    sweep_uniqueness,
)

SWEEPS = (
    sweep_adjacency_oracle,
    sweep_two_route,
    sweep_uniqueness,
    sweep_replaceability,
    sweep_complement_partition,
)


def test_all_sweeps_pass_at_small_sizes():
    results = run_all_sweeps(6, [2, 3, 4])
    assert [r.name for r in results] == [
        "oracle_equivalence",
        "two_route",
        "uniqueness",
        "replaceability_totality",
        "complement_partition",
    ]
    for r in results:
        assert r.passed, (r.name, r.failures)
        assert r.checked > 0


def test_checked_counts_match_sequence_space():
    # four sweeps walk all valid sequences, the two-route sweep only
    # the connected ones
    all_count = sum(2 ** (n - 1) for n in range(1, 6))  # k=2, n_max=5
    res = sweep_adjacency_oracle(5, [2])
    assert res.checked == all_count
    assert sweep_uniqueness(5, [2]).checked == all_count
    assert sweep_replaceability(5, [2]).checked == all_count
    assert sweep_complement_partition(5, [2]).checked == all_count
    connected = sum(2 ** (n - 2) for n in range(2, 6))
    assert sweep_two_route(5, [2]).checked == connected


def test_budget_guard():
    # 2**17 - 1 = 131,071 sequences, one size over the budget of 100,000
    with pytest.raises(ResourceLimitError):
        run_all_sweeps(17, [2])


@pytest.mark.parametrize(
    "walk",
    [*SWEEPS, run_all_sweeps, scan_quotient_simplicity],
    ids=lambda walk: walk.__name__,
)
def test_every_walk_is_guarded_before_a_sequence_is_built(monkeypatch, walk):
    # no walk takes a budget: the one fixed budget guards them all; the
    # sweeps list run shapes under the name they import, and scan grows
    # them in `_scan_size`
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a sequence was built")

    for module in (sequences, verify, scan):
        for name in ("iter_valid_sequences", "iter_short_sequences", "_scan_size"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_enumeration)
    for n_max in (30, 20000):
        with pytest.raises(ResourceLimitError, match="over the budget of 100000"):
            walk(n_max, [3])


def test_subset_budget_guards_every_walk_before_a_sequence_is_built(monkeypatch):
    # 542 sequences are within the sequence budget, but their k-subsets
    # hold 120,511,624 ordered vertex pairs, just over the subset budget;
    # each sweep is the five-check walk, which lists edges, so each is
    # weighed
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a sequence was built")

    monkeypatch.setattr(verify, "iter_short_sequences", no_enumeration)
    for walk in (*SWEEPS, run_all_sweeps):
        with pytest.raises(
            ResourceLimitError,
            match="sweeps would count 120511624 vertex pairs of k-subsets, "
            "over the budget of 120000000",
        ):
            walk(15, [8, 12])


def test_two_route_sweep_catches_a_wrong_profile(monkeypatch, capsys):
    # the direct pair count is the sweep's reference, so a profile that is
    # off by one in a block of twins must fail the sweep and the CLI
    from threshspec.cli import main

    _off_by_one_profile(monkeypatch)
    res = sweep_two_route(6, [3])
    assert not res.passed
    assert "direct pair count" in res.failures[0]
    assert main(["verify", "--n-max", "6", "--k", "3"]) == 2
    out, err = capsys.readouterr()
    assert "sweep=two_route checked=15 failed=" in out
    assert out.splitlines()[-1] == "FAILED"


def test_replaceability_sweep_catches_a_missing_edge(monkeypatch, capsys):
    # the sweep reads replaceability off the edge list's links, so an edge
    # list that lost one edge and with it the comparability of some pair
    # must fail the sweep and the CLI
    from threshspec.cli import main

    broken = _drop_an_edge(monkeypatch)
    res = sweep_replaceability(6, [3])
    assert broken
    n, edges = broken[0]
    first = next(
        s for s in iter_valid_sequences(n, 3) if ThresholdHypergraph(s).edges() == edges
    )
    assert not res.passed
    assert res.failures[0] == format_bits(to_short(first))
    assert main(["verify", "--n-max", "6", "--k", "3"]) == 2
    out, err = capsys.readouterr()
    assert "sweep=replaceability_totality checked=31 failed=" in out
    assert out.splitlines()[-1] == "FAILED"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_verify_counts_every_failure_and_lists_the_first_few(
    monkeypatch, capsys, fmt
):
    # a check that fails on all 31 sequences of k = 3 up to n = 6 reports
    # all 31 in both formats, though its frozen result keeps only the
    # first MAX_REPORTED messages and stderr marks the rest with one "..."
    from threshspec.cli import main

    monkeypatch.setattr(oracle, "totally_replaceable", lambda links: False)
    results = run_all_sweeps(6, [3])
    res = results[3]
    assert (res.name, res.checked, res.failed) == ("replaceability_totality", 31, 31)
    assert not res.passed
    assert isinstance(res.failures, tuple) and len(res.failures) == MAX_REPORTED
    assert "..." not in res.failures
    assert [r.failed for r in results] == [0, 0, 0, 31, 0]
    assert main(["verify", "--n-max", "6", "--k", "3", "--format", fmt]) == 2
    out, err = capsys.readouterr()
    if fmt == "structured":
        doc = json.loads(out)
        assert doc["ok"] is False
        failed = [s["failed"] for s in doc["sweeps"]]
    else:
        lines = out.splitlines()
        assert lines[3] == "sweep=replaceability_totality checked=31 failed=31"
        assert lines[-1] == "FAILED"
        failed = [int(line.split("failed=")[1]) for line in lines[:-1]]
    assert failed == [0, 0, 0, 31, 0]
    assert err.splitlines() == [
        f"replaceability_totality: {message}" for message in res.failures
    ] + ["replaceability_totality: ..."]


def _off_by_one_profile(monkeypatch):
    real = verify.block_profile

    def off_by_one(ss):
        gamma = list(real(ss).gamma)
        for s, size in enumerate(ss.runs):
            if size >= 2:
                gamma[s] += 1
                break
        return BlockProfile(ss, gamma)

    monkeypatch.setattr(verify, "block_profile", off_by_one)


def _drop_an_edge(monkeypatch):
    """Feed the links an edge list without its first edge whose loss makes
    some pair incomparable; returns the (n, edges) it broke, in order."""
    from test_hypergraph import edge_walk_totally_replaceable

    real = oracle.edge_links
    broken = []

    def drop_an_edge(n, edges):
        full = frozenset(map(frozenset, edges))
        for e in edges:
            smaller = GeneralHypergraph(n, len(e), full - {frozenset(e)})
            if not edge_walk_totally_replaceable(smaller):
                broken.append((n, edges))
                return real(n, smaller.edges)
        return real(n, edges)

    monkeypatch.setattr(oracle, "edge_links", drop_an_edge)
    return broken


def _raise_one_pair(monkeypatch):
    real = oracle.recount_pairs

    def recount(n, edges):
        rows = [list(row) for row in real(n, edges).entries]
        if n >= 2:
            rows[0][1] += 1
            rows[1][0] += 1
        return AdjacencyMatrix(rows)

    monkeypatch.setattr(oracle, "recount_pairs", recount)


def _failing_profile(monkeypatch):
    def refuse(ss):
        raise RuntimeError("internal: injected profile failure")

    monkeypatch.setattr(verify, "block_profile", refuse)


def _lowered_multiplicities(monkeypatch):
    real = verify.block_eigenvalues

    def lowered(bp):
        return [
            BlockEigenvalue(b.value, b.multiplicity_lower_bound - 1, b.block_index)
            for b in real(bp)
        ]

    monkeypatch.setattr(verify, "block_eigenvalues", lowered)


def _zero_adjacency(monkeypatch):
    def zero(self):
        return AdjacencyMatrix([[0] * self.n for _ in range(self.n)])

    monkeypatch.setattr(ThresholdHypergraph, "adjacency", zero)


def _identity_complement(monkeypatch):
    monkeypatch.setattr(verify, "complement_sequence", lambda s: s)


def _shared_matrix(monkeypatch):
    """Give k=3;0,0,1,1 the matrix of k=3;0,0,0,1, a planted collision of
    two sequences of one size."""
    real = ThresholdHypergraph.adjacency
    twin = ThresholdHypergraph.from_text("k=3;0,0,0,1")
    collided = parse_runs("k=3;0,0,1,1")

    def shared(self):
        return real(twin if self.runs == collided else self)

    monkeypatch.setattr(ThresholdHypergraph, "adjacency", shared)


def _unreadable_matrix(monkeypatch):
    """Give k=3;0,0,0,1 a first row that splits vertices 1 and 2 off as
    a first run too short for k = 3."""
    real = ThresholdHypergraph.adjacency
    broken = parse_runs("k=3;0,0,0,1")

    def unreadable(self):
        m = real(self)
        if self.runs != broken:
            return m
        rows = [list(row) for row in m.entries]
        rows[0][1] = rows[1][0] = 5
        return AdjacencyMatrix(rows)

    monkeypatch.setattr(ThresholdHypergraph, "adjacency", unreadable)


@pytest.mark.parametrize(
    "inject, sweep, name, first",
    [
        (_raise_one_pair, sweep_adjacency_oracle, "oracle_equivalence", "k=3;0,0"),
        (
            _off_by_one_profile,
            sweep_two_route,
            "two_route",
            "k=3;0,0,1: block 1 gives -2 but the direct pair count gives -1",
        ),
        (
            _failing_profile,
            sweep_two_route,
            "two_route",
            "k=3;0,0,1: internal: injected profile failure",
        ),
        (
            _lowered_multiplicities,
            sweep_two_route,
            "two_route",
            "k=3;0,0,1: block multiplicities missed n-r",
        ),
        (
            _zero_adjacency,
            sweep_uniqueness,
            "uniqueness",
            "k=3;0,0,1 reads back as k=3;0,0,0",
        ),
        (
            _shared_matrix,
            sweep_uniqueness,
            "uniqueness",
            "k=3;0,0,1,1 reads back as k=3;0,0,0,1",
        ),
        (
            _unreadable_matrix,
            sweep_uniqueness,
            "uniqueness",
            "k=3;0,0,0,1 reads back as no sequence: first run 2 cannot hold "
            "2 zeros plus a one",
        ),
        (
            _identity_complement,
            sweep_complement_partition,
            "complement_partition",
            "k=3;0,0,0",
        ),
    ],
)
def test_sweep_records_an_injected_fault(
    monkeypatch, capsys, inject, sweep, name, first
):
    # each sweep must record the fault it exists to catch, and the CLI must
    # report it on that sweep's line and exit 2
    from threshspec.cli import main

    inject(monkeypatch)
    res = sweep(6, [3])
    assert not res.passed
    assert res.failures[0] == first
    assert main(["verify", "--n-max", "6", "--k", "3"]) == 2
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[-1] == "FAILED"
    failed = {
        line.split()[0]: int(line.split("failed=")[1]) for line in lines[:-1]
    }
    assert failed[f"sweep={name}"] > 0
    assert f"{name}: {first}\n" in err


@pytest.mark.parametrize(
    "inject",
    [
        None,
        _off_by_one_profile,
        _drop_an_edge,
        _raise_one_pair,
        _failing_profile,
        _zero_adjacency,
        _identity_complement,
        _shared_matrix,
    ],
)
def test_walk_matches_the_single_check_walks(monkeypatch, inject):
    # each sweep reports its own entry of the one five-check walk, field
    # for field, also when a check fails
    if inject is not None:
        inject(monkeypatch)
    walks = []
    for n_max, ks in [(7, [2]), (6, [3, 4]), (7, [2, 2, 5]), (3, [5])]:
        walks.append(run_all_sweeps(n_max, ks))
        assert walks[-1] == [sweep(n_max, ks) for sweep in SWEEPS]
    assert all(r.passed for walk in walks for r in walk) == (inject is None)
    # k = 5 needs 4 vertices: nothing to visit
    assert all(r.checked == 0 and r.passed for r in run_all_sweeps(3, [5]))


@pytest.mark.parametrize(
    "walk", [run_all_sweeps, *SWEEPS], ids=lambda walk: walk.__name__
)
def test_walk_lists_each_edge_list_once_and_builds_adjacency_once(monkeypatch, walk):
    # per visited sequence: its own edge list, which its mate's complement
    # check reads too, one closed-form adjacency, and no explicit edge set;
    # each sweep is the same walk
    calls = {"edges": 0, "adjacency": 0, "to_general": 0}

    def counted(name):
        real = getattr(ThresholdHypergraph, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ThresholdHypergraph, name, wrapper)

    for name in calls:
        counted(name)
    results = walk(8, [2, 3, 4])
    results = results if walk is run_all_sweeps else [results]
    visited = count_valid_sequences(8, [2, 3, 4])
    assert all(r.passed for r in results)
    assert results[0].checked == count_valid_sequences(
        8, [2, 3, 4], results[0].name == "two_route"
    )
    assert calls == {"edges": visited, "adjacency": visited, "to_general": 0}


def test_walk_visits_each_sequence_once_in_complement_pairs(monkeypatch):
    # each zero-head sequence, in the order `iter_short_sequences` lists
    # them, is followed by its complement, the same runs with the merged
    # head; the lone zero run of n = k - 1 is its own complement
    visits = []
    real = ThresholdHypergraph.adjacency

    def recorded(self):
        visits.append(self.runs)
        return real(self)

    monkeypatch.setattr(ThresholdHypergraph, "adjacency", recorded)
    results = run_all_sweeps(8, [2, 3, 4])
    assert all(r.passed for r in results)
    listed = [
        ss
        for k in (2, 3, 4)
        for n in range(k - 1, 9)
        for ss in iter_short_sequences(n, k)
    ]
    assert len(visits) == len(set(visits)) == count_valid_sequences(8, [2, 3, 4])
    assert set(visits) == set(listed)
    heads = [ss for ss in visits if not ss.first_run_has_ones]
    assert heads == [ss for ss in listed if not ss.first_run_has_ones]
    i = 0
    while i < len(visits):
        ss = visits[i]
        assert not ss.first_run_has_ones
        if ss.n == ss.k - 1:
            assert complement_sequence(ss) == ss
            i += 1
        else:
            assert visits[i + 1] == complement_sequence(ss)
            assert visits[i + 1].first_run_has_ones
            i += 2


def test_walk_leaves_no_reference_cycle():
    # the walk holds each pair as plain tuples of a hypergraph, its
    # matrix and its edge list, which refer to nothing that refers back,
    # so it leaves nothing for the cycle collector
    gc.collect()
    gc.disable()
    try:
        results = run_all_sweeps(8, [2, 3, 4])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(r.passed for r in results)


def test_verify_has_one_walk():
    # run_all_sweeps is the only walk: verify imports no weak reference or
    # cached property, builds no attribute on first read, defines no class
    # but its result record, reads no check list off a namespace with
    # `vars`, and lists run shapes nowhere else
    tree = ast.parse(Path(verify.__file__).read_text())
    imported = {
        alias.name
        for n in ast.walk(tree)
        if isinstance(n, ast.Import)
        for alias in n.names
    } | {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not imported & {"weakref", "functools"}
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert "__getattr__" not in {f.name for f in functions}
    classes = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    assert classes == ["SweepResult"]
    assert not any(
        isinstance(n, ast.Name) and n.id == "vars" for n in ast.walk(tree)
    )

    def listings(node):
        return sum(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "iter_short_sequences"
            for n in ast.walk(node)
        )

    (walk,) = [f for f in functions if f.name == "run_all_sweeps"]
    assert listings(tree) == listings(walk) == 1


def test_walk_lists_the_k_subsets_once_per_size(monkeypatch):
    # the complement check compares against one list of k-subsets per
    # (k, n) size, not one per sequence
    calls = []
    real = verify.combinations

    def counted(vertices, k):
        calls.append((k, len(vertices)))
        return real(vertices, k)

    monkeypatch.setattr(verify, "combinations", counted)
    results = run_all_sweeps(8, [2, 3, 4])
    assert all(r.passed for r in results)
    assert results[0].checked == count_valid_sequences(8, [2, 3, 4])
    assert calls == [(k, n) for k in (2, 3, 4) for n in range(k - 1, 9)]


def test_edge_cap_refuses_before_the_k_subsets_are_listed(monkeypatch):
    # the list is as long as a sequence's edges and its complement's, so
    # it waits for both lists, which the edge cap refuses past 10**7 each
    def refused(self):
        raise ResourceLimitError("edges over the cap")

    def no_subsets(*args):
        raise AssertionError("k-subsets listed before the edges")

    monkeypatch.setattr(ThresholdHypergraph, "edges", refused)
    monkeypatch.setattr(verify, "combinations", no_subsets)
    with pytest.raises(ResourceLimitError, match="edges over the cap"):
        sweep_complement_partition(6, [3])
    with pytest.raises(ResourceLimitError, match="edges over the cap"):
        run_all_sweeps(6, [3])


def _refuse_bits(monkeypatch):
    """Make any bit form fail: `to_binary` under every name the package
    imports it as, and the construction of any `BinarySequence`."""

    def no_bits(*args, **kwargs):
        raise AssertionError("a bit form was built")

    _bind_everywhere(monkeypatch, "to_binary", no_bits)
    monkeypatch.setattr(sequences.BinarySequence, "__init__", no_bits)


def _bind_everywhere(monkeypatch, name, value):
    """Bind `name` to value in every module of the package that binds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "threshspec" and hasattr(module, name):
            monkeypatch.setattr(module, name, value)


def test_the_walks_build_no_bits(monkeypatch):
    # verify and scan walk run shapes and compute on them: with every bit
    # form refused, both report what they report unpatched
    sweeps = run_all_sweeps(8, [2, 3, 4])
    rows = scan_quotient_simplicity(9, [2, 3, 4])
    _refuse_bits(monkeypatch)
    assert run_all_sweeps(8, [2, 3, 4]) == sweeps
    assert scan_quotient_simplicity(9, [2, 3, 4]) == rows
    assert all(r.passed and r.checked for r in sweeps) and rows


def test_no_scan_leaf_formats_its_own_text(monkeypatch):
    # scan folds each row's bit text along its tree of suffixes: with
    # format_bits refused wherever the package binds it, the rows are the
    # same
    rows = scan_quotient_simplicity(9, [2, 3, 4])

    def no_text(ss):
        raise AssertionError(f"{ss} was formatted")

    _bind_everywhere(monkeypatch, "format_bits", no_text)
    assert scan_quotient_simplicity(9, [2, 3, 4]) == rows
    assert len(rows) == count_valid_sequences(9, [2, 3, 4], True)


@pytest.mark.parametrize("n_max", [200_000_000, 10**12])
def test_a_lone_zero_run_over_the_cell_cap_exits_3(monkeypatch, capsys, n_max):
    # k = n_max + 1 leaves one sequence, its n_max forced zeros: within the
    # budget, so the walk visits it, and its adjacency is refused on the
    # runs before any bit of it is built
    from threshspec.cli import main

    _refuse_bits(monkeypatch)
    assert main(["verify", "--n-max", str(n_max), "--k", str(n_max + 1)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: a dense {n_max}x{n_max} matrix has {n_max * n_max} cells, "
        "over the cap of 10000000\n"
    )


def test_decode_reads_every_matrix_back_to_its_sequence():
    # every sequence with n <= 11 and k = 2..5: n = 1, the lone zero runs,
    # disconnected tails and both head layouts, read back from the
    # brute-force recount, which shares no code with the closed form
    seen = 0
    for k in (2, 3, 4, 5):
        for n in range(k - 1, 12):
            for ss in iter_short_sequences(n, k):
                h = ThresholdHypergraph(ss)
                assert decode(oracle.adjacency_bruteforce(h).entries, k) == ss
                seen += 1
    assert seen == count_valid_sequences(11, [2, 3, 4, 5]) == 3836


def test_uniqueness_keeps_no_store():
    # each matrix is read back, not kept: the walk's traced peak (0.1 MiB)
    # stays far below what a store of the 8,191 matrices of up to 13 x 13
    # entries it visits would take (9.6 MiB)
    sweep_uniqueness(13, [2])  # warm-up: imports and caches
    tracemalloc.start()
    try:
        res = sweep_uniqueness(13, [2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed and res.checked == 2**13 - 1
    assert peak < 2 * 2**20


def test_walk_refuses_an_edge_list_off_the_vertex_range(monkeypatch):
    # a vertex outside 1..n in a visit's edge list is refused by name
    # before the recount reads it, not wrapped to another row
    real = oracle.edges

    def planted(ss):
        out = real(ss)
        if ss.n == 5:
            out.append((0, 5))
        return out

    monkeypatch.setattr(oracle, "edges", planted)
    with pytest.raises(ValueError, match=r"^vertex 0 out of range 1\.\.5$"):
        run_all_sweeps(6, [3])
