"""End-to-end acceptance checks, one test per catalogue entry.

Each test prints a single ``criterion NN PASS|FAIL`` line (visible under
``pytest -s``) in addition to the usual pytest verdict.  Expected numbers
are frozen from independent routes: hand-entered matrices diagonalized
with numpy, square roots of integer discriminants, and brute-force edge
enumeration.
"""

import functools
import math
import time
from itertools import permutations

import numpy as np
import pytest

from threshspec.cli import main
from threshspec.hypergraph import (
    ThresholdHypergraph,
    adjacency_bruteforce,
    block_profile,
    load_replaceable_non_threshold_7_4,
)
from threshspec.sequences import (
    format_short,
    iter_valid_sequences,
    parse_binary,
    to_short,
)
from threshspec.spectrum import (
    block_eigenvalues,
    family_sequence,
    family_spectrum_symbolic,
    full_spectrum_closed,
    full_spectrum_numeric,
    quotient_matrix,
    scan_quotient_simplicity,
)

SWEEP_N_MAX = 8
SWEEP_K = (2, 3, 4, 5)


def criterion(num, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} FAIL {label}")
                raise
            print(f"criterion {num:02d} PASS {label}")

        return wrapper

    return decorate


def run_cli(capsys, *args):
    start = time.perf_counter()
    code = main(list(args))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    return code, captured.out, elapsed


def spectrum_pairs(out):
    """(value, multiplicity) pairs parsed from text-format CLI output."""
    pairs = []
    for line in out.splitlines():
        if line.startswith("lambda="):
            fields = dict(part.split("=", 1) for part in line.split())
            pairs.append((float(fields["lambda"]), int(fields["mult"])))
    return pairs


def truncate2(value):
    return math.trunc(value * 100) / 100


@pytest.fixture(scope="module")
def sweep():
    """Shared exhaustive sweep: every connected sequence with n <= 8 and
    k in {2,3,4,5}, with both adjacency routes and both spectrum routes."""
    rows = []
    start = time.perf_counter()
    for k in SWEEP_K:
        for n in range(k, SWEEP_N_MAX + 1):
            for seq in iter_valid_sequences(n, k, connected_only=True):
                h = ThresholdHypergraph(seq)
                brute = adjacency_bruteforce(h)
                rows.append(
                    {
                        "h": h,
                        "closed_adj": h.adjacency(),
                        "brute_adj": brute,
                        "closed_spec": full_spectrum_closed(h.runs),
                        "numeric_spec": full_spectrum_numeric(h),
                    }
                )
    return {"rows": rows, "elapsed": time.perf_counter() - start}


@criterion(1, "single-pseudodominant spectrum via CLI")
def test_criterion_01_single_pseudodominant_spectrum(capsys):
    code, out, elapsed = run_cli(capsys, "spectrum", "k=3;0,0,0,0,1")
    assert code == 0
    assert elapsed < 1.0
    pairs = spectrum_pairs(out)
    assert [m for _, m in pairs] == [1, 3, 1]
    top, mid, bot = (v for v, _ in pairs)
    assert abs(top - 7.68) <= 5e-3
    assert mid == -1.0
    assert abs(bot - (-4.68)) <= 5e-3
    # exact closed forms from the 2x2 quotient quadratic
    root = math.sqrt(153)
    assert abs(top - (3 + root) / 2) <= 1e-10
    assert abs(bot - (3 - root) / 2) <= 1e-10


@criterion(2, "two-block tail spectrum via CLI")
def test_criterion_02_tail_run_spectrum(capsys):
    code, out, elapsed = run_cli(capsys, "spectrum", "k=3;0,0,0,1,1")
    assert code == 0
    assert elapsed < 1.0
    pairs = spectrum_pairs(out)
    assert [m for _, m in pairs] == [1, 2, 1, 1]
    top, twin, lone, bot = (v for v, _ in pairs)
    assert twin == -2.0
    assert lone == -3.0
    # the quotient roots solve x^2 - 7x - 42 with integer coefficients;
    # published displays truncate them to two decimals
    root = math.sqrt(217)
    assert abs(top - (7 + root) / 2) <= 5e-3
    assert abs(bot - (7 - root) / 2) <= 5e-3
    assert abs(top - (7 + root) / 2) <= 1e-10
    assert abs(bot - (7 - root) / 2) <= 1e-10
    assert truncate2(top) == 10.86
    assert truncate2(bot) == -3.86
    q = quotient_matrix(ThresholdHypergraph(parse_binary("k=3;0,0,0,1,1")).runs)
    (q11, q12), (q21, q22) = q.entries
    linear = -(q11 + q22)
    constant = q11 * q22 - q12 * q21
    assert (linear, constant) == (-7, -42)


@criterion(3, "clique-head spectrum via CLI")
def test_criterion_03_clique_head_spectrum(capsys):
    code, out, elapsed = run_cli(capsys, "spectrum", "k=3;0,0,1,0,1")
    assert code == 0
    assert elapsed < 1.0
    pairs = spectrum_pairs(out)
    assert [m for _, m in pairs] == [1, 1, 2, 1]
    values = [v for v, _ in pairs]
    targets = [8.71, -0.49, -2.0, -4.22]
    assert all(abs(v - t) <= 5e-3 for v, t in zip(values, targets))
    assert values[2] == -2.0
    # independent check of the three simple values: diagonalize the
    # hand-entered block-sum matrix with numpy
    block_sums = np.array([[4, 1, 3], [3, 0, 3], [9, 3, 0]], dtype=float)
    simple = sorted(np.linalg.eigvals(block_sums).real, reverse=True)
    got = [values[0], values[1], values[3]]
    assert all(abs(a - b) <= 1e-8 for a, b in zip(got, simple))


@criterion(4, "almost-complete edge list via CLI")
def test_criterion_04_edge_list(capsys):
    code, out, _ = run_cli(capsys, "edges", "k=4;0,0,0,1,1,0")
    assert code == 0
    assert out == "1,2,3,4\n1,2,3,5\n1,2,4,5\n1,3,4,5\n2,3,4,5\n"


@criterion(5, "short-form encoding of two long sequences")
def test_criterion_05_short_form_encoding():
    seq_a = parse_binary("k=3;0,0,0,0,0,1,1,0,1,1,1,0,0,0,1")
    assert format_short(to_short(seq_a)) == "C(5,2,1,3,3,1)_3"
    seq_b = parse_binary("k=4;0,0,0,1,1,1,1,0,1,1,0,0,0,1")
    assert format_short(to_short(seq_b)) == "C(7,1,2,3,1)_4"


@criterion(6, "closed adjacency and spectra match brute-force oracles")
def test_criterion_06_oracle_equivalence(sweep):
    rows = sweep["rows"]
    assert len(rows) == sum(
        2 ** (n - k) for k in SWEEP_K for n in range(k, SWEEP_N_MAX + 1)
    )
    for row in rows:
        assert row["closed_adj"] == row["brute_adj"]
        closed = row["closed_spec"].expanded()
        numeric = row["numeric_spec"].expanded()
        assert len(closed) == len(numeric) == row["h"].n
        assert max(abs(a - b) for a, b in zip(closed, numeric)) <= 1e-8
    assert sweep["elapsed"] < 300.0


@criterion(7, "block eigenvalue formulas equal direct pair counts")
def test_criterion_07_two_route_equality(sweep):
    checked = 0
    for row in sweep["rows"]:
        h = row["h"]
        ss = to_short(h.sequence)
        entries = row["brute_adj"].entries
        first = 1
        by_block = {}
        for b in block_eigenvalues(block_profile(ss)):
            by_block[b.block_index] = b
        for j, size in enumerate(ss.runs, start=1):
            start = first
            first += size
            if size < 2:
                continue
            # exact integers on both sides, no tolerance
            assert by_block[j].value == -entries[start - 1][start]
            assert by_block[j].multiplicity_lower_bound == size - 1
            checked += 1
    assert checked > 100


@criterion(8, "sequence to adjacency map is injective")
def test_criterion_08_injectivity():
    for k in range(2, 10):
        for n in range(k - 1, 9):
            seen = {}
            for seq in iter_valid_sequences(n, k):
                key = ThresholdHypergraph(seq).adjacency().entries
                assert key not in seen, (seen[key], seq)
                seen[key] = seq
            expected = 1 if n == k - 1 else 2 ** (n - k + 1)
            assert len(seen) == expected


@criterion(9, "replaceability totality and the bundled counterpoint")
def test_criterion_09_replaceability():
    for k in range(2, 8):
        for n in range(k - 1, 8):
            for seq in iter_valid_sequences(n, k):
                g = ThresholdHypergraph(seq).to_general()
                assert g.is_totally_replaceable()
    fixture = load_replaceable_non_threshold_7_4()
    assert fixture.is_totally_replaceable()
    target = {frozenset(e) for e in fixture.sorted_edges()}
    sequences = list(iter_valid_sequences(7, 4))
    assert len(sequences) == 16
    for seq in sequences:
        edges = [frozenset(e) for e in ThresholdHypergraph(seq).edges()]
        if len(edges) != len(target):
            continue
        for perm in permutations(range(1, 8)):
            relabel = dict(zip(range(1, 8), perm))
            mapped = {frozenset(relabel[v] for v in e) for e in edges}
            assert mapped != target, seq


@criterion(10, "distinct eigenvalue count bounds")
def test_criterion_10_distinct_counts(sweep):
    for row in sweep["rows"]:
        h = row["h"]
        assert row["closed_spec"].distinct_count <= h.n - h.k + 2
    for k in range(2, 13):
        for n in range(k, 13):
            assert family_spectrum_symbolic(1, n, k).distinct_count <= 3
            for j in range(k, n):
                assert family_spectrum_symbolic(2, n, k, j).distinct_count <= 4
            if n >= k + 2:
                assert family_spectrum_symbolic(3, n, k).distinct_count <= 5


@criterion(11, "graph quotient eigenvalues stay well separated")
def test_criterion_11_graph_scan():
    rows = scan_quotient_simplicity(7, [2])
    assert len(rows) == sum(2 ** (n - 2) for n in range(2, 8))
    assert not any(row.flagged for row in rows)
    # larger uniformities: collect the same report, assert nothing
    evidence = scan_quotient_simplicity(6, [3, 4])
    assert len(evidence) == (1 + 2 + 4 + 8) + (1 + 2 + 4)


@criterion(12, "trace and Frobenius identities for every spectrum")
def test_criterion_12_numerical_hygiene(sweep):
    specs = []
    for row in sweep["rows"]:
        fro = float(row["brute_adj"].frobenius_sq())
        specs.append((row["closed_spec"], fro))
        specs.append((row["numeric_spec"], fro))
    for k in range(2, 6):
        for n in range(max(k, 4), 11):
            ss = family_sequence(1, n, k)
            h = ThresholdHypergraph.from_text(format_short(ss))
            fro = float(h.adjacency().frobenius_sq())
            specs.append((family_spectrum_symbolic(1, n, k), fro))
    assert len(specs) > 400
    for spec, fro in specs:
        trace = sum(p.value * p.multiplicity for p in spec.pairs)
        power = sum(p.value * p.value * p.multiplicity for p in spec.pairs)
        assert abs(trace) <= 1e-8 * max(1.0, fro)
        assert abs(power - fro) <= 1e-6 * fro
