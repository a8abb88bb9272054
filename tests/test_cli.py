import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import threshspec.cli as cli
import threshspec.hypergraph as hypergraph
import threshspec.spectrum as spectrum
from threshspec.cli import main
from threshspec.errors import ResourceLimitError
from threshspec.combinatorics import DENSE_CELL_CAP, DENSE_SOLVE_CAP
from threshspec.hypergraph import BlockProfile, ThresholdHypergraph
from threshspec.oracle import full_spectrum_numeric
from threshspec.spectrum import EigenPair, Spectrum


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse JSON that must not use the non-standard NaN or Infinity."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestSpectrumCommand:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "spectrum", "k=3;0,0,0,0,1")
        assert code == 0
        assert out == (
            "lambda=7.68465843843 mult=1 source=quotient\n"
            "lambda=-1 mult=3 source=block1\n"
            "lambda=-4.68465843843 mult=1 source=quotient\n"
        )
        assert err == ""

    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "spectrum", "C(3,1,1)_3")
        second = run(capsys, "spectrum", "C(3,1,1)_3")
        assert first == second

    def test_short_and_bit_forms_agree(self, capsys):
        _, out_short, _ = run(capsys, "spectrum", "C(3,2)_3")
        _, out_bits, _ = run(capsys, "spectrum", "k=3;0,0,0,1,1")
        assert out_short == out_bits

    def test_verify_against_dense_route(self, capsys):
        code, out, err = run(capsys, "spectrum", "C(3,2)_3", "--verify")
        assert code == 0
        lines = out.splitlines()
        assert lines[:4] == [
            "lambda=10.8654599313 mult=1 source=quotient",
            "lambda=-2 mult=2 source=block1",
            "lambda=-3 mult=1 source=block2",
            "lambda=-3.86545993133 mult=1 source=quotient",
        ]
        assert lines[4].startswith("max_dev=")
        assert lines[4].endswith("tol=1e-08 status=ok")
        code, out, err = run(
            capsys, "spectrum", "C(3,2)_3", "--verify", "--format", "structured"
        )
        assert code == 0
        info = strict_json(out)["verify"]
        assert sorted(info) == ["max_dev", "ok", "tol"]
        assert info["ok"] is True and info["tol"] == 1e-8

    def test_verify_has_no_false_mismatch(self, capsys):
        # each of these exited 2 on a correct spectrum when the dense
        # eigenvalues were clustered and the tolerance was absolute
        for text in (
            "k=6;0,0,0,0,0,0,1,1,0,0,1,1,0,0,1,0,1,0,1,0,"
            "0,1,1,1,0,0,1,0,0,1,0,0,1,1,0,0,1,1,1,1",
            "k=6;0,0,0,0,0,0,1,0,1,1,1,0,0,1,0,1,1,0,1,1,"
            "1,1,0,0,0,1,1,0,0,0,0,0,1,0,0,1,0,1,1,1",
            "k=6;" + ",".join(["0"] * 5 + ["1", "0"] * 37 + ["1"]),
            "C(40,40)_6",
        ):
            code, out, err = run(capsys, "spectrum", text, "--verify")
            assert code == 0, text
            assert out.splitlines()[-1].endswith("tol=1e-08 status=ok")

    def test_verify_catches_a_shifted_eigenvalue(self, capsys, monkeypatch):
        closed = cli.full_spectrum_closed
        adjacency = ThresholdHypergraph.from_text("C(3,2)_3").adjacency()
        scale = math.sqrt(adjacency.frobenius_sq())

        def shifted(h):
            spec = closed(h)
            top, *rest = spec.pairs
            moved = EigenPair(top.value + 1e-6 * scale, top.multiplicity, top.source)
            return Spectrum((moved, *rest))

        monkeypatch.setattr(cli, "full_spectrum_closed", shifted)
        code, out, err = run(capsys, "spectrum", "C(3,2)_3", "--verify")
        assert code == 2
        assert out.splitlines()[-1].endswith("status=mismatch")
        code, out, err = run(
            capsys, "spectrum", "C(3,2)_3", "--verify", "--format", "structured"
        )
        assert code == 2
        info = strict_json(out)["verify"]
        assert sorted(info) == ["max_dev", "ok", "tol"]
        assert info["ok"] is False and info["max_dev"] > info["tol"]

    def test_verify_catches_a_fault_in_gamma(self, capsys, monkeypatch):
        # a fault in block_profile that keeps pair_total: on two runs,
        # gamma_1 += e_2 and gamma_2 -= e_1, e_s counting the pairs whose
        # later vertex lies in block s; --verify read the same faulty gamma
        # through the dense matrix and passed it
        true_profile = hypergraph.block_profile

        def faulty(ss):
            bp = true_profile(ss)
            (g1, g2), (a1, a2) = bp.gamma, ss.runs
            e1, e2 = a1 * (a1 - 1) // 2, a2 * a1 + a2 * (a2 - 1) // 2
            bad = BlockProfile(ss, (g1 + e2, g2 - e1))
            assert bad.pair_total == bp.pair_total
            return bad

        for text in ("C(3,2)_3", "C(4,3)_2", "C(5,4)_4"):
            _, good, _ = run(capsys, "spectrum", text)
            with monkeypatch.context() as patch:
                for module in (spectrum, hypergraph, cli):
                    patch.setattr(module, "block_profile", faulty)
                code, out, err = run(capsys, "spectrum", text, "--verify")
            assert code == 2, text
            lines = out.splitlines()
            assert lines[:-1] != good.splitlines(), text
            assert lines[-1].endswith("status=mismatch"), text

    def test_precision_limit_exits_3(self, capsys):
        for args in (
            ["spectrum", "C(50,50)_20"],
            ["family", "1", "--n", "100", "--k", "20"],
            # counts over Python's 4,300-digit limit on int-to-text conversion
            ["spectrum", "C(9000,11000)_9000"],
            ["family", "2", "--n", "20000", "--k", "9000", "--j", "9000"],
            # a run over 2**53 must not reach the float solver; these printed
            # wrong eigenvalues or failed as bad input
            ["spectrum", f"C({10**30},1)_2"],
            ["spectrum", f"C({10**60},1)_2"],
            ["spectrum", f"C({10**300},1)_2"],
            ["family", "1", "--n", str(10**19), "--k", "2"],
        ):
            code, out, err = run(capsys, *args)
            assert code == 3, args
            assert err.startswith("error: precision limit:")
            assert out == "", args

    def test_csv_output(self, capsys):
        code, out, err = run(capsys, "spectrum", "C(3,1,1)_3", "--format", "csv")
        assert code == 0
        assert out == (
            "lambda,mult,source\n"
            "8.71311048445,1,quotient\n"
            "-0.489070240071,1,quotient\n"
            "-2,2,block1\n"
            "-4.22404024438,1,quotient\n"
        )

    def test_structured_output(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "k=3;0,0,0,1,1", "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 5 and doc["k"] == 3
        assert doc["sequence"] == "k=3;0,0,0,1,1"
        assert doc["short"] == "C(3,2)_3"
        assert doc["distinct_count"] == 4
        assert doc["merge_tol"] == 1e-9
        assert [p["multiplicity"] for p in doc["pairs"]] == [1, 2, 1, 1]
        assert doc["pairs"][1]["value"] == -2.0
        assert doc["pairs"][1]["source"] == "block1"

    def test_dense_size_cap_exits_3(self, capsys):
        for args in (
            ["adjacency", "C(5000,5000)_3"],
            ["spectrum", "C(50000,50000)_3", "--verify"],
        ):
            code, out, err = run(capsys, *args)
            assert code == 3, args
            assert "over the cap" in err

    def test_dense_work_cap_exits_3_before_the_matrix(self, capsys, monkeypatch):
        # n = 1201 passes the cell cap, but n**3 is over the work cap, and
        # neither --verify nor the numeric route may build the matrix first
        assert 1201**2 <= DENSE_CELL_CAP and 1201**3 > DENSE_SOLVE_CAP

        def refuse(self):
            raise AssertionError("the dense matrix was built past the work cap")

        monkeypatch.setattr(ThresholdHypergraph, "adjacency", refuse)
        code, out, err = run(capsys, "spectrum", "C(600,601)_3", "--verify")
        assert code == 3
        assert out == ""
        assert err.startswith("error: a dense eigensolve of a 1201x1201 matrix")
        assert "over the cap" in err
        with pytest.raises(ResourceLimitError, match="over the cap"):
            full_spectrum_numeric(ThresholdHypergraph.from_text("C(600,601)_3"))

    def test_solver_iteration_cap_exits_3(self, capsys, monkeypatch):
        # an iteration budget is a resource budget: exit 3, no traceback
        monkeypatch.setattr(spectrum, "QL_ITERATIONS", 0)
        code, out, err = run(capsys, "spectrum", "C(3,2)_3", "--verify")
        assert code == 3
        assert out == ""
        assert err.startswith("error: QL iteration did not converge in 0 ")
        assert err.endswith(" of 5\n") and "Traceback" not in err

    def test_verify_at_larger_n(self, capsys):
        rng = random.Random(20261018)
        # the k = 2 draws put 0 and -1 in clusters of dozens, which the
        # QL must split without running out of iterations
        for n, k in ((120, 3), (120, 6), (200, 3), (160, 2), (200, 2)):
            bits = [0] * (k - 1) + [rng.randint(0, 1) for _ in range(n - k)] + [1]
            text = f"k={k};" + ",".join(map(str, bits))
            code, out, err = run(capsys, "spectrum", text, "--verify")
            assert code == 0, (n, k)
            assert out.splitlines()[-1].endswith("tol=1e-08 status=ok")

    def test_reused_parser_keeps_no_state(self, capsys):
        # main builds each subcommand's parser once per process; two calls
        # in a row must print what two calls with freshly built parsers print
        plain = ["spectrum", "C(3,1,1)_3"]
        calls = [
            (plain + ["--verify"], plain),
            (plain + ["--format", "csv"], plain),
            (plain + ["--format", "yaml"], plain),  # a usage error first
        ]
        for first, second in calls:
            fresh = []
            for args in (first, second):
                cli._parser.cache_clear()
                fresh.append(run(capsys, *args))
            assert [run(capsys, *first), run(capsys, *second)] == fresh
            assert "max_dev" not in fresh[1][1]
        assert cli._parser("spectrum") is cli._parser("spectrum")
        assert cli._parser("spectrum") is not cli._parser(None)

    def test_a_call_builds_only_its_subparser(self, capsys, monkeypatch):
        built, passes = [], []
        init, parse = cli._Parser.__init__, cli._Parser.parse_known_args

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        def counted_parse(parser, *args, **kwargs):
            passes.append(parser.prog)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        monkeypatch.setattr(cli._Parser, "parse_known_args", counted_parse)
        cli._parser.cache_clear()
        for _ in range(2):
            passes.clear()
            code, out, err = run(capsys, "spectrum", "C(3,1,1)_3")
            assert (code, err) == (0, "") and out.startswith("lambda=")
            assert passes == ["threshspec spectrum"]  # one argparse pass
        assert built == ["threshspec spectrum"]
        # any other argv gets the parent and every subcommand, and the
        # parent hands the command's arguments to a second pass
        built.clear()
        assert run(capsys, "spectra", "C(3,1,1)_3")[0] == 1
        assert built == ["threshspec"] + [f"threshspec {c}" for c in cli.SUBCOMMANDS]
        passes.clear()
        assert run(capsys, "--bogus", "spectrum", "C(3,1,1)_3")[0] == 1
        assert passes == ["threshspec", "threshspec spectrum"]

    def test_a_token_before_the_command_reads_its_full_subparser(self, capsys):
        # the parent rejects the first token, and its message depends on the
        # arguments of the subparser named after it
        for args, message in (
            (["--bogus", "spectrum", "C(3,1)_3"], "unrecognized arguments: --bogus"),
            (
                ["--bogus", "spectrum"],
                "the following arguments are required: sequence",
            ),
            (["-x", "verify", "--n-max", "3", "--k", "3"], "unrecognized arguments: -x"),
        ):
            assert run(capsys, *args) == (1, "", f"error: {message}\n")

    def test_bad_inputs_exit_1(self, capsys):
        for args in (
            [],
            ["spectrum"],
            ["spectrum", "garbage"],
            ["spectrum", "C(2,1)_4"],  # first run below position k
            ["spectrum", "k=3;0,0,1", "--format", "yaml"],
            ["spectrum", "k=3;0,0,1", "--merge-tol", "-1"],
            ["spectrum", "k=3;0,0,1", "--merge-tol", "inf"],
            ["edges", "k=3;0,0,1", "--edge-cap", "0"],
            # options a subcommand does not read are refused, not ignored
            ["spectrum", "k=3;0,0,1", "--edge-cap", "5"],
            ["adjacency", "k=3;0,0,1", "--merge-tol", "1"],
            ["verify", "--n-max", "4", "--k", "3", "--merge-tol", "1"],
            ["scan", "--n-max", "4", "--k", "3", "--edge-cap", "5"],
            # and so are formats a subcommand does not write
            ["verify", "--n-max", "4", "--k", "3", "--format", "csv"],
            ["scan", "--n-max", "4", "--k", "3", "--format", "text"],
            ["spectrum", "k=3;0,0,1", "--verify", "--tol", "nan"],
            ["spectrum", "k=3;0,0,1", "--verify", "--tol", "inf"],
            ["spectrum", "k=3;0,0,1", "--verify", "--tol", "0"],
            ["verify", "--n-max", "-3", "--k", "3"],
            ["verify", "--n-max", "0", "--k", "3"],
            ["verify", "--n-max", "4", "--k", "3", "--budget", "0"],
            ["scan", "--n-max", "-3", "--k", "3"],
            ["scan", "--n-max", "4", "--k", "3", "--budget", "0"],
            ["scan", "--n-max", "4", "--k", "3", "--tol", "nan"],
            ["verify", "--n-max", "4", "--k", "x"],
            ["scan", "--n-max", "4", "--k", "1"],
            ["spectrum", "k=3;0,0,1", "--verify", "--tol", "abc"],
            ["verify", "--n-max", "abc", "--k", "3"],
            # verify sweeps under the fixed edge cap and takes no other
            ["verify", "--n-max", "4", "--k", "3", "--edge-cap", "5"],
        ):
            code, out, err = run(capsys, *args)
            assert code == 1, args
            assert err.startswith("error:")

    def test_disconnected_sequence_is_answered(self, capsys):
        # the trailing zero is an isolated vertex: its 0 comes from the
        # quotient, and the three twins of block 1 give -1 twice
        lines = [
            "lambda=2 mult=1 source=quotient",
            "lambda=0 mult=1 source=quotient",
            "lambda=-1 mult=2 source=block1",
        ]
        code, out, err = run(capsys, "spectrum", "k=3;0,0,1,0")
        assert (code, err) == (0, "")
        assert out.splitlines() == lines
        code, out, err = run(capsys, "spectrum", "k=3;0,0,1,0", "--verify")
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == lines
        assert out.splitlines()[3].endswith("status=ok")

    @pytest.mark.parametrize(
        "text, short",
        [
            ("k=3;0,0,1,0,0,0,1,0", None),
            ("k=3;0,0,0,1,1,1,0,1", "C(3,3,1,1)_3"),
            ("k=2;0,0", None),
            ("k=2;0,1", "C(2)_2"),
        ],
    )
    def test_structured_short_is_null_when_disconnected(self, capsys, text, short):
        # short-form text is read as connected, so a disconnected sequence
        # has none: each pair here once printed the same short form
        code, out, err = run(capsys, "spectrum", text, "--format", "structured")
        assert (code, err) == (0, "")
        doc = strict_json(out)
        assert doc["sequence"] == text and doc["short"] == short
        if short is not None:
            code, again, err = run(capsys, "spectrum", short, "--format", "structured")
            assert json.loads(again)["sequence"] == text


class TestOpenOutputDefects:
    """The closed route's known wrong outputs, each asserting the right
    answer until the ROADMAP item named in its mark mends it."""

    @staticmethod
    def values(capsys, text):
        code, out, err = run(capsys, "spectrum", text)
        assert code == 0 and err == ""
        return [line.split()[:2] for line in out.splitlines()]

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2(a): exact grouping at -gamma_t"
    )
    def test_a_block_value_and_an_equal_quotient_value_are_one_line(self, capsys):
        values = self.values(capsys, "C(3,3,1,2096)_3")
        lams = [lam for lam, _ in values]
        assert len(lams) == len(set(lams)) == 6
        assert ["lambda=-2101", "mult=2096"] in values

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2(a): exact grouping at -gamma_t"
    )
    @pytest.mark.parametrize(
        "text",
        [
            "k=3;0,0,1,0,0,0,1,0",
            "k=3;0,0,1,1,1,0,0,1,1,1,1,0",
            "k=5;0,0,0,0,1,1,1,1,0,0,1,0",
        ],
    )
    def test_a_double_zero_of_a_trailing_zeros_block_prints_0(self, capsys, text):
        # 0 is -gamma of the trailing zeros block and a double quotient
        # root; each prints a tiny nonzero with the right multiplicity
        assert ["lambda=0", "mult=2"] in self.values(capsys, text)

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 4(b): isolation by exact counts"
    )
    def test_the_star_at_n_10_12_prints_plus_minus_10_6(self, capsys):
        lams = [lam for lam, _ in self.values(capsys, "C(1000000000000,1)_2")]
        assert lams == ["lambda=1000000", "lambda=0", "lambda=-1000000"]

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 4(d): certified enclosures"
    )
    def test_an_exact_zero_quotient_value_prints_0(self, capsys):
        lams = [lam for lam, _ in self.values(capsys, "k=3;0,0,1,0,0,0,1")]
        assert "lambda=0" in lams


class TestEdgesCommand:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "edges", "k=4;0,0,0,1,1,0")
        assert code == 0
        assert out == "1,2,3,4\n1,2,3,5\n1,2,4,5\n1,3,4,5\n2,3,4,5\n"

    def test_structured_output(self, capsys):
        code, out, err = run(
            capsys, "edges", "k=4;0,0,0,1,1,0", "--format", "structured"
        )
        doc = json.loads(out)
        assert doc["edges"] == [
            [1, 2, 3, 4],
            [1, 2, 3, 5],
            [1, 2, 4, 5],
            [1, 3, 4, 5],
            [2, 3, 4, 5],
        ]

    def test_cap_exits_3(self, capsys):
        # C(393, 3) edges, the fewest of any C(n,1)_4 over the cap
        code, out, err = run(capsys, "edges", "C(393,1)_4")
        assert (code, out) == (3, "")
        assert err == "error: 10039316 edges exceed the cap of 10000000\n"


def test_caps_refuse_a_short_form_before_expanding_it(capsys, monkeypatch):
    # edges and adjacency check their caps on the runs: a short form over
    # a cap is refused without its n bits ever being built
    import threshspec.hypergraph as hypergraph
    import threshspec.sequences as sequences

    def no_expansion(ss):
        raise AssertionError("short form expanded to bits")

    monkeypatch.setattr(sequences, "to_binary", no_expansion)
    monkeypatch.setattr(hypergraph, "to_binary", no_expansion)
    assert run(capsys, "adjacency", "C(5000,1)_3") == (
        3,
        "",
        "error: a dense 5001x5001 matrix has 25010001 cells, over the cap of "
        "10000000\n",
    )
    assert run(capsys, "edges", "C(5000,1)_3") == (
        3,
        "",
        "error: 12497500 edges exceed the cap of 10000000\n",
    )
    # counts past the 4,300 digits Python converts to text are named by
    # their bit length, and still refused as over the cap
    for args, cap in (
        (("edges", "C(9000,11000)_9000"), "exceed the cap of 10000000"),
        (("adjacency", f"C({'9' * 4000},1)_2"), "over the cap of 10000000"),
    ):
        code, out, err = run(capsys, *args)
        assert (code, out) == (3, ""), args
        assert err.startswith("error: ") and " bits " in err and cap in err


NINES = "9" * 4400  # past the 4,300 digits Python's int() reads


def _args_id(args):
    return " ".join(a if len(a) < 40 else "<4400 digits>" for a in args)


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--n-max", "30000", "--k", "3"],
        ["scan", "--n-max", "30000", "--k", "2"],
        ["spectrum", f"C({NINES},1)_2"],
        ["edges", f"C({NINES},1)_2"],
        ["adjacency", f"C({NINES},1)_2"],
    ],
    ids=_args_id,
)
def test_oversized_inputs_are_refused_with_exit_3(capsys, args):
    # sizes past a cap, the budget or the precision limit are refused as
    # such, whatever their number of digits, with one line and no output
    code, out, err = run(capsys, *args)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exceeds the limit" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--n-max", "1000000000000", "--k", "2,3"],
        ["verify", "--n-max", "1000000000000000000", "--k", "3"],
        ["verify", "--n-max", NINES, "--k", "3"],
        ["scan", "--n-max", "1000000000000", "--k", "2,3"],
        ["scan", "--n-max", "1000000000000000000", "--k", "2"],
        ["scan", "--n-max", NINES, "--k", "2"],
    ],
    ids=_args_id,
)
def test_budget_refusal_is_immediate_at_any_n_max(args):
    # a fresh process under a timeout, so that a walk or a count that
    # grows with n_max fails here instead of hanging
    proc = _fresh(*args)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    assert b" bits sequences, over the budget of 100000" in proc.stderr


def _fresh(*args):
    """The CLI in a fresh process, under a timeout of 30 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "threshspec.cli", *args],
        capture_output=True,
        env=env,
        timeout=30,
    )


@pytest.mark.parametrize("args", [["spectrum", "C(3,1,1)_3"], ["-h"]], ids=_args_id)
def test_module_entry_point_reads_sys_argv(args, capsys, monkeypatch):
    # `python -m threshspec.cli` calls main() with no argv, so main reads
    # sys.argv itself; it must print what main(argv) prints
    monkeypatch.setenv("COLUMNS", "80")
    proc = _fresh(*args)
    try:
        expected = run(capsys, *args)
    except SystemExit as exc:  # -h
        expected = (exc.code, *capsys.readouterr())
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected
    assert proc.returncode == 0 and proc.stdout


HUGE_K = "1" + "0" * 4399  # 10**4399, past the 4,300 digits of int()


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "C(200000,1)_100000"],
        ["spectrum", "C(2000000,1)_1000000"],
        ["spectrum", f"C({HUGE_K},1)_{HUGE_K}"],
        ["family", "1", "--n", "200000", "--k", "100000"],
        ["family", "1", "--n", "2000000", "--k", "1000000"],
        ["family", "1", "--n", HUGE_K, "--k", "2"],
        ["family", "2", "--n", "100000000000000000", "--k", "3", "--j", "5"],
    ],
    ids=_args_id,
)
def test_precision_refusal_is_immediate_at_any_k(args):
    # the largest pair count is weighed before any exact binomial is
    # computed; these took seconds, or did not finish in a minute
    proc = _fresh(*args)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.startswith(b"error: precision limit: ")
    assert proc.stderr.count(b"\n") == 1 and b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["edges", "C(200000,1)_100000"],
        ["edges", "C(2000000,1)_1000000"],
        ["adjacency", "C(2000,1)_1000"],
    ],
    ids=_args_id,
)
def test_size_refusal_is_immediate_at_any_k(args):
    # edges weighed an exact total of 60,000 digits and more before its
    # cap (1.6 s at k = 10**5); adjacency printed 2.4 GB and exited 0
    proc = _fresh(*args)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    message = {
        "edges": b"at least a number of 14285 bits edges exceed the cap of 10000000",
        "adjacency": b"more than 39 digits each",
    }[args[0]]
    assert message in proc.stderr


def test_uniformities_of_any_length(capsys):
    # a k past 4,300 digits is read like any other: no sequence has it up
    # to n_max = 5, as none has k = 7
    assert run(capsys, "verify", "--n-max", "5", "--k", HUGE_K) == run(
        capsys, "verify", "--n-max", "5", "--k", "7"
    )
    assert run(capsys, "verify", "--n-max", "5", "--k", f"3,{HUGE_K}") == run(
        capsys, "verify", "--n-max", "5", "--k", "3"
    )
    # bad input still exits 1, and names the huge k by its bit length
    code, out, err = run(capsys, "spectrum", f"k={HUGE_K};0,1")
    assert (code, out) == (1, "")
    assert err == (
        "error: need at least a number of 14614 bits entries for uniformity "
        "a number of 14614 bits, got 2\n"
    )
    code, out, err = run(capsys, "family", "1", "--n", "5", "--k", HUGE_K)
    assert (code, out) == (1, "")
    assert err == "error: family 1 needs n >= k, got n=5, k=a number of 14614 bits\n"
    assert run(capsys, "family", "1", "--n", "x", "--k", "3") == (
        1,
        "",
        "error: argument --n: invalid int value: 'x'\n",
    )


def test_sequence_field_is_written_from_the_runs(capsys, monkeypatch):
    # spectrum --format structured and family print the bit form of a
    # short form without building its n bits
    import threshspec.hypergraph as hypergraph
    import threshspec.sequences as sequences

    def no_expansion(ss):
        raise AssertionError("short form expanded to bits")

    monkeypatch.setattr(sequences, "to_binary", no_expansion)
    monkeypatch.setattr(hypergraph, "to_binary", no_expansion)
    bits = "k=3;" + "0," * 3000 + "1"
    code, out, err = run(capsys, "spectrum", "C(3000,1)_3", "--format", "structured")
    assert (code, err, strict_json(out)["sequence"]) == (0, "", bits)
    code, out, err = run(capsys, "family", "1", "--n", "3001", "--k", "3")
    assert (code, err, out.splitlines()[1]) == (0, "", "sequence=" + bits)
    code, out, err = run(
        capsys, "family", "1", "--n", "3001", "--k", "3", "--format", "csv"
    )
    assert (code, err.splitlines()[1]) == (0, "sequence=" + bits)
    code, out, err = run(
        capsys, "family", "3", "--n", "3004", "--k", "3", "--format", "structured"
    )
    assert (code, err) == (0, "")
    assert strict_json(out)["sequence"] == "k=3;0,0,1," + "0," * 3000 + "1"


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "C(3,2)_3", "--verify"],
        ["edges", "C(3,2)_3"],
        ["adjacency", "C(3,2)_3"],
        ["verify", "--n-max", "4", "--k", "2,3"],
        ["family", "2", "--n", "6", "--k", "3", "--j", "4"],
        ["scan", "--n-max", "4", "--k", "2"],
    ],
    ids=_args_id,
)
def test_structured_output_is_written_as_it_is_encoded(args, capsys, monkeypatch):
    # json.dumps builds the whole text before writing it; `edges` peaked
    # at about 600 bytes an edge that way, over five times the text form
    def whole_text(*_, **__):
        raise AssertionError("structured output built whole")

    monkeypatch.setattr(json, "dumps", whole_text)
    code, out, err = run(capsys, *args, "--format", "structured")
    assert code == 0
    assert strict_json(out)


def test_a_long_piece_is_written_in_slices():
    # the `sequence` field of a large n was joined whole into its batch, a
    # third copy of it; the text stays that of json's encoder, with the
    # long piece in a later batch than the first
    class Writes(list):
        write = list.append

    long = "k=3;0" + ",0" * cli._JSON_SLICE
    doc = {"pairs": [{"value": 1.5, "source": "block1"}] * 1000, "sequence": long}
    out = Writes()
    cli._write_json(doc, out)
    assert "".join(out) == json.JSONEncoder(indent=2).encode(doc) + "\n"
    assert max(map(len, out)) == cli._JSON_SLICE < len(long)


FAMILY_PAST_BIT_CAP = ["family", "1", "--n", "9007199254740993", "--k", "2"]


@pytest.mark.parametrize(
    "args",
    [
        FAMILY_PAST_BIT_CAP,
        FAMILY_PAST_BIT_CAP + ["--format", "csv"],
        FAMILY_PAST_BIT_CAP + ["--format", "structured"],
        ["spectrum", "C(4503599627370496,3)_2", "--format", "structured"],
    ],
    ids=_args_id,
)
def test_bit_form_over_its_cap_is_refused_before_any_output(args):
    # writing these bit forms died with a MemoryError traceback (exit 1),
    # after `short=` in text; a fresh process keeps any such failure out
    # of the test process
    proc = _fresh(*args)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.startswith(b"error: the bit form of ")
    assert proc.stderr.count(b"\n") == 1 and b"Traceback" not in proc.stderr
    assert b"characters, over the cap of 160000000" in proc.stderr


class TestAdjacencyCommand:
    def test_csv_rows(self, capsys):
        code, out, err = run(capsys, "adjacency", "C(3,1,1)_3")
        assert code == 0
        assert out == (
            "0,2,2,1,3\n"
            "2,0,2,1,3\n"
            "2,2,0,1,3\n"
            "1,1,1,0,3\n"
            "3,3,3,3,0\n"
        )

    def test_structured(self, capsys):
        code, out, err = run(
            capsys, "adjacency", "k=2;0,1", "--format", "structured"
        )
        assert json.loads(out)["entries"] == [[0, 1], [1, 0]]


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--n-max", "5", "--k", "2,3")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "all checks passed"
        names = [line.split()[0] for line in lines[:-1]]
        assert names == [
            "sweep=oracle_equivalence",
            "sweep=two_route",
            "sweep=uniqueness",
            "sweep=replaceability_totality",
            "sweep=complement_partition",
        ]
        assert all(line.endswith("failed=0") for line in lines[:-1])

    def test_structured(self, capsys):
        code, out, err = run(
            capsys, "verify", "--n-max", "4", "--k", "2", "--format", "structured"
        )
        doc = json.loads(out)
        assert doc["ok"] is True
        assert len(doc["sweeps"]) == 5
        assert all(s["failed"] == 0 for s in doc["sweeps"])

    def test_budget_exits_3(self, capsys):
        code, out, err = run(capsys, "verify", "--n-max", "30", "--k", "3")
        assert code == 3
        assert "over the budget" in err


class TestFamilyCommand:
    def test_clique_head(self, capsys):
        code, out, err = run(capsys, "family", "3", "--n", "5", "--k", "3")
        assert code == 0
        assert out == (
            "short=C(3,1,1)_3\n"
            "sequence=k=3;0,0,1,0,1\n"
            "lambda=8.71311048445 mult=1 source=quotient\n"
            "lambda=-0.489070240071 mult=1 source=quotient\n"
            "lambda=-2 mult=2 source=block1\n"
            "lambda=-4.22404024438 mult=1 source=quotient\n"
        )

    def test_matches_spectrum_command(self, capsys):
        # every family hands its profile to the quotient solver of the
        # closed route, so it prints the same digits as spectrum; the two
        # n = 400 cases have quotient coefficients beyond 2**53, but counts
        # below it
        cases = [("1", "400", "6"), ("2", "400", "6", "--j", "200")]
        cases += [
            ("1", str(n), str(k)) for k in range(2, 7) for n in range(k, 31, 3)
        ]
        cases += [
            ("2", str(n), str(k), "--j", str(j))
            for k in range(2, 7)
            for n in range(k + 1, 31, 4)
            for j in range(k, n, 2)
        ]
        cases += [
            ("3", str(n), str(k)) for k in range(2, 7) for n in range(k + 2, 31)
        ]
        for family, n, k, *j in cases:
            _, fam_out, _ = run(capsys, "family", family, "--n", n, "--k", k, *j)
            lines = fam_out.splitlines()
            _, spec_out, _ = run(capsys, "spectrum", lines[1][len("sequence=") :])
            assert lines[2:] == spec_out.splitlines(), (family, n, k)

    def test_bad_parameters_exit_1(self, capsys):
        for args in (
            ["family", "3", "--n", "4", "--k", "3"],
            ["family", "2", "--n", "6", "--k", "3"],  # j is required
            ["family", "9", "--n", "6", "--k", "3"],
            ["family", "1", "--n", "2", "--k", "3"],
            ["family", "3", "--n", "5", "--k", "3", "--j", "4"],  # j is family 2's
        ):
            code, out, err = run(capsys, *args)
            assert code == 1, args
        code, out, err = run(capsys, "family", "1", "--n", "5", "--k", "1")
        assert (code, out) == (1, "")
        assert err == "error: uniformity must be at least 2, got 1\n"


class TestScanCommand:
    def test_small_graph_scan(self, capsys):
        code, out, err = run(capsys, "scan", "--n-max", "4", "--k", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sequence,n,k,r,min_quotient_gap,flagged"
        # the sequence field holds commas, so csv quoting kicks in
        assert lines[1] == '"k=2;0,1",2,2,1,inf,0'
        assert len(lines) == 1 + 7
        assert all(line.endswith(",0") for line in lines[1:])
        assert err == "sequences=7 flagged=0 min_gap=1.79230212156\n"

    def test_structured(self, capsys):
        code, out, err = run(
            capsys, "scan", "--n-max", "4", "--k", "2", "--format", "structured"
        )
        doc = json.loads(out)
        assert doc["sequences"] == 7
        assert doc["flagged"] == 0
        assert len(doc["rows"]) == 7
        assert doc["rows"][0]["r"] == 1

    def test_structured_is_strict_json(self, capsys):
        # JSON has no Infinity: a single-block row and an empty scan have
        # no quotient gap and say null, while text and CSV keep inf
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        code, out, err = run(
            capsys, "scan", "--n-max", "3", "--k", "2", "--format", "structured"
        )
        doc = json.loads(out, parse_constant=refuse)
        assert [row["min_quotient_gap"] for row in doc["rows"]] == [
            None,
            2.8284271247461907,
            None,
        ]
        assert doc["min_gap"] == 2.8284271247461907
        code, out, err = run(
            capsys, "scan", "--n-max", "1", "--k", "2", "--format", "structured"
        )
        doc = json.loads(out, parse_constant=refuse)
        assert doc["rows"] == [] and doc["min_gap"] is None
        assert err == "sequences=0 flagged=0 min_gap=inf\n"

    def test_budget_exits_3(self, capsys):
        # 2**17 - 1 = 131,071 connected sequences
        code, out, err = run(capsys, "scan", "--n-max", "18", "--k", "2")
        assert code == 3
        assert "over the budget" in err


@pytest.mark.parametrize(
    "args, lines",
    [
        (["scan", "--n-max", "14", "--k", "3"], 1),
        (["edges", "C(200,1)_3"], 1),
        # short output stays in the stdout buffer until the final flush
        (["spectrum", "C(3,1)_3"], 0),
    ],
)
def test_closed_stdout_exits_141(args, lines):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "threshspec.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    assert err == b""
