"""Every size and work cap, hit from a child process.

Each call runs the CLI in its own interpreter under an address-space
limit of 1 GiB and a 10 s timeout, with an input just over one cap or
far past it: an unbounded allocation dies of memory or of the timeout
here, where an in-process test would take the test run down with it.
A refusal exits 3 (1 for invalid input) with a message on stderr, no
traceback and nothing on stdout.  No option raises a cap, so the grid
holds every call over one.  Inputs under a cap, which may take long by
design (`spectrum "C(999,1)_3" --verify`), are not run.
"""

import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from threshspec.sequences import ShortSequence, format_short
from threshspec.combinatorics import CLOSED_WORK_CAP

SRC = str(Path(__file__).resolve().parent.parent / "src")
ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 10
HUGE = str(10**18)
HUGE_LESS_1 = str(10**18 - 1)
JUST_OVER_BUDGET = "131071 sequences, over the budget of 100000"
JUST_OVER_SUBSETS = (
    "120511624 vertex pairs of k-subsets, over the budget of 120000000"
)


def _over_the_closed_cap() -> str:
    r = math.isqrt(CLOSED_WORK_CAP) + 1
    return format_short(ShortSequence(2, (2,) + (1,) * (r - 1)))


#: (argv, exit code, text the message holds)
CALLS = [
    # r**2 over CLOSED_WORK_CAP
    (["spectrum", _over_the_closed_cap()], 3, "r**2"),
    # a pair count past 2**53, by k and by a run length
    (["spectrum", "C(100,1)_50"], 3, "precision limit"),
    (["spectrum", f"C({HUGE},1)_2"], 3, "precision limit"),
    (["family", "3", "--n", HUGE, "--k", "3"], 3, "precision limit"),
    # the dense cells, digits and eigensolve work
    (["adjacency", "C(5000,1)_2"], 3, "cells, over the cap"),
    (["adjacency", "C(3000,1)_1000"], 3, "digits"),
    (["spectrum", "C(1001,1)_2", "--verify"], 3, "dense eigensolve"),
    # the edge list, just over its cap and far past it
    (["edges", "C(393,1)_4"], 3, "10039316 edges exceed the cap of 10000000"),
    (["edges", f"C({HUGE},1)_3"], 3, "edges exceed the cap"),
    # the vertices of the edge list, just over their cap
    (["edges", "C(120,1)_5"], 3, "41072850 entries, over the cap of 40000000"),
    # k at n: one edge of all n vertices
    (["spectrum", f"C({HUGE})_{HUGE}"], 3, "precision limit"),
    (["adjacency", f"C({HUGE})_{HUGE}"], 3, "cells, over the cap"),
    # the text of the creation bits; at n = 10**18 the run length is past
    # 2**53 and the precision limit comes first
    (["family", "1", "--n", str(10**15), "--k", "2"], 3, "the bit form of"),
    (["family", "1", "--n", HUGE, "--k", "2"], 3, "precision limit"),
    (["family", "2", "--n", HUGE, "--k", "3", "--j", "3"], 3, "precision limit"),
    # the sequence budget of both sweeps, just over it and far past it
    (["verify", "--n-max", "17", "--k", "2"], 3, JUST_OVER_BUDGET),
    (["scan", "--n-max", "18", "--k", "2"], 3, JUST_OVER_BUDGET),
    (["verify", "--n-max", HUGE, "--k", "3"], 3, "over the budget"),
    (["scan", "--n-max", HUGE, "--k", "3"], 3, "over the budget"),
    (["verify", "--n-max", HUGE, "--k", "2,3,4"], 3, "over the budget"),
    (["scan", "--n-max", HUGE, "--k", "2,3,4"], 3, "over the budget"),
    # the vertex pairs of the verify walk's k-subsets, just over their
    # budget and far past it within the sequence budget
    (["verify", "--n-max", "15", "--k", "8,12"], 3, JUST_OVER_SUBSETS),
    (["verify", "--n-max", "22", "--k", "8"], 3, "855510089616 vertex pairs"),
    # k = n_max: the walks are within the sequence budget, and their
    # sequences not; verify's one edge of every vertex is over the subset
    # budget first, and the lone zero run of n = k - 1 has no k-subset
    (["verify", "--n-max", HUGE, "--k", HUGE], 3, "vertex pairs of k-subsets"),
    (["scan", "--n-max", HUGE, "--k", HUGE], 3, "precision limit"),
    (["verify", "--n-max", "200000000", "--k", "200000001"], 3, "cells, over"),
    # invalid input at the same sizes, k at n + 1 among it
    (["spectrum", f"C(3,1)_{HUGE}"], 1, "error:"),
    (["family", "2", "--n", HUGE, "--k", "3", "--j", HUGE], 1, "family 2"),
    (["spectrum", f"C({HUGE_LESS_1})_{HUGE}"], 1, "cannot hold"),
    (["edges", f"C({HUGE_LESS_1})_{HUGE}"], 1, "cannot hold"),
    (["adjacency", f"C({HUGE_LESS_1})_{HUGE}"], 1, "cannot hold"),
]


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _assert_refused(argv, code, message):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "threshspec.cli", *argv],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        env=env,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == code, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error:")
    assert message in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    ("argv", "code", "message"), CALLS, ids=[" ".join(c[0])[:48] for c in CALLS]
)
def test_a_call_over_a_cap_is_refused_in_bounded_memory(argv, code, message):
    _assert_refused(argv, code, message)


def test_an_edge_of_every_vertex_is_refused_in_bounded_memory():
    _assert_refused(["edges", f"C({HUGE})_{HUGE}"], 3, "the cap")
