"""Seeded operation generators and the independent output checks.

Each workload is an endless stream of CLI operations drawn from one
`random.Random(seed)`; the program sees only the generated argv.  The
checks recompute what every output must satisfy from the definition of a
threshold hypergraph, with `math.comb` and nothing from threshspec.
"""

import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

WORKLOADS = ("many_runs", "few_runs", "checks")

#: Operations per stratification period: a pass over (k, r) in few_runs,
#: one round of nine in checks, a pass over (k, run-count stratum) in
#: many_runs.
ROUND_SIZE = {"many_runs": 46, "few_runs": 6, "checks": 9}

#: Operations per second of a run, harness included, at reference speed on
#: a 2-vCPU Intel Xeon virtual machine.  A run's operation list is fixed by
#: its seed and its length in seconds, not by the clock, so two runs with
#: one seed attempt the same operations and fail the same ones.
OPS_PER_SECOND = {"many_runs": 4.6, "few_runs": 4.4, "checks": 2.7}

K_VALUES = (3, 6)
MANY_RUNS_N = 120
MANY_RUNS_STRATA = 23
FEW_RUNS_N = 800
FEW_RUNS_R = (2, 3, 4)
VERIFIED_N = 40
VERIFY_N_MAX = (8, 9, 10)
VERIFY_K_SETS = tuple(
    ks for size in (1, 2, 3) for ks in itertools.combinations((2, 3, 4), size)
)
SCAN_N_MAX = (11, 12, 13)
SCAN_K = (2, 3, 4)

#: Relative tolerance of the trace and sum-of-squares checks.  Output is
#: printed to 12 significant digits, so a correct spectrum sits about
#: three orders of magnitude inside it.
REL_TOL = 1e-9

SWEEPS = (
    "oracle_equivalence",
    "two_route",
    "uniqueness",
    "replaceability_totality",
    "complement_partition",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the check needs to know about it."""

    kind: str  # "spectrum", "spectrum_verify", "verify" or "scan"
    argv: tuple[str, ...]
    k_values: tuple[int, ...]
    n: int  # vertices for spectrum kinds, n_max for sweeps
    bits: tuple[int, ...] = ()


def comb(a: int, b: int) -> int:
    """Binomial coefficient, zero outside 0 <= b <= a."""
    return math.comb(a, b) if 0 <= b <= a else 0


def frobenius_sq(k: int, bits: tuple[int, ...]) -> int:
    """Exact sum of squared pair counts, from the definition.

    A pair i < j (1-based) lies in comb(j-2, k-2) edges peaking at j when
    bit j is 1, and in comb(v-3, k-3) edges peaking at each later v whose
    bit is 1.  That count depends only on j, and j - 1 pairs share it.
    """
    total = 0
    later = 0
    for j in range(len(bits), 1, -1):
        own = comb(j - 2, k - 2) if bits[j - 1] else 0
        total += (j - 1) * (own + later) ** 2
        if bits[j - 1]:
            later += comb(j - 3, k - 3)
    return 2 * total


def run_count(k: int, bits: tuple[int, ...]) -> int:
    """Blocks of the short form: maximal runs, with the forced zeros and a
    first run of ones merged when bit k is 1."""
    r = 1 + sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    return r - 1 if len(bits) >= k and bits[k - 1] == 1 else r


def sequence_count(n_max: int, k_values, connected: bool) -> int:
    """Sequences a sweep visits: all valid ones of size k-1..n_max, or the
    connected ones of size k..n_max."""
    total = 0
    for k in k_values:
        for n in range(k - 1, n_max + 1):
            if n == k - 1:
                total += 0 if connected else 1
            else:
                total += 2 ** (n - k + (0 if connected else 1))
    return total


def _random_bits(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    middle = [rng.getrandbits(1) for _ in range(n - k)]
    return tuple([0] * (k - 1) + middle + [1])


def transition_quantile(m: int, level: float) -> int:
    """Quantile at `level` of the number of value changes along m + 1 bits
    that start at 0 and end at 1 with the m - 1 bits between them uniform:
    an odd t, with probability comb(m, t) / 2**(m - 1)."""
    target = level * 2 ** (m - 1)
    total = 0
    for t in range(1, m + 1, 2):
        total += math.comb(m, t)
        if total >= target:
            return t
    raise ValueError(f"level {level} is not in (0, 1]")


def _bits_with_transitions(
    rng: random.Random, n: int, k: int, t: int
) -> tuple[int, ...]:
    """k - 1 forced zeros, then n - k + 1 bits ending in 1 whose t value
    changes sit at uniformly random places: uniform random bits given
    their number of changes."""
    cuts = set(rng.sample(range(n - k + 1), t))
    bits, value = [0] * (k - 1), 0
    for place in range(n - k + 1):
        value ^= place in cuts
        bits.append(value)
    return tuple(bits)


def _bit_text(k: int, bits: tuple[int, ...]) -> str:
    return f"k={k};" + ",".join(map(str, bits))


def _expand_runs(k: int, runs: list[int]) -> tuple[int, ...]:
    """Bits of a connected short form; an odd run count merges the head."""
    if len(runs) % 2:
        bits = [0] * (k - 1) + [1] * (runs[0] - k + 1)
        value = 0
    else:
        bits = [0] * runs[0]
        value = 1
    for length in runs[1:]:
        bits.extend([value] * length)
        value = 1 - value
    return tuple(bits)


def _spectrum_op(kind: str, k: int, bits: tuple[int, ...], text: str) -> Op:
    argv = ("spectrum", text) + (("--verify",) if kind == "spectrum_verify" else ())
    return Op(kind, argv, (k,), len(bits), bits)


def _cycle(rng: random.Random, items) -> Iterator:
    """Every item once per pass, each pass in a fresh seeded order."""
    items = tuple(items)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def operation_count(workload: str, seconds: float) -> int:
    """Length of a run of `seconds`: whole rounds, at least one, so every
    run has the workload's exact mix."""
    size = ROUND_SIZE[workload]
    return size * max(1, round(seconds * OPS_PER_SECOND[workload] / size))


def operations(workload: str, seed: int, seconds: float) -> list[Op]:
    """The operations of one run, the same for the same seed and length."""
    count = operation_count(workload, seconds)
    return list(itertools.islice(generate(workload, seed), count))


def generate(workload: str, seed: int) -> Iterator[Op]:
    """Endless operation stream of a workload.

    The mix is stratified rather than drawn independently: k, r, n_max
    and the uniformity sets cycle through every value in seeded order, so
    runs with different seeds see the same proportions and differ only in
    order and in the random bits.  In many_runs the number of runs is
    stratified too: each round draws one sequence per k at each of
    `MANY_RUNS_STRATA` evenly spaced quantiles of the run count of uniform
    random bits, with the runs' boundaries placed at random.
    """
    rng = random.Random(seed)
    if workload == "many_runs":
        m = {k: MANY_RUNS_N - k + 1 for k in K_VALUES}
        strata = [
            (k, transition_quantile(m[k], (j + 0.5) / MANY_RUNS_STRATA))
            for k in K_VALUES
            for j in range(MANY_RUNS_STRATA)
        ]
        for k, t in _cycle(rng, strata):
            bits = _bits_with_transitions(rng, MANY_RUNS_N, k, t)
            yield _spectrum_op("spectrum", k, bits, _bit_text(k, bits))
    elif workload == "few_runs":
        for k, r in _cycle(rng, itertools.product(K_VALUES, FEW_RUNS_R)):
            cuts = sorted(rng.sample(range(k + 1, FEW_RUNS_N), r - 1))
            runs = [b - a for a, b in zip([0] + cuts, cuts + [FEW_RUNS_N])]
            text = f"C({','.join(map(str, runs))})_{k}"
            yield _spectrum_op("spectrum", k, _expand_runs(k, runs), text)
    elif workload == "checks":
        verify_k = {n: _cycle(rng, VERIFY_K_SETS) for n in VERIFY_N_MAX}
        scan_k = {n: _cycle(rng, SCAN_K) for n in SCAN_N_MAX}
        verified_k = itertools.cycle(K_VALUES)
        while True:
            round_ = []
            for n_max in VERIFY_N_MAX:
                ks = next(verify_k[n_max])
                argv = ("verify", "--n-max", str(n_max), "--k", ",".join(map(str, ks)))
                round_.append(Op("verify", argv, ks, n_max))
            for n_max in SCAN_N_MAX:
                k = next(scan_k[n_max])
                argv = ("scan", "--n-max", str(n_max), "--k", str(k))
                round_.append(Op("scan", argv, (k,), n_max))
            for _ in range(3):
                k = next(verified_k)
                bits = _random_bits(rng, VERIFIED_N, k)
                round_.append(
                    _spectrum_op("spectrum_verify", k, bits, _bit_text(k, bits))
                )
            rng.shuffle(round_)
            yield from round_
    else:
        raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """What one operation's output showed."""

    wrong: str | None = None  # an answer the independent check refutes
    refused: str | None = None  # a non-zero exit with a correct answer
    sequences: int = 1  # sequences the operation visited


def check(op: Op, code: int, out: str, err: str) -> Outcome:
    """Check one operation's exit code and output against the definition."""
    if op.kind.startswith("spectrum"):
        return _check_spectrum(op, code, out)
    if op.kind == "verify":
        return _check_verify(op, code, out)
    return _check_scan(op, code, out, err)


def _check_spectrum(op: Op, code: int, out: str) -> Outcome:
    k = op.k_values[0]
    values, status = [], None
    for line in out.splitlines():
        fields = dict(part.split("=", 1) for part in line.split())
        if "lambda" in fields:
            values.append((float(fields["lambda"]), int(fields["mult"])))
        elif "status" in fields:
            status = fields["status"]
    res = Outcome()
    if not values:
        res.wrong = f"exit {code}, no eigenvalues printed"
        return res
    fro = frobenius_sq(k, op.bits)
    mult = sum(m for _, m in values)
    trace = sum(v * m for v, m in values)
    squares = sum(v * v * m for v, m in values)
    if mult != op.n:
        res.wrong = f"multiplicities sum to {mult}, expected {op.n}"
    elif abs(trace) > REL_TOL * math.sqrt(op.n * fro):
        res.wrong = f"trace {trace} is not 0 (|A|_F^2 = {fro})"
    elif abs(squares - fro) > REL_TOL * fro:
        res.wrong = f"sum of m*lambda^2 is {squares}, expected {fro}"
    elif op.kind == "spectrum_verify" and status is None:
        res.wrong = "no verification line"
    if code != 0 or status not in (None, "ok"):
        res.refused = f"exit {code}, status={status}"
    return res


def _check_verify(op: Op, code: int, out: str) -> Outcome:
    every = sequence_count(op.n, op.k_values, connected=False)
    connected = sequence_count(op.n, op.k_values, connected=True)
    expected = [
        f"sweep={name} checked={connected if name == 'two_route' else every} failed=0"
        for name in SWEEPS
    ] + ["all checks passed"]
    lines = out.splitlines()
    res = Outcome(sequences=4 * every + connected)
    if lines != expected:
        res.wrong = f"exit {code}, output {lines!r} != {expected!r}"
    elif code != 0:
        res.refused = f"exit {code}"
    return res


def _check_scan(op: Op, code: int, out: str, err: str) -> Outcome:
    expected = sequence_count(op.n, op.k_values, connected=True)
    rows = out.splitlines()[1:]
    res = Outcome(sequences=expected)
    if len(rows) != expected or f"sequences={expected} " not in err:
        res.wrong = f"exit {code}, {len(rows)} rows, expected {expected}"
    elif code != 0:
        res.refused = f"exit {code}"
    return res
