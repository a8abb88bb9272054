import hashlib
import math
import random
import struct
import sys

import numpy as np
import pytest

from threshspec.combinatorics import FLOAT_SAFE_LIMIT, binomial
from threshspec.errors import (
    ConvergenceError,
    CountTooLargeError,
    ResourceLimitError,
    SequenceError,
)
from threshspec import combinatorics, oracle, quotient, scan, sequences, spectrum
from threshspec.cli import main
from threshspec.hypergraph import ThresholdHypergraph
from threshspec.oracle import (
    adjacency_bruteforce,
    full_spectrum_numeric,
    householder_ql_eigenvalues,
)
from threshspec.sequences import (
    ShortSequence,
    count_valid_sequences,
    format_bits,
    format_short,
    iter_short_sequences,
    iter_valid_sequences,
    to_binary,
    to_short,
)
from threshspec.families import family_sequence, family_spectrum_symbolic
from threshspec.quotient import (
    QuotientMatrix,
    jacobi_eigenvalues,
    quotient_matrix,
    symmetrize_quotient,
)
from threshspec.scan import ScanRow, scan_quotient_simplicity
from threshspec.spectrum import (
    MERGE_TOL,
    BlockProfile,
    block_eigenvalues,
    block_profile,
    full_spectrum_closed,
    quotient_eigenvalues,
)


def hg(text):
    return ThresholdHypergraph.from_text(text)


def connected_hypergraphs(n_max, k_range=range(2, 8)):
    for k in k_range:
        for n in range(k, n_max + 1):
            for seq in iter_valid_sequences(n, k, connected_only=True):
                yield ThresholdHypergraph(seq)


def block_collapse(entries, sizes):
    """Quotient of a dense matrix: row sums of each block's first vertex."""
    cuts = [0]
    for a in sizes:
        cuts.append(cuts[-1] + a)
    return tuple(
        tuple(sum(entries[cuts[s]][cuts[t] : cuts[t + 1]]) for t in range(len(sizes)))
        for s in range(len(sizes))
    )


class TestBlockProfile:
    def test_later_ones_block_counts(self):
        # a zeros block sees only the edges its pair closes in later ones
        # blocks: sum of binomial(p - 3, k - 3) over their positions p
        assert block_profile(ShortSequence(3, (4, 1))).gamma[0] == 1
        assert block_profile(ShortSequence(3, (3, 2))).gamma[0] == 2
        assert block_profile(ShortSequence(4, (4, 2))).gamma[0] == 5
        merged = ShortSequence(3, (3, 1, 1), first_run_has_ones=True)
        assert block_profile(merged).gamma[1] == 1

    def test_ones_block_counts(self):
        # a ones block adds binomial(P - 2, k - 2), P its last position
        assert block_profile(ShortSequence(3, (4, 1))).gamma[1] == 3
        assert block_profile(ShortSequence(3, (3, 2))).gamma[1] == 3
        assert block_profile(ShortSequence(4, (4, 2))).gamma[1] == 6
        merged = ShortSequence(3, (3, 1, 1), first_run_has_ones=True)
        assert block_profile(merged).gamma == (1 + 1, 1, 3)

    def test_matches_bruteforce_collapse(self):
        # every connected sequence with n <= 9, k = 2..5, against the
        # edge-list recount and numpy
        checked = 0
        for h in connected_hypergraphs(9, range(2, 6)):
            ss = to_short(h.sequence)
            brute = adjacency_bruteforce(h)
            profile = block_profile(ss)
            q = quotient_matrix(h.runs)
            assert q.entries == block_collapse(brute.entries, ss.runs)
            fro_sq = profile.frobenius_sq
            assert fro_sq == brute.frobenius_sq()
            root = np.sqrt(np.array(ss.runs, dtype=float))
            sym = np.array(q.entries, dtype=float) * root[:, None] / root[None, :]
            want = np.linalg.eigvalsh((sym + sym.T) / 2)[::-1]
            got = quotient_eigenvalues(profile)
            assert np.max(np.abs(np.array(got) - want)) <= 1e-13 * math.sqrt(fro_sq)
            checked += 1
        assert checked == sum(2 ** (n - k) for k in range(2, 6) for n in range(k, 10))

    def test_unequal_block_raises(self, monkeypatch):
        # gamma and the edge count come from two binomial families that
        # agree only through the hockey-stick identity, so break binomial:
        # the identity check must notice that the pair total is off
        import threshspec.hypergraph as hypergraph

        def broken(n, k):
            return math.comb(n, k) + n if 0 <= k <= n else 0

        monkeypatch.setattr(hypergraph, "binomial", broken)
        with pytest.raises(RuntimeError, match="pair counts of C.3,3._3 sum to"):
            block_profile(ShortSequence(3, (3, 3)))


class TestInertia:
    def test_counts_bracket_every_eigenvalue(self):
        eps = np.finfo(float).eps
        for h in connected_hypergraphs(8, range(2, 6)):
            ss = to_short(h.sequence)
            profile = block_profile(ss)
            delta = 4 * eps * math.sqrt(profile.frobenius_sq)
            ascending = sorted(quotient_eigenvalues(profile))
            count = spectrum._Pencil.of(profile).count
            for i, v in enumerate(ascending):
                assert count(v - delta) <= i
                assert count(v + delta) > i

    def test_exact_zero_pivot(self):
        # at lam = gamma_r (a_r - 1) the first pivot gamma_r - m_r is exactly
        # zero when a_r is a power of two; the count must still be right
        hits = 0
        for h in connected_hypergraphs(9, range(2, 6)):
            ss = to_short(h.sequence)
            a, g = ss.runs[-1], block_profile(ss).gamma[-1]
            if a not in (1, 2, 4):
                continue
            lam = float(g * (a - 1))
            assert g - (g + lam) * (1.0 / a) == 0.0
            q = np.array(quotient_matrix(h.runs).entries, dtype=float)
            w = np.linalg.eigvals(q).real
            if np.min(np.abs(w - lam)) < 1e-6:
                continue  # lam is an eigenvalue (always so for r = 1)
            want = int(np.sum(w < lam))
            assert spectrum._Pencil.of(block_profile(ss)).count(lam) == want
            hits += 1
        assert hits > 100
        # k=2;0,0,1,1: quotient [[0, 2], [2, 1]] has one eigenvalue below 1
        bp = BlockProfile(ShortSequence(2, (2, 2)), (0, 1))
        assert spectrum._Pencil.of(bp).count(1.0) == 1

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError, match="one pair count per run"):
            BlockProfile(ShortSequence(3, (3,)), (1, 2))
        with pytest.raises(ValueError, match="one pair count per run"):
            BlockProfile(ShortSequence(3, (3, 1)), (1,))


class TestClosedRouteStaysOffDense:
    def test_no_adjacency_on_closed_route(self, monkeypatch, capsys):
        # the dense matrix and the dense solvers belong to the numeric
        # oracle and the direct pair count to the two-route sweep; none runs
        # on this route
        def refuse(*args, **kwargs):
            raise AssertionError("the closed route left its own code path")

        monkeypatch.setattr(ThresholdHypergraph, "adjacency", refuse)
        monkeypatch.setattr(ThresholdHypergraph, "pair_count", refuse)
        monkeypatch.setattr(quotient, "jacobi_eigenvalues", refuse)
        monkeypatch.setattr(oracle, "householder_ql_eigenvalues", refuse)
        sp = full_spectrum_closed(hg("C(1500,1500)_3").runs)
        assert sum(p.multiplicity for p in sp.pairs) == 3000
        assert main(["scan", "--n-max", "8", "--k", "3"]) == 0
        assert capsys.readouterr().err.startswith("sequences=63 ")
        assert main(["family", "3", "--n", "9", "--k", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "short=C(3,5,1)_3"
        assert sum(int(line.split()[1][5:]) for line in lines[2:]) == 9
        # gamma comes from the runs, so short-form text is never expanded
        # to bits; the patched __init__ catches every bit sequence,
        # whichever module builds it
        import threshspec.sequences as sequences

        monkeypatch.setattr(sequences, "to_binary", refuse)
        monkeypatch.setattr(sequences.BinarySequence, "__init__", refuse)
        assert main(["spectrum", "C(500000,500000)_3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(int(line.split()[1][5:]) for line in lines) == 10**6


def assert_tridiagonal_matches_eigvalsh(d, e):
    """Rational QL agrees with LAPACK within 1e-13 |T|_F."""
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    got = sorted(spectrum._rational_ql(list(d), [x * x for x in e]))
    want = np.linalg.eigvalsh(t) if len(d) else []
    bound = 1e-13 * max(1.0, float(np.linalg.norm(t)))
    assert len(got) == len(want)
    assert all(abs(a - b) <= bound for a, b in zip(got, want)), (d, e)


class TestClosedRouteRefusals:
    def test_precision_refusal_comes_before_the_binomials(self, monkeypatch):
        # binomial(2*10**6 - 1, 10**6 - 2) alone took seconds; the refusal
        # now reads no exact binomial at all
        def refuse(*args):
            raise AssertionError("an exact binomial was computed")

        import threshspec.hypergraph as hypergraph

        monkeypatch.setattr(hypergraph, "binomial", refuse)
        for call in (
            lambda: full_spectrum_closed(ShortSequence(10**6, (2 * 10**6, 1))),
            lambda: family_spectrum_symbolic(1, 2 * 10**6, 10**6),
            lambda: family_spectrum_symbolic(2, 10**17, 3, 5),
            lambda: family_spectrum_symbolic(3, 10**17, 3),
            # disconnected: the pair count up to the last bit 1, at 2*10**6
            lambda: full_spectrum_closed(ShortSequence(10**6, (10**6, 10**6, 1))),
        ):
            with pytest.raises(CountTooLargeError, match="pair count binomial"):
                call()

    def test_a_long_zero_tail_is_not_a_precision_refusal(self, capsys):
        # every gamma is at most 1; binomial(n-2, k-2) = binomial(22004, 4)
        # would pass 2**53, but no edge reaches past vertex 6
        text = "k=6;0,0,0,0,0,1" + ",0" * 22000
        assert main(["spectrum", text]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "lambda=5 mult=1 source=quotient",
            "lambda=0 mult=22000 source=block2+quotient",
            "lambda=-1 mult=5 source=block1",
        ]

    def test_work_cap_refuses_before_the_profile(self, monkeypatch, capsys):
        # the closed route is O(r**2); a CLI argv reaches r of about 65,000
        r = math.isqrt(combinatorics.CLOSED_WORK_CAP) + 1
        ss = ShortSequence(2, (2,) + (1,) * (r - 1))
        assert ss.r == r and (r - 1) ** 2 <= combinatorics.CLOSED_WORK_CAP
        text = format_short(ss)

        def refuse(ss):
            raise AssertionError("block_profile ran past the work cap")

        monkeypatch.setattr(spectrum, "block_profile", refuse)
        with pytest.raises(ResourceLimitError, match=f"on {r} runs"):
            full_spectrum_closed(ss)
        assert main(["spectrum", text]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: the closed route on {r} runs costs r**2")
        assert "over the cap" in err and "Traceback" not in err

    def test_precision_refusal_starts_where_the_largest_gamma_passes_2_53(self):
        # the largest pair count of a connected sequence is its last gamma;
        # the route answers up to the last n where it fits a double
        for k in (8, 20, 40):
            n = k
            while binomial(n - 1, k - 2) <= FLOAT_SAFE_LIMIT:
                n += 1
            ss = family_sequence(1, n, k)
            assert block_profile(ss).gamma[-1] <= FLOAT_SAFE_LIMIT
            spec = full_spectrum_closed(ss)
            assert sum(p.multiplicity for p in spec.pairs) == n
            assert family_spectrum_symbolic(1, n, k) == spec
            for refused in (
                lambda: full_spectrum_closed(family_sequence(1, n + 1, k)),
                lambda: family_spectrum_symbolic(1, n + 1, k),
            ):
                with pytest.raises(CountTooLargeError):
                    refused()


class TestRationalQL:
    def test_tiny_cases(self):
        assert spectrum._rational_ql([], []) == []
        assert spectrum._rational_ql([2.5], []) == [2.5]
        lo, hi = sorted(spectrum._rational_ql([0.0, 0.0], [1.0]))
        assert abs(hi - 1.0) < 1e-15 and abs(lo + 1.0) < 1e-15
        assert_tridiagonal_matches_eigvalsh([3.0, 0.0], [6.0])
        assert_tridiagonal_matches_eigvalsh([1e8, -1e-8], [1e-3])

    def test_matches_numpy_on_random_tridiagonals(self):
        rng = random.Random(20261018)
        for n in range(1, 41):
            for _ in range(3):
                d = [rng.uniform(-10, 10) for _ in range(n)]
                e = [rng.uniform(-10, 10) for _ in range(n - 1)]
                assert_tridiagonal_matches_eigvalsh(d, e)

    def test_matches_numpy_where_the_matrix_splits(self):
        rng = random.Random(7)
        for n in (2, 3, 8, 17):
            for zeros in ({0}, {n - 2}, set(range(n - 1)), {1, n // 2}):
                d = [float(rng.randint(-5, 5)) for _ in range(n)]
                e = [float(rng.randint(-5, 5)) for _ in range(n - 1)]
                e = [0.0 if i in zeros else x for i, x in enumerate(e)]
                assert_tridiagonal_matches_eigvalsh(d, e)

    def test_matches_numpy_on_repeated_eigenvalues(self):
        # equal blocks split by a zero repeat every eigenvalue exactly;
        # Wilkinson's W21+ has pairs that agree to about 1e-14
        d, e = [2.0, -1.0, 3.0], [1.5, 0.5]
        assert_tridiagonal_matches_eigvalsh(d * 3, e + [0.0] + e + [0.0] + e)
        assert_tridiagonal_matches_eigvalsh([4.0] * 6, [0.0] * 5)
        wilkinson = [abs(10.0 - i) for i in range(21)]
        assert_tridiagonal_matches_eigvalsh(wilkinson, [1.0] * 20)

    def test_stops_at_the_iteration_cap(self, monkeypatch):
        # an unconverged eigenvalue is an error, not an estimate
        monkeypatch.setattr(spectrum, "QL_ITERATIONS", 0)
        with pytest.raises(
            ConvergenceError,
            match="^QL iteration did not converge in 0 iterations at eigenvalue 1 of 2$",
        ):
            spectrum._rational_ql([1.0, 2.0], [1.0])
        # a block that is already split needs no sweep
        assert spectrum._rational_ql([1.0, 2.0], [0.0]) == [1.0, 2.0]


class TestPencilReduction:
    def test_matches_the_symmetrized_quotient(self):
        for h in connected_hypergraphs(9, range(2, 6)):
            ss = to_short(h.sequence)
            profile = block_profile(ss)
            d, e2 = spectrum._Pencil.of(profile).tridiagonal()
            c = np.diag(d) + np.diag(np.sqrt(e2), 1) + np.diag(np.sqrt(e2), -1)
            root = np.sqrt(np.array(ss.runs, dtype=float))
            q = np.array(quotient_matrix(h.runs).entries, dtype=float)
            s = root[:, None] * q / root[None, :]
            want = np.linalg.eigvalsh(0.5 * (s + s.T))
            norm = math.sqrt(profile.frobenius_sq)
            assert np.max(np.abs(np.linalg.eigvalsh(c) - want)) <= 1e-13 * norm, h


def _c_width(d, e2):
    """The certificate width 4 eps |C|_F, where |C|_F <= |A|_F."""
    frobenius = math.sqrt(sum(x * x for x in d) + 2.0 * sum(e2))
    return 4.0 * sys.float_info.epsilon * max(1.0, frobenius)


def one_sweep(real, d, e2):
    """`real` allowed one QL sweep per eigenvalue."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "QL_ITERATIONS", 1)
        return real(d, e2)


class TestCertificate:
    @pytest.mark.parametrize(
        "estimate",
        [
            lambda real, d, e2: [0.0] * len(d),
            lambda real, d, e2: [x + 1e3 * _c_width(d, e2) for x in real(d, e2)],
            one_sweep,
            lambda real, d, e2: [math.nan] * len(d),
            lambda real, d, e2: [math.inf] * len(d),
        ],
        ids=["zeros", "shifted", "unconverged", "nan", "inf"],
    )
    def test_bad_estimates_are_repaired(self, monkeypatch, estimate):
        real = spectrum._rational_ql
        isolate = spectrum._Pencil._isolate
        repairs = []

        def counted(pencil, i, x, delta, bound):
            repairs.append(i)
            return isolate(pencil, i, x, delta, bound)

        monkeypatch.setattr(
            spectrum, "_rational_ql", lambda d, e2: estimate(real, d, e2)
        )
        monkeypatch.setattr(spectrum._Pencil, "_isolate", counted)
        TestInertia().test_counts_bracket_every_eigenvalue()
        assert len(repairs) > 100
        sp = full_spectrum_closed(hg("k=3;" + ",".join("0011" * 20)).runs)
        assert sum(p.multiplicity for p in sp.pairs) == 80

    def test_closed_route_stays_off_hypot_and_dense_ql(self, monkeypatch, capsys):
        # output must not hang on the last bit of math.hypot, which differs
        # between CPython versions
        alternating = "k=3;0," + ",".join("01" * 40)
        inputs = ["C(1500,1500)_3", alternating, "C(4,1,4,1,5,9,2,6)_4"]
        want = [full_spectrum_closed(hg(text).runs) for text in inputs]

        def refuse(*args, **kwargs):
            raise AssertionError("the closed route called a dense-route kernel")

        monkeypatch.setattr(math, "hypot", refuse)
        monkeypatch.setattr(oracle, "householder_ql_eigenvalues", refuse)
        assert [full_spectrum_closed(hg(text).runs) for text in inputs] == want
        assert main(["scan", "--n-max", "9", "--k", "2,3"]) == 0
        assert main(["family", "2", "--n", "30", "--k", "4", "--j", "9"]) == 0
        capsys.readouterr()


def kernel_inputs():
    """Every connected sequence with n <= 11 and k = 2..5, then 300 seeded
    run shapes with r up to 60, runs up to 10**6 and very unbalanced
    neighbouring blocks, each one `check_closed` accepts."""
    for h in connected_hypergraphs(11, range(2, 6)):
        yield to_short(h.sequence)
    rng = random.Random(19)
    kept = 0
    while kept < 300:
        k, r = rng.randint(2, 6), rng.randint(2, 60)
        runs = [
            rng.choice((1, 2, 3, 10, round(10 ** rng.uniform(1, 6))))
            for _ in range(r)
        ]
        runs[0] = max(runs[0], k)
        # the last block is a ones block, so the sequence is connected
        ss = ShortSequence(k, tuple(runs), first_run_has_ones=r % 2 == 1)
        try:
            combinatorics.check_closed(ss)
        except CountTooLargeError:
            continue
        kept += 1
        yield ss


def pack_floats(values):
    return struct.pack(f"<{len(values)}d", *values)


class TestKernelDigest:
    def test_kernels_are_pinned_bit_for_bit(self):
        # the tridiagonal reduction, rational QL, the certified quotient
        # values and the merged pairs, every float packed to the bit
        digest = hashlib.sha256()
        count = 0
        for ss in kernel_inputs():
            bp = block_profile(ss)
            d, e2 = spectrum._Pencil.of(bp).tridiagonal()
            digest.update(pack_floats(d) + pack_floats(e2))
            digest.update(pack_floats(spectrum._rational_ql(d, e2)))
            digest.update(pack_floats(quotient_eigenvalues(bp)))
            for p in full_spectrum_closed(ss).pairs:
                digest.update(pack_floats([p.value]))
                digest.update(f"{p.multiplicity} {p.source};".encode())
            count += 1
        assert count == 1916 + 300
        assert digest.hexdigest() == (
            "7ad5c8dd38efe74281bf2e725c6165aea0660306be82564d37530b0122920aba"
        )


class TestBlockEigenvalues:
    def test_single_zero_block(self):
        (b,) = block_eigenvalues(block_profile(ShortSequence(3, (4, 1))))
        assert (b.value, b.multiplicity_lower_bound) == (-1, 3)
        assert b.block_index == 1

    def test_zero_and_one_blocks(self):
        pairs = block_eigenvalues(block_profile(ShortSequence(3, (3, 2))))
        assert [(b.value, b.multiplicity_lower_bound) for b in pairs] == [
            (-2, 2),
            (-3, 1),
        ]

    def test_merged_head_block(self):
        (b,) = block_eigenvalues(
            block_profile(ShortSequence(3, (3, 1, 1), first_run_has_ones=True))
        )
        assert (b.value, b.multiplicity_lower_bound) == (-2, 2)

    def test_trailing_zeros_block_yields_zero(self):
        # the last two vertices lie in no edge: gamma 0, a twin value 0
        pairs = block_eigenvalues(block_profile(ShortSequence(3, (4, 1, 2))))
        assert [
            (b.value, b.multiplicity_lower_bound, b.block_index) for b in pairs
        ] == [(-1, 3, 1), (0, 1, 3)]

    def test_counts_and_direct_pair_agreement(self):
        # block_eigenvalues and adjacency() share the column counts, so
        # recheck against the edge-list recount, which shares nothing
        for h in connected_hypergraphs(7):
            ss = to_short(h.sequence)
            values = block_eigenvalues(block_profile(ss))
            assert sum(b.multiplicity_lower_bound for b in values) == h.n - ss.r
            a = adjacency_bruteforce(h).entries
            by_block = {b.block_index: b for b in values}
            first = 1
            for j, size in enumerate(ss.runs, start=1):
                start = first
                first += size
                if size >= 2:
                    assert by_block[j].value == -a[start - 1][start]

    def test_multiplicity_bounds_hold_numerically(self):
        for h in connected_hypergraphs(7):
            w = np.linalg.eigvalsh(np.array(h.adjacency().entries, dtype=float))
            for b in block_eigenvalues(block_profile(to_short(h.sequence))):
                hits = int(np.sum(np.abs(w - b.value) < 1e-8))
                assert hits >= b.multiplicity_lower_bound


class TestQuotient:
    def test_balance_validation(self):
        QuotientMatrix(((3, 3), (12, 0)), (4, 1))
        with pytest.raises(ValueError):
            QuotientMatrix(((0, 1), (5, 0)), (2, 2))
        with pytest.raises(ValueError):
            QuotientMatrix(((0, 1), (1, 0)), (2,))
        with pytest.raises(ValueError):
            QuotientMatrix(((0, 1), (1, 0)), (2, 0))

    def test_known_quotients(self):
        q = quotient_matrix(hg("k=3;0,0,0,0,1").runs)
        assert q.entries == ((3, 3), (12, 0))
        assert q.block_sizes == (4, 1)

        q = quotient_matrix(hg("k=3;0,0,0,1,1").runs)
        assert q.entries == ((4, 6), (9, 3))
        assert q.block_sizes == (3, 2)

        q = quotient_matrix(hg("k=3;0,0,1,0,1").runs)
        assert q.entries == ((4, 1, 3), (3, 0, 3), (9, 3, 0))
        assert q.block_sizes == (3, 1, 1)

    def test_refuses_what_the_closed_route_refuses(self, monkeypatch):
        # `check_closed` first: no gamma past 2**53, no r**2 over its cap
        with pytest.raises(CountTooLargeError):
            quotient_matrix(ShortSequence(50, (100, 1)))
        monkeypatch.setattr(combinatorics, "CLOSED_WORK_CAP", 8)
        assert quotient_matrix(ShortSequence(2, (2, 1))).r == 2
        with pytest.raises(ResourceLimitError, match="r\\*\\*2 = 9"):
            quotient_matrix(ShortSequence(2, (2, 1, 1), True))

    def test_quotient_rows_collapse_for_all(self):
        # block_profile raises internally if any block is inhomogeneous
        for h in connected_hypergraphs(7):
            q = quotient_matrix(h.runs)
            assert sum(q.block_sizes) == h.n

    def test_quotient_eigenvalues_sit_in_full_spectrum(self):
        for h in connected_hypergraphs(6):
            w = np.linalg.eigvalsh(np.array(h.adjacency().entries, dtype=float))
            s = symmetrize_quotient(quotient_matrix(h.runs))
            for v in np.linalg.eigvalsh(np.array(s)):
                assert np.min(np.abs(w - v)) < 1e-8

    def test_symmetrize(self):
        s = symmetrize_quotient(QuotientMatrix(((3, 3), (12, 0)), (4, 1)))
        assert s == [[3.0, 6.0], [6.0, 0.0]]
        s = symmetrize_quotient(QuotientMatrix(((4, 6), (9, 3)), (3, 2)))
        assert s[0][1] == s[1][0]
        assert abs(s[0][1] - math.sqrt(54)) < 1e-12


class TestJacobi:
    def test_tiny_cases(self):
        assert jacobi_eigenvalues([]) == []
        assert jacobi_eigenvalues([[2.5]]) == [2.5]
        assert jacobi_eigenvalues([[0.0, 0.0], [0.0, 0.0]]) == [0.0, 0.0]

    def test_diagonal_passthrough(self):
        assert jacobi_eigenvalues([[5, 0, 0], [0, 2, 0], [0, 0, 2]]) == [5, 2, 2]

    def test_two_by_two(self):
        lo, hi = sorted(jacobi_eigenvalues([[0.0, 1.0], [1.0, 0.0]]))
        assert abs(hi - 1.0) < 1e-10 and abs(lo + 1.0) < 1e-10
        vals = jacobi_eigenvalues([[3.0, 6.0], [6.0, 0.0]])
        expect = [(3 + math.sqrt(153)) / 2, (3 - math.sqrt(153)) / 2]
        assert all(abs(a - b) < 1e-10 for a, b in zip(vals, expect))

    def test_matches_numpy_on_random_symmetric(self):
        rng = random.Random(20240817)
        for n in range(1, 13):
            for _ in range(3):
                m = [[0.0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        m[i][j] = m[j][i] = rng.uniform(-10, 10)
                got = jacobi_eigenvalues(m)
                # the one dense solver answers, to the bit
                assert got == householder_ql_eigenvalues(m)
                want = sorted(np.linalg.eigvalsh(np.array(m)), reverse=True)
                scale = max(1.0, float(np.abs(np.array(m)).max()) * n)
                assert all(
                    abs(a - b) < 1e-9 * scale for a, b in zip(got, want)
                )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues([[1.0, 2.0]])
        with pytest.raises(ValueError):
            jacobi_eigenvalues([[0.0, 1.0], [2.0, 0.0]])
        # a non-finite entry is refused by place, as the dense solver does
        inf, nan = math.inf, math.nan
        for m, place in (
            ([[0.0, inf], [inf, 0.0]], "0,1"),
            ([[nan]], "0,0"),
            ([[1.0, nan], [nan, 1.0]], "0,1"),
            ([[0.0, 1.0, inf], [1.0, 0.0, 1.0], [inf, 1.0, 0.0]], "0,2"),
        ):
            with pytest.raises(ValueError, match=rf"^matrix entry at \({place}\) is"):
                jacobi_eigenvalues(m)

    def test_no_tolerance_or_sweep_budget(self):
        # the matrix a zero sweep budget once failed on is answered, and
        # neither knob is taken any more
        m = [[0.0, 1.0], [1.0, 0.0]]
        assert jacobi_eigenvalues(m) == householder_ql_eigenvalues(m)
        for knob in ({"max_sweeps": 0}, {"tol": 1e-12}):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                jacobi_eigenvalues(m, **knob)
        with pytest.raises(TypeError):
            jacobi_eigenvalues(m, 1e-12)


def assert_matches_eigvalsh(m):
    """Householder plus QL agrees with LAPACK within 1e-13 |A|_F."""
    got = householder_ql_eigenvalues(m)
    want = sorted(np.linalg.eigvalsh(np.array(m, dtype=float)), reverse=True)
    bound = 1e-13 * max(1.0, float(np.linalg.norm(np.array(m, dtype=float))))
    assert len(got) == len(want)
    assert all(abs(a - b) <= bound for a, b in zip(got, want)), m


class TestHouseholderQL:
    def test_tiny_cases(self):
        assert householder_ql_eigenvalues([]) == []
        assert householder_ql_eigenvalues([[2.5]]) == [2.5]
        zero = [[0.0] * 3 for _ in range(3)]
        assert householder_ql_eigenvalues(zero) == [0.0, 0.0, 0.0]

    def test_diagonal_passthrough(self):
        diagonal = [[5, 0, 0], [0, 2, 0], [0, 0, 2]]
        assert householder_ql_eigenvalues(diagonal) == [5, 2, 2]

    def test_two_by_two(self):
        lo, hi = sorted(householder_ql_eigenvalues([[0.0, 1.0], [1.0, 0.0]]))
        assert abs(hi - 1.0) < 1e-15 and abs(lo + 1.0) < 1e-15
        vals = householder_ql_eigenvalues([[3.0, 6.0], [6.0, 0.0]])
        expect = [(3 + math.sqrt(153)) / 2, (3 - math.sqrt(153)) / 2]
        assert all(abs(a - b) < 1e-14 for a, b in zip(vals, expect))

    def test_takes_2_53(self):
        # the largest pair count a double holds exactly
        edge = [[0, FLOAT_SAFE_LIMIT], [FLOAT_SAFE_LIMIT, 0]]
        top, bottom = householder_ql_eigenvalues(edge)
        assert math.isclose(top, 2.0**53) and math.isclose(bottom, -(2.0**53))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            householder_ql_eigenvalues([[1.0, 2.0]])
        with pytest.raises(ValueError):
            householder_ql_eigenvalues([[0.0, 1.0], [2.0, 0.0]])
        # symmetry is exact: one ulp off is refused, not averaged away
        near = [[0.0, 1.0], [math.nextafter(1.0, 2.0), 0.0]]
        with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
            householder_ql_eigenvalues(near)
        # a non-finite entry is refused by place, before the symmetry test:
        # inf gave [0.0, 0.0] or ConvergenceError, and nan came back as nan
        inf, nan = math.inf, math.nan
        for m, place in (
            ([[0.0, inf], [inf, 0.0]], "0,1"),
            ([[nan]], "0,0"),
            ([[1.0, nan], [nan, 1.0]], "0,1"),
            ([[0.0, 1.0, inf], [1.0, 0.0, 1.0], [inf, 1.0, 0.0]], "0,2"),
        ):
            with pytest.raises(ValueError, match=rf"^matrix entry at \({place}\) is"):
                householder_ql_eigenvalues(m)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(spectrum, "QL_ITERATIONS", 0)
        with pytest.raises(ConvergenceError):
            householder_ql_eigenvalues([[0.0, 1.0], [1.0, 0.0]])

    def test_matches_numpy_on_random_symmetric(self):
        rng = random.Random(20261018)
        for n in range(1, 13):
            for _ in range(3):
                m = [[0.0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        m[i][j] = m[j][i] = rng.uniform(-10, 10)
                assert_matches_eigvalsh(m)

    def test_matches_numpy_where_the_matrix_splits(self):
        rng = random.Random(7)

        def sym(n):
            m = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = float(rng.randint(-5, 5))
            return m

        def block_diagonal(*blocks):
            n = sum(len(b) for b in blocks)
            m = [[0.0] * n for _ in range(n)]
            at = 0
            for b in blocks:
                for i, row in enumerate(b):
                    m[at + i][at : at + len(b)] = row
                at += len(b)
            return m

        assert_matches_eigvalsh(block_diagonal(sym(3), sym(1), sym(4)))
        assert_matches_eigvalsh(block_diagonal(sym(5), [[0.0]], sym(2)))
        zero_row = sym(6)
        for i in range(6):
            zero_row[2][i] = zero_row[i][2] = 0.0
        assert_matches_eigvalsh(zero_row)
        # repeated eigenvalues: J - I has -1 with multiplicity n - 1
        for n in (2, 5, 9):
            assert_matches_eigvalsh(
                [[float(i != j) for j in range(n)] for i in range(n)]
            )
        twice = sym(4)
        assert_matches_eigvalsh(block_diagonal(twice, twice))

    def test_matches_numpy_on_threshold_adjacency(self):
        for h in connected_hypergraphs(9, range(2, 6)):
            assert_matches_eigvalsh(h.adjacency().entries)


class TestMergeEntries:
    def test_a_lone_quotient_zero_is_reported_as_plus_zero(self):
        (p,) = spectrum._merge_entries([(-0.0, 1, "quotient")])
        assert (p.value, p.multiplicity, p.source) == (0.0, 1, "quotient")
        assert math.copysign(1.0, p.value) == 1.0

    def test_a_lone_block_value_stands(self):
        (p,) = spectrum._merge_entries([(-2.0, 3, "block1")])
        assert (p.value, p.multiplicity, p.source) == (-2.0, 3, "block1")
        assert math.copysign(1.0, p.value) == -1.0

    def test_two_member_clusters(self):
        # a quotient value within tol of a block value takes the block
        # value, also one far outside 8 eps |A|_F (about 1e-14 here); two
        # quotient values take their mean
        near = math.nextafter(-2.0, 0.0)
        pairs = spectrum._merge_entries(
            [
                (0.5, 1, "quotient"),
                (-2.0, 3, "block1"),
                (near, 1, "quotient"),
                (0.5 + 1e-12, 1, "quotient"),
                (-5.0, 2, "block2"),
                (-5.0 + 5e-10, 1, "quotient"),
            ]
        )
        assert [(p.value, p.multiplicity, p.source) for p in pairs] == [
            ((0.5 + 1e-12 + 0.5) / 2, 2, "quotient"),
            (-2.0, 4, "quotient+block1"),
            (-5.0, 3, "quotient+block2"),
        ]

    @staticmethod
    def _two_pass_merge(entries):
        """The earlier two-pass merge, kept as the reference: clusters
        first, then one pair per cluster, with a branch of its own for a
        cluster of one."""
        ordered = sorted(entries, key=lambda t: -t[0])
        clusters = []
        anchor = 0.0
        for item in ordered:
            if clusters and anchor - item[0] <= MERGE_TOL:
                clusters[-1].append(item)
            else:
                anchor = item[0]
                clusters.append([item])
        pairs = []
        for members in clusters:
            if len(members) == 1:
                ((v, m, src),) = members
                rep = v if src.startswith("block") else (0 + v * m) / m
                pairs.append((rep, m, src))
                continue
            total = sum(m for _, m, _ in members)
            exact = [v for v, _, src in members if src.startswith("block")]
            rep = exact[0] if exact else sum(v * m for v, m, _ in members) / total
            sources = "+".join(dict.fromkeys(src for _, _, src in members))
            pairs.append((rep, total, sources))
        return pairs

    @staticmethod
    def _random_entries(rng):
        """Block values, some equal across blocks and some signed zeros,
        and chains of quotient values placed at, just inside or just past
        `MERGE_TOL` of a block value or of the value before them."""
        steps = [
            0.0,
            MERGE_TOL,
            math.nextafter(MERGE_TOL, 0.0),
            math.nextafter(MERGE_TOL, 1.0),
            MERGE_TOL / 2,
            3 * MERGE_TOL,
        ]
        blocks = rng.sample(range(1, 9), rng.randint(0, 4))
        entries = [
            (rng.choice([0.0, -0.0, -1.0, -2.0, -3.0]), rng.randint(1, 4), f"block{b}")
            for b in blocks
        ]
        for _ in range(rng.randint(1, 3)):
            v = rng.choice([v for v, _, _ in entries] + [0.0, -0.0, 0.5, -1.0])
            for _ in range(rng.randint(1, 4)):
                v += rng.choice([-1.0, 1.0]) * rng.choice(steps)
                entries.append((v, rng.randint(1, 2), "quotient"))
        rng.shuffle(entries)
        return entries

    def test_one_pass_matches_the_two_pass_merge_bit_for_bit(self):
        rng = random.Random(46)
        many_member_lists = 0
        for _ in range(20_000):
            entries = self._random_entries(rng)
            want = self._two_pass_merge(entries)
            got = spectrum._merge_entries(entries)
            assert [(p.value.hex(), p.multiplicity, p.source) for p in got] == [
                (v.hex(), m, src) for v, m, src in want
            ], entries
            many_member_lists += len(want) < len(entries)
        assert many_member_lists > 10_000


class TestInternalGuards:
    """The closed route's two internal checks, each fed a planted fault."""

    def test_quotient_eigenvalues_past_the_frobenius_bound_are_refused(
        self, monkeypatch
    ):
        count = spectrum._Pencil.count

        def blind_at_the_bound(pencil, lam):
            return 0 if lam == pencil.scale + 1.0 else count(pencil, lam)

        monkeypatch.setattr(spectrum._Pencil, "count", blind_at_the_bound)
        with pytest.raises(RuntimeError) as err:
            full_spectrum_closed(hg("C(3,2,1)_3").runs)
        assert str(err.value) == (
            "internal: quotient eigenvalues escape the Frobenius bound"
        )

    def test_a_merge_that_loses_a_pair_is_refused(self, monkeypatch):
        ss = hg("C(3,2,1)_3").runs
        last = full_spectrum_closed(ss).pairs[-1].multiplicity
        merge = spectrum._merge_entries
        monkeypatch.setattr(spectrum, "_merge_entries", lambda e: merge(e)[:-1])
        with pytest.raises(RuntimeError) as err:
            full_spectrum_closed(ss)
        assert str(err.value) == (
            f"internal: multiplicities sum to {ss.n - last}, expected {ss.n}"
        )


class TestFullSpectrum:
    def test_disconnected_matches_bruteforce_oracle(self):
        # every disconnected sequence with n <= 10 and k = 2..5, 960 of
        # them, against the dense solve of the edge-list recount
        checked = 0
        for k in range(2, 6):
            for n in range(k - 1, 11):
                for seq in iter_valid_sequences(n, k):
                    h = ThresholdHypergraph(seq)
                    if h.runs.connected:
                        continue
                    checked += 1
                    brute = adjacency_bruteforce(h)
                    closed = full_spectrum_closed(h.runs)
                    numeric = householder_ql_eigenvalues(brute.entries)
                    bound = 1e-12 * max(1.0, math.sqrt(brute.frobenius_sq()))
                    got = sorted(closed.expanded())
                    want = sorted(numeric)
                    assert len(got) == len(want) == n
                    assert all(abs(a - b) <= bound for a, b in zip(got, want)), seq
        assert checked == 960

    def test_single_pseudodominant_values(self):
        sp = full_spectrum_closed(hg("k=3;0,0,0,0,1").runs)
        assert [p.multiplicity for p in sp.pairs] == [1, 3, 1]
        assert sp.pairs[1].value == -1.0
        assert abs(sp.pairs[0].value - (3 + math.sqrt(153)) / 2) < 1e-10
        assert abs(sp.pairs[2].value - (3 - math.sqrt(153)) / 2) < 1e-10
        assert sp.pairs[0].source == "quotient"
        assert sp.pairs[1].source == "block1"

    def test_complete_hypergraph(self):
        # single merged block: n-1 twin values and one quotient value
        sp = full_spectrum_closed(hg("C(5)_3").runs)
        assert [(round(p.value, 9), p.multiplicity) for p in sp.pairs] == [
            (12.0, 1),
            (-3.0, 4),
        ]
        assert sp.pairs[1].source == "block1"

    def test_merge_joins_equal_block_values(self):
        sp = full_spectrum_closed(hg("k=2;0,0,1,0,0,1").runs)
        merged = [p for p in sp.pairs if p.multiplicity == 2]
        assert len(merged) == 1
        assert merged[0].value == 0.0
        assert merged[0].source == "block1+block3"

    def test_invariants_across_sweep(self):
        for h in connected_hypergraphs(7):
            sp = full_spectrum_closed(h.runs)
            assert sum(p.multiplicity for p in sp.pairs) == h.n
            values = [p.value for p in sp.pairs]
            assert values == sorted(values, reverse=True)
            assert len(set(values)) == len(values)
            assert sp.distinct_count <= h.n - h.k + 2

    def test_trace_and_frobenius_identities(self):
        for h in connected_hypergraphs(7):
            sp = full_spectrum_closed(h.runs)
            fro = float(h.adjacency().frobenius_sq())
            trace = sum(p.value * p.multiplicity for p in sp.pairs)
            power = sum(p.value**2 * p.multiplicity for p in sp.pairs)
            assert abs(trace) <= 1e-8 * max(1.0, fro)
            assert abs(power - fro) <= 1e-6 * fro

    def test_closed_matches_numeric_on_bruteforce_adjacency(self):
        # two threshold graphs whose 0 and -1 each repeat 28 to 37 times,
        # clusters the QL must split without running out of iterations
        clustered = [hg("C(5" + ",4" * 23 + ")_2"), hg("C(3" + ",2" * 55 + ")_2")]
        for h in [*connected_hypergraphs(7), *clustered]:
            closed = full_spectrum_closed(h.runs).expanded()
            numeric = householder_ql_eigenvalues(adjacency_bruteforce(h).entries)
            assert len(closed) == len(numeric) == h.n
            assert all(abs(a - b) < 1e-8 for a, b in zip(closed, numeric))

    def test_numeric_reports_the_solver_doubles(self):
        # bit-equal values are grouped, not averaged, so expanding the
        # spectrum gives back the solver's output on the edge recount to
        # the bit: every sequence with n <= 9 and k = 2..5, connected or
        # not, 956 of them
        clustered = [hg("C(5" + ",4" * 23 + ")_2"), hg("C(3" + ",2" * 55 + ")_2")]
        swept = [
            ThresholdHypergraph(seq)
            for k in range(2, 6)
            for n in range(k - 1, 10)
            for seq in iter_valid_sequences(n, k)
        ]
        assert len(swept) == 956
        for h in [*swept, *clustered]:
            got = full_spectrum_numeric(h).expanded()
            want = householder_ql_eigenvalues(adjacency_bruteforce(h).entries)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), h

    def test_numeric_refuses_past_2_53_before_reading_a_column(self, monkeypatch):
        # the closed route's precision test, made before any pair count
        def refuse(self, i, j):
            raise AssertionError("a pair count was read")

        for text in ("C(200,1)_100", "C(999,1)_500"):
            h = hg(text)
            with pytest.raises(CountTooLargeError) as closed:
                full_spectrum_closed(h.runs)
            with monkeypatch.context() as m:
                m.setattr(ThresholdHypergraph, "pair_count", refuse)
                with pytest.raises(CountTooLargeError) as numeric:
                    full_spectrum_numeric(h)
            assert str(numeric.value) == str(closed.value)

    def test_numeric_clusters_repeated_values(self):
        # only bit-equal values merge, and the last bit of the three -1s
        # of K_4 follows math.hypot, which varies across CPython versions
        sp = full_spectrum_numeric(hg("k=2;0,1,1,1"))
        assert sum(p.multiplicity for p in sp.pairs) == 4
        want = (3.0, -1.0, -1.0, -1.0)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(sp.expanded(), want))


class TestFamilies:
    def test_family_sequences(self):
        assert family_sequence(1, 6, 3) == ShortSequence(3, (5, 1))
        assert family_sequence(1, 4, 4) == ShortSequence(
            4, (4,), first_run_has_ones=True
        )
        assert family_sequence(2, 7, 3, j=5) == ShortSequence(3, (4, 3))
        assert family_sequence(2, 6, 3, j=3) == ShortSequence(
            3, (6,), first_run_has_ones=True
        )
        assert family_sequence(3, 7, 3) == ShortSequence(
            3, (3, 3, 1), first_run_has_ones=True
        )
        assert format_short(family_sequence(3, 5, 3)) == "C(3,1,1)_3"

    def test_family_validation(self):
        with pytest.raises(SequenceError):
            family_sequence(1, 2, 3)
        with pytest.raises(SequenceError):
            family_sequence(2, 6, 3)  # j is required
        with pytest.raises(SequenceError):
            family_sequence(2, 6, 3, j=2)
        with pytest.raises(SequenceError):
            family_sequence(2, 6, 3, j=6)
        with pytest.raises(SequenceError):
            family_sequence(3, 4, 3)
        with pytest.raises(SequenceError):
            family_sequence(4, 6, 3)
        with pytest.raises(SequenceError):
            family_sequence(1, 6, 3, j=4)  # only family 2 takes j

    def test_lone_pseudodominant_star_case(self):
        # k = 2 member is the star on n vertices
        sp = family_spectrum_symbolic(1, 5, 2)
        assert [(round(p.value, 9), p.multiplicity) for p in sp.pairs] == [
            (2.0, 1),
            (0.0, 3),
            (-2.0, 1),
        ]

    def test_lone_pseudodominant_triple_system(self):
        sp = family_spectrum_symbolic(1, 5, 3)
        assert [p.multiplicity for p in sp.pairs] == [1, 3, 1]
        assert abs(sp.pairs[0].value - (3 + math.sqrt(153)) / 2) < 1e-10
        assert sp.pairs[1].value == -1.0
        assert abs(sp.pairs[2].value - (3 - math.sqrt(153)) / 2) < 1e-10

    def test_tail_run_quadratic(self):
        sp = family_spectrum_symbolic(2, 5, 3, j=4)
        assert abs(sp.pairs[0].value - (7 + math.sqrt(217)) / 2) < 1e-10
        assert abs(sp.pairs[-1].value - (7 - math.sqrt(217)) / 2) < 1e-10

    def test_clique_head_member(self):
        sp = family_spectrum_symbolic(3, 5, 3)
        assert [p.multiplicity for p in sp.pairs] == [1, 1, 2, 1]
        assert sp.pairs[2].value == -2.0
        # quotient values against an independent diagonalization of the
        # hand-entered block-sum matrix
        block_sums = np.array([[4, 1, 3], [3, 0, 3], [9, 3, 0]], dtype=float)
        want = sorted(np.linalg.eigvals(block_sums).real, reverse=True)
        got = [sp.pairs[i].value for i in (0, 1, 3)]
        assert all(abs(a - b) < 1e-9 for a, b in zip(got, want))
        anchors = [8.71311048445, -0.489070240071, -4.22404024438]
        assert all(abs(a - b) < 1e-9 for a, b in zip(got, anchors))

    def test_symbolic_agrees_with_closed_route(self):
        cases = []
        for k in range(2, 6):
            for n in range(k, 11):
                cases.append((1, n, k, None))
                for j in range(k, n):
                    cases.append((2, n, k, j))
                if n >= k + 2:
                    cases.append((3, n, k, None))
        assert len(cases) > 100
        for family, n, k, j in cases:
            sym = family_spectrum_symbolic(family, n, k, j)
            h = ThresholdHypergraph(to_binary(family_sequence(family, n, k, j)))
            ref = full_spectrum_closed(h.runs)
            assert sum(p.multiplicity for p in sym.pairs) == n
            got, want = sym.expanded(), ref.expanded()
            assert all(abs(a - b) < 1e-8 for a, b in zip(got, want))

    def test_block_profile_gives_the_catalogued_gamma(self):
        # the families' gamma comes from block_profile; here it is held to
        # their catalogued closed forms, with the complete-hypergraph
        # boundaries (family 1 with n = k, family 2 with j = k) one block
        cases = []
        for k in range(2, 8):
            for n in range(k, 31):
                a_cnt, b_cnt = binomial(n - 3, k - 3), binomial(n - 2, k - 2)
                cases.append(((1, n, k), (b_cnt,) if n == k else (a_cnt, b_cnt)))
                if n > k:
                    cases.append(((2, n, k, k), (b_cnt,)))
                for j in range(k + 1, n):
                    # the sum over the pseudodominants p = j..n, by the
                    # hockey stick
                    literal = sum(binomial(p - 3, k - 3) for p in range(j, n + 1))
                    assert literal == b_cnt - binomial(j - 3, k - 2)
                    cases.append(((2, n, k, j), (literal, b_cnt)))
                if n >= k + 2:
                    cases.append(((3, n, k), (a_cnt + 1, a_cnt, b_cnt)))
        assert len(cases) == 2342
        for args, gamma in cases:
            assert block_profile(family_sequence(*args)).gamma == gamma, args

    def test_distinct_value_caps(self):
        for k in range(2, 6):
            for n in range(k, 13):
                assert family_spectrum_symbolic(1, n, k).distinct_count <= 3
                for j in range(k, n):
                    assert (
                        family_spectrum_symbolic(2, n, k, j).distinct_count <= 4
                    )
                if n >= k + 2:
                    assert family_spectrum_symbolic(3, n, k).distinct_count <= 5


class TestScan:
    def test_graph_quotients_stay_simple(self):
        rows = scan_quotient_simplicity(6, [2])
        assert len(rows) == 1 + 2 + 4 + 8 + 16
        assert not any(row.flagged for row in rows)
        assert rows[0].sequence == "k=2;0,1"
        assert rows[0].r == 1
        assert math.isinf(rows[0].min_quotient_gap)

    def test_rows_are_consistent(self):
        for row in scan_quotient_simplicity(6, [2, 3]):
            assert row.flagged == (row.min_quotient_gap < 1e-9)
            seq = ThresholdHypergraph.from_text(row.sequence)
            assert (seq.n, seq.k) == (row.n, row.k)
            assert to_short(seq.sequence).r == row.r

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            # 2**17 - 1 = 131,071 connected sequences
            scan_quotient_simplicity(18, [2])

    def test_a_size_is_refused_before_its_first_step(self, monkeypatch):
        # a whole size is refused once, before any block is folded: past
        # 2**53 first, as each leaf's run would be, then over the text cap
        def no_step(*args):
            raise AssertionError("a block was folded")

        monkeypatch.setattr(scan, "gamma_step", no_step)
        with pytest.raises(ResourceLimitError, match="the bit form of"):
            scan._scan_size(2, combinatorics.TEXT_CAP // 2 + 1)
        with pytest.raises(CountTooLargeError):
            scan._scan_size(2, FLOAT_SAFE_LIMIT + 1)
        # n = k - 1 has no connected sequence, so no refusal
        assert scan._scan_size(FLOAT_SAFE_LIMIT + 2, FLOAT_SAFE_LIMIT + 1) == []

    def test_a_leaf_builds_no_sequence_record(self, monkeypatch):
        # a row needs only its counts and its bit text, so no leaf builds
        # and validates a `ShortSequence` from its runs
        want = scan_quotient_simplicity(9, [2, 3, 4])
        calls = []
        init = ShortSequence.__init__

        def counted(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sequences.ShortSequence, "__init__", counted)
        assert scan_quotient_simplicity(9, [2, 3, 4]) == want
        assert calls == []

    def test_a_leaf_names_a_failed_identity_by_its_bit_text(self, monkeypatch):
        # as in test_unequal_block_raises: a broken binomial breaks the
        # identity, here at the one leaf of (3, 3)
        import threshspec.hypergraph as hypergraph

        def broken(n, k):
            return math.comb(n, k) + n if 0 <= k <= n else 0

        monkeypatch.setattr(hypergraph, "binomial", broken)
        with pytest.raises(RuntimeError, match="pair counts of k=3;0,0,1 sum to"):
            scan_quotient_simplicity(5, [3])

    @pytest.mark.parametrize("k", range(2, 7))
    def test_the_tree_gives_the_rows_of_one_sequence_at_a_time(self, k):
        # the walk over suffixes against the single-sequence closed route,
        # in iter_short_sequences' order, every float to the bit
        want = []
        for n in range(k, 13):
            for ss in (s for s in iter_short_sequences(n, k) if s.connected):
                values = quotient_eigenvalues(block_profile(ss))
                gap = min(
                    (values[i] - values[i + 1] for i in range(len(values) - 1)),
                    default=math.inf,
                )
                want.append(
                    ScanRow(format_bits(ss), n, k, len(values), gap, gap < MERGE_TOL)
                )
        rows = scan_quotient_simplicity(12, [k])
        assert rows == want
        assert [r.min_quotient_gap.hex() for r in rows] == [
            r.min_quotient_gap.hex() for r in want
        ]
        assert len(rows) == count_valid_sequences(12, [k], True)
