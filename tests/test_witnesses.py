"""Small witnesses to two spectral questions about threshold hypergraphs,
pinned by float computation.

The index (largest eigenvalue) at a fixed number of edges: at k = 3 the
largest index over all k-graphs with m edges need not be reached by a
threshold shape, and a threshold shape can beat the colex k-graph, which
Rowlinson proved extremal at k = 2 ("On the maximal index of graphs with a
prescribed number of edges", LAA 110, 1988).  The general k-graphs are
built through `recount_pairs` and diagonalized with numpy.

Jacobs, Trevisan and Tura (LAA 439, 2013) proved that no threshold graph
has an eigenvalue in (-1, 0).  At k = 2 the closed route agrees on every
connected threshold graph with n <= 12; at k = 3 the interval is not
empty.

The head block's value -gamma_1 is never a quotient eigenvalue of a
connected sequence with r >= 2, so such a sequence has at least r + 1
distinct eigenvalues.  This is measured, not proved: det(Q + gamma_1 I) is
decided exactly on every connected sequence with n <= 12 and k = 2..6, and
on a fixed seeded sample of longer runs.
"""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from threshspec.hypergraph import ThresholdHypergraph, block_profile
from threshspec.oracle import recount_pairs
from threshspec.quotient import quotient_matrix
from threshspec.sequences import (
    ShortSequence,
    format_short,
    iter_short_sequences,
    parse_short,
)
from threshspec.spectrum import full_spectrum_closed

EPS = np.finfo(float).eps


def eigvalsh_error(matrix):
    """A bound on the error of each eigenvalue numpy's eigvalsh returns for
    an integer symmetric n x n matrix.

    LAPACK's symmetric eigensolvers are backward stable: the computed
    values are the exact eigenvalues of A + E with |E|_2 <= p(n) eps |A|_2,
    where p(n) grows modestly with n (LAPACK Users' Guide, 3rd ed.,
    section 4.7).  By Weyl each value is then within p(n) eps |A|_2 of its
    exact value.  This takes p(n) = n**2, generous for n <= 7, and bounds
    |A|_2 by the exact |A|_F.
    """
    n = len(matrix.entries)
    return n * n * EPS * math.sqrt(matrix.frobenius_sq())


def index(matrix):
    """The largest eigenvalue by eigvalsh, and its error bound."""
    top = np.linalg.eigvalsh(np.array(matrix.entries, dtype=float))[-1]
    return float(top), eigvalsh_error(matrix)


def threshold_shapes(n, k, m):
    """The short forms of the threshold k-graphs on n vertices with m
    edges."""
    return [
        format_short(ss)
        for ss in iter_short_sequences(n, k)
        if len(ThresholdHypergraph(ss).edges()) == m
    ]


def threshold_index(text):
    """The index of a threshold shape by eigvalsh, held to the closed
    route's top value."""
    h = ThresholdHypergraph.from_text(text)
    top, err = index(h.adjacency())
    assert abs(full_spectrum_closed(h.runs).pairs[0].value - top) <= err
    return top, err


def colex(k, m):
    """The colex k-graph with m edges: the first m k-subsets of the
    positive integers in colex order, on the vertices they use."""
    subsets = sorted(combinations(range(1, m + k), k), key=lambda e: e[::-1])[:m]
    return recount_pairs(max(map(max, subsets)), subsets)


def assert_beats(winner, loser):
    """winner's index exceeds loser's by at least 0.03, and by more than
    the two error bounds together."""
    (high, high_err), (low, low_err) = winner, loser
    assert high - low >= 0.03
    assert high - low > high_err + low_err


class TestIndexWitnesses:
    def test_seven_triples_on_five_vertices_beat_the_threshold_shape(self):
        triples = list(combinations(range(1, 6), 3))
        graphs = [recount_pairs(5, edges) for edges in combinations(triples, 7)]
        assert len(graphs) == 120
        best = max((index(a) for a in graphs), key=lambda t: t[0])
        assert threshold_shapes(5, 3, 7) == ["C(3,1,1)_3"]
        shape = threshold_index("C(3,1,1)_3")
        assert (round(best[0], 3), round(shape[0], 3)) == (8.745, 8.713)
        assert_beats(best, shape)

    def test_k5_plus_one_triple_beats_the_only_threshold_shape(self):
        edges = [*combinations(range(1, 6), 3), (1, 2, 6)]
        general = index(recount_pairs(6, edges))
        assert threshold_shapes(6, 3, 11) == ["C(3,2,1)_3"]
        shape = threshold_index("C(3,2,1)_3")
        assert (round(general[0], 3), round(shape[0], 3)) == (12.486, 11.965)
        assert_beats(general, shape)

    @pytest.mark.parametrize(
        "k, m, text, colex_index, shape_index",
        [
            (3, 6, "C(4,1)_3", 7.647, 7.685),
            (3, 14, "C(4,1,1)_3", 14.621, 14.657),
            (4, 10, "C(5,1)_4", 20.567, 20.697),
        ],
    )
    def test_a_threshold_shape_beats_colex(self, k, m, text, colex_index, shape_index):
        h = ThresholdHypergraph.from_text(text)
        assert len(h.edges()) == m
        lost = index(colex(k, m))
        shape = threshold_index(text)
        assert (round(lost[0], 3), round(shape[0], 3)) == (colex_index, shape_index)
        assert_beats(shape, lost)


class TestJacobsTrevisanTura:
    def test_no_connected_threshold_graph_has_a_value_in_minus_one_zero(self):
        # exactly -1 and 0 come only from block values -gamma, exact
        # integers that no quotient estimate joins here; every other value
        # is a quotient value at least 0.2 from both ends, far outside the
        # certificate's 4 eps |A|_F, so the float route decides each one
        graphs = 0
        for n in range(2, 13):
            for ss in iter_short_sequences(n, 2):
                if not ss.connected:
                    continue
                graphs += 1
                for p in full_spectrum_closed(ss).pairs:
                    if p.value in (-1.0, 0.0):
                        assert "quotient" not in p.source, format_short(ss)
                    else:
                        assert p.source == "quotient"
                        assert min(abs(p.value), abs(p.value + 1)) >= 0.2
                        assert not -1.0 < p.value < 0.0
        assert graphs == 2047

    def test_at_k3_the_first_value_in_minus_one_zero_is_at_n5(self):
        witnesses = [
            (format_short(ss), p.value)
            for n in range(2, 6)
            for ss in iter_short_sequences(n, 3)
            for p in full_spectrum_closed(ss).pairs
            if -1.0 < p.value < 0.0
        ]
        assert [(text, round(v, 3)) for text, v in witnesses] == [
            ("C(3,1,1)_3", -0.489)
        ]


def bareiss_det(rows):
    """The determinant of a square integer matrix by fraction-free
    (Bareiss) elimination: every division is exact, so it is exact."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for i in range(len(m) - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, len(m)) if m[r][i]), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, len(m)):
            for c in range(i + 1, len(m)):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1] if m else 1


def head_value_is_a_root(ss):
    """True when -gamma_1 is an eigenvalue of ss's quotient matrix."""
    gamma = block_profile(ss).gamma[0]
    q = quotient_matrix(ss).entries
    shifted = [
        [q[s][t] + gamma * (s == t) for t in range(len(q))] for s in range(len(q))
    ]
    return bareiss_det(shifted) == 0


def sample_shapes(count, seed):
    """`count` connected sequences with k = 2..6 and r = 2..12, each run
    drawn from 1, 2, 3, 10 or 10**U(1, 3), the first at least k."""
    rng = random.Random(seed)
    shapes = []
    for _ in range(count):
        k, r = rng.randint(2, 6), rng.randint(2, 12)
        runs = [
            rng.choice([1, 2, 3, 10, round(10 ** rng.uniform(1, 3))])
            for _ in range(r)
        ]
        runs[0] = max(runs[0], k)
        # the last block is a ones block exactly when this holds
        shapes.append(ShortSequence(k, tuple(runs), r % 2 == 1))
    return shapes


class TestHeadValueIsNoQuotientRoot:
    def test_the_determinant_is_exact(self):
        rng = np.random.default_rng(7)
        for size in range(1, 6):
            for _ in range(20):
                a = rng.integers(-9, 10, size=(size, size))
                assert bareiss_det(a.tolist()) == round(np.linalg.det(a))
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[1, 2], [2, 4]]) == 0
        # C(6,1)_3's quotient has eigenvalues 15 and -10
        q = quotient_matrix(parse_short("C(6,1)_3")).entries
        assert q == ((5, 5), (30, 0))
        for value in (15, -10):
            assert bareiss_det([[5 - value, 5], [30, -value]]) == 0
        assert bareiss_det(q) == -150

    def test_census_at_n_up_to_12(self):
        checked = [
            ss
            for n in range(2, 13)
            for k in range(2, 7)
            for ss in iter_short_sequences(n, k)
            if ss.connected and ss.r >= 2
        ]
        assert len(checked) == 3918
        assert [format_short(ss) for ss in checked if head_value_is_a_root(ss)] == []

    def test_seeded_sample_of_long_runs(self):
        shapes = sample_shapes(300, seed=22)
        assert all(ss.connected and ss.r >= 2 for ss in shapes)
        assert max(ss.n for ss in shapes) >= 1000
        assert [format_short(ss) for ss in shapes if head_value_is_a_root(ss)] == []
