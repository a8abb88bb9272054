import math
from itertools import combinations

import pytest

from threshspec.errors import ResourceLimitError, SequenceError
from threshspec.hypergraph import (
    DEFAULT_EDGE_CAP,
    DENSE_CELL_CAP,
    AdjacencyMatrix,
    GeneralHypergraph,
    ThresholdHypergraph,
    adjacency_bruteforce,
    load_replaceable_non_threshold_7_4,
)
from threshspec.sequences import BinarySequence, iter_valid_sequences


def hg(text):
    return ThresholdHypergraph.from_text(text)


def all_hypergraphs(n_max, k_range=range(2, 8)):
    for k in k_range:
        for n in range(k - 1, n_max + 1):
            for seq in iter_valid_sequences(n, k):
                yield ThresholdHypergraph(seq)


class TestAdjacencyMatrix:
    def test_validation(self):
        AdjacencyMatrix(((0, 2), (2, 0)))
        with pytest.raises(ValueError):
            AdjacencyMatrix(((0, 1),))
        with pytest.raises(ValueError):
            AdjacencyMatrix(((1, 2), (2, 0)))
        with pytest.raises(ValueError):
            AdjacencyMatrix(((0, 1), (2, 0)))
        with pytest.raises(ValueError):
            AdjacencyMatrix(((0, -1), (-1, 0)))

    def test_frobenius_sq_exact(self):
        m = AdjacencyMatrix(((0, 2, 1), (2, 0, 3), (1, 3, 0)))
        assert m.frobenius_sq() == 2 * (4 + 1 + 9)

    def test_float_rows_and_csv(self):
        m = AdjacencyMatrix(((0, 2), (2, 0)))
        assert m.to_float_rows() == [[0.0, 2.0], [2.0, 0.0]]
        assert m.csv_lines() == ["0,2", "2,0"]


class TestThresholdHypergraph:
    def test_membership(self):
        h = hg("k=3;0,0,1,0,1")
        assert h.is_edge((1, 2, 3))
        assert h.is_edge((5, 2, 1))
        assert not h.is_edge((1, 2, 4))
        assert not h.is_edge((2, 3, 4))
        with pytest.raises(ValueError):
            h.is_edge((1, 2))
        with pytest.raises(ValueError):
            h.is_edge((1, 2, 2))  # duplicates collapse below size k
        with pytest.raises(ValueError):
            h.is_edge((1, 2, 6))

    def test_pseudodominants(self):
        assert hg("k=3;0,0,1,0,1").pseudodominants() == [3, 5]
        assert hg("k=4;0,0,0,1,1,0").pseudodominants() == [4, 5]

    def test_edges_almost_complete(self):
        assert hg("k=4;0,0,0,1,1,0").edges() == [
            (1, 2, 3, 4),
            (1, 2, 3, 5),
            (1, 2, 4, 5),
            (1, 3, 4, 5),
            (2, 3, 4, 5),
        ]

    def test_edges_two_pseudodominants(self):
        assert hg("k=3;0,0,1,0,1").edges() == [
            (1, 2, 3),
            (1, 2, 5),
            (1, 3, 5),
            (1, 4, 5),
            (2, 3, 5),
            (2, 4, 5),
            (3, 4, 5),
        ]

    def test_edges_lexicographic_and_counted(self):
        for h in all_hypergraphs(7):
            edges = h.edges()
            assert edges == sorted(edges)
            assert len(edges) == h.edge_count()
            assert len(set(edges)) == len(edges)

    def test_degenerate_sequence_has_no_edges(self):
        h = ThresholdHypergraph(BinarySequence(3, (0, 0)))
        assert h.edge_count() == 0
        assert h.edges() == []
        assert h.adjacency().entries == ((0, 0), (0, 0))

    def test_edge_cap(self):
        h = hg("k=3;0,0,1,0,1")
        with pytest.raises(ResourceLimitError):
            h.edges(cap=6)
        assert len(h.edges(cap=7)) == 7

    def test_dense_cap(self):
        # one vertex past the cell cap: both dense builders refuse before
        # allocating, although the edge count stays under the edge cap
        n = math.isqrt(DENSE_CELL_CAP) + 1
        h = ThresholdHypergraph(BinarySequence(3, (0,) * (n - 1) + (1,)))
        assert h.edge_count() < DEFAULT_EDGE_CAP
        for build in (h.adjacency, lambda: adjacency_bruteforce(h)):
            with pytest.raises(ResourceLimitError, match="over the cap"):
                build()

    def test_pair_count_examples(self):
        h = hg("k=4;0,0,0,1,1,0")
        assert h.pair_count(1, 2) == 3
        assert h.pair_count(1, 4) == 3
        assert h.pair_count(4, 5) == 3
        assert h.pair_count(1, 6) == 0
        assert h.pair_count(6, 1) == 0
        with pytest.raises(ValueError):
            h.pair_count(2, 2)
        with pytest.raises(ValueError):
            h.pair_count(0, 3)

    def test_adjacency_single_pseudodominant(self):
        assert hg("k=3;0,0,0,0,1").adjacency().entries == (
            (0, 1, 1, 1, 3),
            (1, 0, 1, 1, 3),
            (1, 1, 0, 1, 3),
            (1, 1, 1, 0, 3),
            (3, 3, 3, 3, 0),
        )

    def test_adjacency_two_pseudodominants(self):
        assert hg("k=3;0,0,1,0,1").adjacency().entries == (
            (0, 2, 2, 1, 3),
            (2, 0, 2, 1, 3),
            (2, 2, 0, 1, 3),
            (1, 1, 1, 0, 3),
            (3, 3, 3, 3, 0),
        )

    def test_graph_case_is_ordinary_adjacency(self):
        # k = 2 pair counts are 0/1, the usual graph adjacency matrix
        assert hg("k=2;0,1").adjacency().entries == ((0, 1), (1, 0))
        assert hg("k=2;0,1,1").adjacency().entries == (
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        )

    def test_adjacency_matches_bruteforce(self):
        for h in all_hypergraphs(7):
            assert h.adjacency() == adjacency_bruteforce(h)

    def test_adjacency_matches_pair_count(self):
        for h in all_hypergraphs(6):
            a = h.adjacency().entries
            for i in range(1, h.n + 1):
                for j in range(1, h.n + 1):
                    if i != j:
                        assert a[i - 1][j - 1] == h.pair_count(i, j)

    def test_split_partition(self):
        assert hg("k=3;0,0,1,0,1").split_partition() == ((1, 2, 4), (3, 5))
        for h in all_hypergraphs(7):
            zeros, ones = h.split_partition()
            zero_set = set(zeros)
            for e in h.edges():
                assert not set(e) <= zero_set
            if len(ones) >= h.k:
                for e in combinations(ones, h.k):
                    assert h.is_edge(e)


class TestGeneralHypergraph:
    def test_from_edge_lines(self):
        g = GeneralHypergraph.from_edge_lines("1,2,3\n\n2,3,4\n", 4, 3)
        assert g.sorted_edges() == [(1, 2, 3), (2, 3, 4)]
        assert g.is_edge((3, 2, 1))
        assert not g.is_edge((1, 2, 4))
        with pytest.raises(SequenceError):
            GeneralHypergraph.from_edge_lines("1,2,x", 4, 3)
        with pytest.raises(ValueError):
            GeneralHypergraph.from_edge_lines("1,2", 4, 3)
        with pytest.raises(ValueError):
            GeneralHypergraph.from_edge_lines("1,2,9", 4, 3)

    def test_replaceable_validation(self):
        g = GeneralHypergraph.from_edge_lines("1,2\n3,4", 4, 2)
        with pytest.raises(ValueError):
            g.replaceable(2, 2)
        with pytest.raises(ValueError):
            g.replaceable(1, 9)

    def test_disjoint_edges_are_incomparable(self):
        g = GeneralHypergraph.from_edge_lines("1,2\n3,4", 4, 2)
        assert not g.replaceable(1, 3)
        assert not g.replaceable(3, 1)
        assert not g.is_totally_replaceable()

    def test_isolated_vertex_is_vacuously_replaceable(self):
        g = GeneralHypergraph.from_edge_lines("1,2", 3, 2)
        assert g.replaceable(3, 1)
        assert not g.replaceable(1, 3)
        assert g.is_totally_replaceable()

    def test_threshold_to_general_round_trip(self):
        h = hg("k=3;0,0,1,0,1")
        g = h.to_general()
        assert g.n == 5 and g.k == 3
        assert g.sorted_edges() == h.edges()


class TestBundledExample:
    def test_shape(self):
        g = load_replaceable_non_threshold_7_4()
        assert g.n == 7 and g.k == 4
        assert g.sorted_edges() == [
            (1, 5, 6, 7),
            (2, 5, 6, 7),
            (3, 5, 6, 7),
            (4, 5, 6, 7),
        ]

    def test_degree_profile(self):
        g = load_replaceable_non_threshold_7_4()
        degrees = sorted(
            sum(1 for e in g.edges if v in e) for v in range(1, 8)
        )
        assert degrees == [1, 1, 1, 1, 4, 4, 4]

    def test_replaceability_directions(self):
        g = load_replaceable_non_threshold_7_4()
        assert g.replaceable(1, 2) and g.replaceable(2, 1)
        assert g.replaceable(4, 5)
        assert not g.replaceable(5, 4)
        assert g.replaceable(5, 6) and g.replaceable(6, 5)
        assert g.is_totally_replaceable()
