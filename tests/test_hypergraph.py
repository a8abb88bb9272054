import math
import random
from itertools import combinations, product

import pytest

import threshspec.combinatorics as combinatorics
import threshspec.hypergraph as hypergraph
import threshspec.oracle as oracle
from threshspec.combinatorics import (
    DENSE_CELL_CAP,
    EDGE_CAP,
    EDGE_ENTRY_CAP,
    PAIR_WALK_CAP,
    check_dense_digits,
    check_edges,
    count_text,
    edge_total,
)
from threshspec.errors import ResourceLimitError
from threshspec.hypergraph import AdjacencyMatrix, ThresholdHypergraph, block_profile
from threshspec.oracle import (
    GeneralHypergraph,
    adjacency_bruteforce,
    edge_links,
    load_replaceable_non_threshold_7_4,
    pair_count,
    pseudodominants,
    recount_pairs,
)
from threshspec.sequences import (
    BinarySequence,
    ShortSequence,
    iter_valid_sequences,
    parse_runs,
    to_short,
)
from threshspec.spectrum import full_spectrum_closed


def hg(text):
    return ThresholdHypergraph.from_text(text)


def edge_walk_replaceable(g, x, y):
    """Reference: y replaces x when swapping y for x in every edge that
    holds x and avoids y lands on another edge, checked edge by edge."""
    return all(
        (e - {x}) | {y} in g.edges for e in g.edges if x in e and y not in e
    )


def edge_walk_totally_replaceable(g):
    return all(
        edge_walk_replaceable(g, x, y) or edge_walk_replaceable(g, y, x)
        for x, y in combinations(range(1, g.n + 1), 2)
    )


def random_general_hypergraphs(count, seed):
    """Seeded k-uniform hypergraphs with n <= 8 and k <= 4: half keep each
    k-subset with a random density, half are threshold hypergraphs with a
    few k-subsets toggled, so both outcomes of totality are frequent."""
    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(2, 4)
        n = rng.randint(k, 8)
        subsets = [frozenset(c) for c in combinations(range(1, n + 1), k)]
        if i % 2:
            density = rng.random()
            edges = {e for e in subsets if rng.random() < density}
        else:
            bits = [0] * (k - 1) + [rng.randint(0, 1) for _ in range(n - k + 1)]
            h = ThresholdHypergraph(BinarySequence(k, tuple(bits)))
            edges = set(h.to_general().edges)
            edges ^= set(rng.sample(subsets, rng.randint(0, min(2, len(subsets)))))
        yield GeneralHypergraph(n, k, frozenset(edges))


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

    def test_unchecked_builders_hold_the_checked_contract(self):
        # `adjacency` and `recount_pairs` skip the O(n**2) check: what they
        # build must pass it, with int entries
        for h in all_hypergraphs(9, range(2, 6)):
            for m in (h.adjacency(), adjacency_bruteforce(h)):
                assert AdjacencyMatrix(m.entries) == m
                assert all(type(x) is int for row in m.entries for x in row)

    def test_recount_refuses_a_repeated_vertex(self):
        with pytest.raises(ValueError, match="^adjacency diagonal must be zero$"):
            recount_pairs(3, [(1, 1, 2)])

    def test_links_refuse_a_repeated_vertex(self):
        # an edge that repeats a vertex is no k-subset: its links would be
        # those of a smaller edge
        with pytest.raises(ValueError, match=r"^edge \(1, 2, 2\) repeats a vertex$"):
            edge_links(4, [(1, 2, 2), (3, 4, 4)])
        with pytest.raises(ValueError, match=r"^edge \(1, True\) repeats a vertex$"):
            edge_links(2, [(1, True)])

    @pytest.mark.parametrize(
        "build, edge, vertex",
        [
            (recount_pairs, (0, 1), 0),
            (recount_pairs, (1, 4), 4),
            (recount_pairs, (-1, 2), -1),
            (edge_links, (0, 1, 2), 0),
            (recount_pairs, (1.0, 2.0), 1.0),
            (edge_links, (1.0, 2.0), 1.0),
            (
                lambda n, es: GeneralHypergraph(n, 2, frozenset(map(frozenset, es))),
                (1.0, 2.0),
                1.0,
            ),
            (recount_pairs, ("a", 0), 0),
            (recount_pairs, (None, 0), 0),
            (recount_pairs, (1.5, "x"), 1.5),
            (recount_pairs, ("b", "a"), "a"),
        ],
    )
    def test_an_edge_list_off_the_vertex_range_is_refused(self, build, edge, vertex):
        # a row index of 0 or below wraps to another row, one past n raises
        # IndexError, and 1.0 equals 1 but is no index: each must be
        # refused by name first.  Offenders of mixed types are named
        # without comparing two types (a number first), and strings by
        # repr, not in the hash-seeded order of a set
        with pytest.raises(ValueError, match=f"^vertex {vertex} out of range 1..3$"):
            build(3, [edge])

    @pytest.mark.parametrize(
        "i, j, vertex",
        [(1.5, 3, "1\\.5"), (3, 1.5, "1\\.5"), (9, 0, "0")],
        ids=["float-first", "float-second", "both-outside"],
    )
    def test_a_vertex_pair_is_read_by_the_one_vertex_rule(self, i, j, vertex):
        # a vertex is an int in 1..n, and of two outside it the lesser is
        # named, in the direct pair count as in replaceability
        ss = parse_runs("C(2,2)_2")
        g = GeneralHypergraph(4, 2, frozenset({frozenset({1, 2})}))
        for call in (lambda: pair_count(ss, i, j), lambda: g.replaceable(i, j)):
            with pytest.raises(ValueError, match=f"^vertex {vertex} out of range 1..4$"):
                call()

    @pytest.mark.parametrize("build", [recount_pairs, edge_links])
    def test_a_one_shot_edge_iterable_is_refused(self, build):
        # the vertex check would consume a generator, and the count that
        # follows would see no edge: an all-zero matrix, or four empty links
        once = "^edges must be a collection, not a one-shot generator$"
        with pytest.raises(TypeError, match=once):
            build(4, (e for e in [(1, 2, 3), (2, 3, 4)]))
        with pytest.raises(TypeError, match="one-shot list_iterator$"):
            build(4, iter([(1, 2, 3)]))
        # so would a one-shot edge inside a list
        member = "^edges must be collections: .* 'tuple_iterator' has no len"
        with pytest.raises(TypeError, match=member):
            build(4, [(2, 3, 4), iter((1, 2, 3))])

    @pytest.mark.parametrize("build", [recount_pairs, edge_links])
    def test_an_edge_list_checked_on_one_range_is_refused_on_a_smaller(self, build):
        # each call checks the list it is given: a list that passed on one
        # range is not trusted on another
        checked = [(1, 4), (2, 3)]
        assert build(4, checked) == build(4, [(1, 4), (2, 3)])
        with pytest.raises(ValueError, match="^vertex 4 out of range 1..3$"):
            build(3, checked)


class TestThresholdHypergraph:
    def test_pseudodominants(self):
        assert pseudodominants(hg("k=3;0,0,1,0,1").runs) == [3, 5]
        assert pseudodominants(hg("k=4;0,0,0,1,1,0").runs) == [4, 5]

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
            assert len(edges) == edge_total(h.runs)
            assert len(set(edges)) == len(edges)

    def test_degenerate_sequence_has_no_edges(self):
        h = ThresholdHypergraph(BinarySequence(3, (0, 0)))
        assert edge_total(h.runs) == 0
        assert h.edges() == []
        assert h.adjacency().entries == ((0, 0), (0, 0))

    def test_either_encoding_gives_the_same_hypergraph(self):
        for seq in iter_valid_sequences(7, 3):
            from_bits, from_runs = ThresholdHypergraph(seq), ThresholdHypergraph(
                to_short(seq)
            )
            assert from_bits == from_runs and hash(from_bits) == hash(from_runs)
            assert from_bits.runs == from_runs.runs == to_short(seq)
            assert from_bits.sequence == seq  # rebuilt from the runs
            assert from_runs.sequence == seq
        h = hg("C(3,1,1)_3")
        assert h.runs == parse_runs("C(3,1,1)_3")
        assert (h.n, h.k, h.sequence.bits) == (5, 3, (0, 0, 1, 0, 1))

    def test_pseudodominants_are_the_one_positions_of_the_bits(self):
        # the run decoding that edges and pair_count share with
        # block_profile, held against the raw bits of every sequence
        for k in range(2, 6):
            for n in range(k - 1, 13):
                for tail in product((0, 1), repeat=n - k + 1):
                    bits = (0,) * (k - 1) + tail
                    h = ThresholdHypergraph(BinarySequence(k, bits))
                    assert pseudodominants(h.runs) == [
                        v for v, b in enumerate(bits, start=1) if b
                    ], bits

    def test_caps_refuse_a_short_form_before_building_its_bits(self, monkeypatch):
        # the library checks both caps on the runs: the bits of a billion
        # vertices are never built, and the closed route answers from the runs
        import threshspec.sequences as sequences

        def no_expansion(ss):
            raise AssertionError("short form expanded to bits")

        monkeypatch.setattr(sequences, "to_binary", no_expansion)
        monkeypatch.setattr(hypergraph, "to_binary", no_expansion)
        h = hg("C(1000000000,1)_3")
        with pytest.raises(ResourceLimitError, match="over the cap"):
            h.adjacency()
        with pytest.raises(ResourceLimitError, match="exceed the cap"):
            h.edges()
        assert edge_total(h.runs) == 10**9 * (10**9 - 1) // 2
        spec = full_spectrum_closed(h.runs)
        assert sum(p.multiplicity for p in spec.pairs) == 10**9 + 1

    def test_edge_cap(self, monkeypatch):
        # the cap is a constant that edges() reads at each call
        h = hg("k=3;0,0,1,0,1")
        monkeypatch.setattr(combinatorics, "EDGE_CAP", 6)
        with pytest.raises(ResourceLimitError):
            h.edges()
        monkeypatch.setattr(combinatorics, "EDGE_CAP", 7)
        assert len(h.edges()) == 7

    def test_pair_count_walk_cap(self, monkeypatch):
        # the direct pair count walks the vertices, each adding a binomial
        # of about min(k, n - k) factors: over the cap on that weight it
        # is refused before the walk.  Three pseudodominants make the call
        # just under the cap quick
        assert PAIR_WALK_CAP == 20_000_000
        assert pair_count(parse_runs("C(6666663,3)_3"), 1, 2) == 3
        with pytest.raises(
            ResourceLimitError,
            match="^a walk over 6666667 vertices at uniformity 3 weighs "
            "20000001, over the cap of 20000000$",
        ):
            pair_count(parse_runs("C(6666664,3)_3"), 1, 2)
        monkeypatch.setattr(combinatorics, "PAIR_WALK_CAP", 8)
        assert pair_count(parse_runs("C(2,2)_2"), 1, 2) == 0
        with pytest.raises(ResourceLimitError, match="^a walk over 5 vertices"):
            pair_count(parse_runs("C(2,3)_2"), 1, 2)

    def test_edge_refusal_matches_the_exact_total(self, monkeypatch):
        # the lower bound decides nothing on its own: check_edges refuses
        # exactly when the total is over the cap, with the message that
        # names the total, or else when its entries are over theirs
        rng = random.Random(15)
        cases = [
            # a total past 4,300 digits whose bound is not: named by bits
            (ShortSequence(2, (10**2200,), True), 10),
            (ShortSequence(3, (3, 10**1500, 2)), EDGE_CAP),
        ]
        for _ in range(400):
            k = rng.randint(2, 6)
            runs = [rng.randint(k, k + 30)] + [
                rng.randint(1, 30) for _ in range(rng.randint(0, 4))
            ]
            ss = ShortSequence(k, tuple(runs), rng.random() < 0.5)
            cases.append((ss, rng.choice((1, 5, 100, 5000, EDGE_CAP))))
        for ss, cap in cases:
            monkeypatch.setattr(combinatorics, "EDGE_CAP", cap)
            total = edge_total(ss)
            expected = None
            if total > cap:
                expected = f"{count_text(total)} edges exceed the cap of {cap}"
            elif total * ss.k > EDGE_ENTRY_CAP:
                expected = (
                    f"{total} edges of {ss.k} vertices hold {total * ss.k} "
                    f"entries, over the cap of {EDGE_ENTRY_CAP}"
                )
            try:
                check_edges(ss)
                got = None
            except ResourceLimitError as exc:
                got = str(exc)
            assert got == expected, (ss, cap)
        monkeypatch.setattr(combinatorics, "EDGE_CAP", cases[0][1])
        with pytest.raises(ResourceLimitError, match=" bits edges exceed"):
            check_edges(cases[0][0])

    def test_edge_refusal_weighs_a_bound_before_the_total(self, monkeypatch):
        # binomial(e-1, k-1) of the last one bit already has over 4,300
        # digits: the exact total, 60,000 digits and more, is never built
        def no_total(ss):
            raise AssertionError("exact edge total computed")

        monkeypatch.setattr(combinatorics, "edge_total", no_total)
        for text in ("C(200000,1)_100000", "C(2000000,1)_1000000"):
            with pytest.raises(ResourceLimitError) as exc:
                hg(text).edges()
            assert str(exc.value) == (
                "at least a number of 14285 bits edges exceed the cap of "
                "10000000"
            )

    def test_dense_digit_cap(self):
        # cells times the digits of binomial(n-2, k-2): the cell cap passes
        # with 16-digit entries and is refused with longer ones
        n = math.isqrt(DENSE_CELL_CAP)
        assert len(str(math.comb(n - 2, 5))) == 16
        check_dense_digits(ShortSequence(7, (n - 1, 1)))
        assert len(str(math.comb(n - 2, 6))) == 19
        with pytest.raises(ResourceLimitError, match="more than 16 digits each"):
            check_dense_digits(ShortSequence(8, (n - 1, 1)))
        # every edge ends by the last vertex with bit 1: past it, n alone
        # does not lengthen the entries
        tail = to_short(BinarySequence(8, (0,) * 7 + (1,) + (0,) * (n - 8)))
        check_dense_digits(tail)
        assert max(block_profile(tail).gamma) == 1
        with pytest.raises(ResourceLimitError, match="more than 39 digits each"):
            hg("C(2000,1)_1000").adjacency()

    def test_dense_cap(self):
        # one vertex past the cell cap: both dense builders refuse before
        # allocating, although the edge count stays under the edge cap
        n = math.isqrt(DENSE_CELL_CAP) + 1
        h = ThresholdHypergraph(BinarySequence(3, (0,) * (n - 1) + (1,)))
        assert edge_total(h.runs) < EDGE_CAP
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

    def test_zero_bits_independent_one_bits_a_clique(self):
        # zero bits never finish an edge, and any k one-bit vertices form
        # an edge on their own
        for h in all_hypergraphs(7):
            ones = pseudodominants(h.runs)
            zeros = set(range(1, h.n + 1)).difference(ones)
            edges = set(h.edges())
            assert not any(set(e) <= zeros for e in edges)
            assert edges.issuperset(combinations(ones, h.k))


class TestGeneralHypergraph:
    def test_replaceable_validation(self):
        g = GeneralHypergraph(4, 2, frozenset({frozenset({1, 2}), frozenset({3, 4})}))
        with pytest.raises(ValueError):
            g.replaceable(2, 2)
        with pytest.raises(ValueError):
            g.replaceable(1, 9)

    def test_disjoint_edges_are_incomparable(self):
        g = GeneralHypergraph(4, 2, frozenset({frozenset({1, 2}), frozenset({3, 4})}))
        assert not g.replaceable(1, 3)
        assert not g.replaceable(3, 1)
        assert not g.is_totally_replaceable()

    def test_isolated_vertex_is_vacuously_replaceable(self):
        g = GeneralHypergraph(3, 2, frozenset({frozenset({1, 2})}))
        assert g.replaceable(3, 1)
        assert not g.replaceable(1, 3)
        assert g.is_totally_replaceable()

    def test_replaceability_matches_the_edge_walk(self):
        graphs = list(random_general_hypergraphs(3000, seed=20261018))
        graphs.append(load_replaceable_non_threshold_7_4())
        pairs = incomparable = 0
        for g in graphs:
            for x in range(1, g.n + 1):
                for y in range(1, g.n + 1):
                    if x != y:
                        assert g.replaceable(x, y) == edge_walk_replaceable(
                            g, x, y
                        ), (g.sorted_edges(), x, y)
                        pairs += 1
            total = edge_walk_totally_replaceable(g)
            assert g.is_totally_replaceable() == total, g.sorted_edges()
            incomparable += not total
        assert pairs > 50_000
        assert 500 < incomparable < len(graphs) - 500

    def test_links(self):
        g = GeneralHypergraph(
            4, 3, frozenset({frozenset({1, 2, 3}), frozenset({2, 3, 4})})
        )
        assert g.sorted_edges() == [(1, 2, 3), (2, 3, 4)]
        # bit v stands for vertex v: link(2) = {{1, 3}, {3, 4}}
        assert edge_links(g.n, g.edges) == {
            1: {0b1100},
            2: {0b1010, 0b11000},
            3: {0b110, 0b10100},
            4: {0b1100},
        }
        # a vertex in no edge has no key
        assert edge_links(6, g.edges).keys() == {1, 2, 3, 4}

    @pytest.mark.parametrize("seed", [None, 54], ids=["example_7_4", "seeded"])
    def test_links_are_built_once(self, seed, monkeypatch):
        # every pair and the total read the one cached link map, of the
        # paper's example or of 200 seeded 4-subsets of 12 vertices
        if seed is None:
            g = load_replaceable_non_threshold_7_4()
        else:
            subsets = list(combinations(range(1, 13), 4))
            edges = random.Random(seed).sample(subsets, 200)
            g = GeneralHypergraph(12, 4, frozenset(map(frozenset, edges)))
        calls = []

        def counted(n, edges):
            calls.append(n)
            return edge_links(n, edges)

        monkeypatch.setattr(oracle, "edge_links", counted)
        for x in range(1, g.n + 1):
            for y in range(1, g.n + 1):
                if x != y:
                    assert g.replaceable(x, y) == edge_walk_replaceable(g, x, y)
        assert g.is_totally_replaceable() == edge_walk_totally_replaceable(g)
        assert calls == [g.n]
        assert g.links is g.links

    def test_post_init_names_the_first_bad_edge(self):
        with pytest.raises(ValueError, match=r"edge \[1, 2\] does not have 3"):
            GeneralHypergraph(4, 3, frozenset({frozenset({1, 2})}))
        # an edge off the vertex range is named by its vertex
        with pytest.raises(ValueError, match=r"^vertex 0 out of range 1\.\.4$"):
            GeneralHypergraph(4, 3, frozenset({frozenset({0, 1, 2})}))
        with pytest.raises(ValueError, match=r"^vertex 9 out of range 1\.\.4$"):
            GeneralHypergraph(4, 3, frozenset({frozenset({1, 2, 9})}))
        # a one-shot edge is refused as the edge-list oracles refuse it
        once = "^edges must be collections: .* 'tuple_iterator' has no len"
        with pytest.raises(TypeError, match=once):
            GeneralHypergraph(4, 3, frozenset({iter((1, 2, 3))}))
        assert GeneralHypergraph(0, 2, frozenset()).is_totally_replaceable()
        for n, k in ((3, 1), (-1, 2)):
            with pytest.raises(ValueError, match="need k >= 2 and n >= 0"):
                GeneralHypergraph(n, k, frozenset())

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
