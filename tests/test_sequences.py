import itertools

import pytest

import threshspec.combinatorics as combinatorics
import threshspec.sequences as sequences
from threshspec.errors import ResourceLimitError, SequenceError
from threshspec.sequences import (
    BinarySequence,
    ShortSequence,
    complement_sequence,
    count_valid_sequences,
    format_bits,
    format_short,
    iter_short_sequences,
    iter_valid_sequences,
    parse_binary,
    parse_sequence,
    parse_short,
    sweep_space,
    to_binary,
    to_short,
)
from threshspec.spectrum import scan_quotient_simplicity
from threshspec.verify import run_all_sweeps


def _product_bits(n, k, connected=False):
    """Every valid bit string of n entries at uniformity k, in
    lexicographic order (only those ending in 1 when `connected`), listed
    by `itertools.product` with no package code."""
    if k < 2 or n < k - 1:
        return []
    return [
        (0,) * (k - 1) + tail
        for tail in itertools.product((0, 1), repeat=n - k + 1)
        if not connected or tail[-1:] == (1,)
    ]


LONG_A = BinarySequence(3, (0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1))
LONG_B = BinarySequence(4, (0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1))


def test_binary_validation():
    BinarySequence(2, (0, 1))
    BinarySequence(3, (0, 0))  # degenerate, no free positions
    with pytest.raises(SequenceError):
        BinarySequence(1, (0, 1))
    with pytest.raises(SequenceError):
        BinarySequence(3, (0,))  # shorter than the forced prefix
    with pytest.raises(SequenceError):
        BinarySequence(3, (0, 1, 1))  # prefix must stay zero
    with pytest.raises(SequenceError):
        BinarySequence(2, (0, 2))


def test_connected_flag():
    # connected exactly when the last bit is 1
    assert to_short(BinarySequence(3, (0, 0, 1))).connected
    assert not to_short(BinarySequence(3, (0, 0, 1, 0))).connected
    assert not to_short(BinarySequence(3, (0, 0))).connected


def test_short_shape_validation():
    ShortSequence(3, (4, 1))
    ShortSequence(3, (3, 1, 1), first_run_has_ones=True)
    with pytest.raises(SequenceError):
        ShortSequence(3, ())
    with pytest.raises(SequenceError):
        ShortSequence(3, (4, 0, 1))
    with pytest.raises(SequenceError):
        ShortSequence(1, (4, 1))
    # runs that no bit sequence has: the first run stops short of position k
    with pytest.raises(SequenceError, match="must reach position 4"):
        ShortSequence(4, (2, 1))
    with pytest.raises(SequenceError, match="cannot hold 3 zeros plus a one"):
        ShortSequence(4, (3, 1), first_run_has_ones=True)
    with pytest.raises(SequenceError, match="must reach position 2"):
        ShortSequence(3, (1,))
    # a lone zero run may stop at k-1; the lone vertex is the smallest
    ShortSequence(4, (3,))
    ShortSequence(2, (1,))


def test_short_block_geometry():
    ss = ShortSequence(3, (5, 2, 1, 3, 3, 1), first_run_has_ones=True)
    assert ss.r == 6
    assert ss.n == 15
    # merged head counts as a ones run, then kinds alternate
    assert list(ss.blocks()) == [
        (5, True), (2, False), (1, True), (3, False), (3, True), (1, False),
    ]
    assert not ss.connected
    assert ShortSequence(3, (5, 2, 1), first_run_has_ones=True).connected

    plain = ShortSequence(3, (4, 1))
    assert list(plain.blocks()) == [(4, False), (1, True)]
    assert plain.connected
    assert not ShortSequence(3, (4, 1, 1)).connected


def test_to_short_plain_runs():
    ss = to_short(BinarySequence(3, (0, 0, 0, 0, 1)))
    assert ss.runs == (4, 1)
    assert not ss.first_run_has_ones


def test_to_short_merges_leading_ones():
    ss = to_short(BinarySequence(3, (0, 0, 1, 0, 1)))
    assert ss.runs == (3, 1, 1)
    assert ss.first_run_has_ones


def test_to_short_long_examples():
    assert format_short(to_short(LONG_A)) == "C(5,2,1,3,3,1)_3"
    assert format_short(to_short(LONG_B)) == "C(7,1,2,3,1)_4"


def test_to_binary_round_trip_exhaustive():
    for k in range(2, 8):
        for n in range(k - 1, 10):
            for seq in iter_valid_sequences(n, k):
                assert to_binary(to_short(seq)) == seq
                assert to_short(seq).connected == (seq.bits[-1] == 1)


def test_to_binary_rejects_short_first_run():
    with pytest.raises(SequenceError):
        to_binary(ShortSequence(4, (2, 1)))
    with pytest.raises(SequenceError):
        to_binary(ShortSequence(4, (3, 1), first_run_has_ones=True))
    # a lone zero run may stop one short of the uniformity
    assert to_binary(ShortSequence(4, (3,))).bits == (0, 0, 0)


def test_parse_binary():
    seq = parse_binary("k=3;0,0,1,0,1")
    assert seq.k == 3
    assert seq.bits == (0, 0, 1, 0, 1)
    assert parse_binary(" k=4 ; 0,0,0,1 ").bits == (0, 0, 0, 1)
    for bad in ("k=3;0,1,1", "k=1;0,1", "k=3;", "0,0,1", "k=x;0,0,1", "k=3;0,0,2"):
        with pytest.raises(SequenceError):
            parse_binary(bad)


def test_parse_short_parity_rule():
    # even run count: sequence starts with zeros only
    assert to_binary(parse_short("C(3,2)_3")).bits == (0, 0, 0, 1, 1)
    # odd run count: the first run absorbs ones right after the zero prefix
    assert to_binary(parse_short("C(3,1,1)_3")).bits == (0, 0, 1, 0, 1)
    assert to_binary(parse_short("C(5)_3")).bits == (0, 0, 1, 1, 1)
    for bad in ("C()_3", "C(3,0,1)_3", "C(3,2)_1", "C(3,2)", "(3,2)_3"):
        with pytest.raises(SequenceError):
            parse_short(bad)
    # shape parses, but no bit sequence has a first run below position k
    with pytest.raises(SequenceError):
        parse_sequence("C(2,1)_4")


def test_parse_short_round_trip_connected():
    # short text carries no explicit head marker, so only connected
    # sequences are guaranteed to survive a text round trip
    for k in range(2, 6):
        for n in range(k, 11):
            for seq in iter_valid_sequences(n, k, connected_only=True):
                text = format_short(to_short(seq))
                assert to_binary(parse_short(text)) == seq


def test_parse_sequence_dispatch():
    assert parse_sequence("C(3,2)_3") == to_binary(parse_short("C(3,2)_3"))
    assert parse_sequence("k=3;0,0,1") == parse_binary("k=3;0,0,1")
    with pytest.raises(SequenceError):
        parse_sequence("threshold")


def test_bit_form_round_trips():
    for s in (LONG_A, LONG_B):
        assert parse_binary(format_bits(to_short(s))) == s


def test_format_bits_matches_the_expanded_bits():
    # every short form of tests/test_golden_output.py that names a sequence,
    # in both head layouts, then every sequence that `verify` and `scan` label
    shorts = []
    for k in range(2, 6):
        for r in range(1, 4):
            for runs in itertools.product(range(7), repeat=r):
                for merged in (False, True):
                    try:
                        shorts.append(ShortSequence(k, runs, merged))
                    except SequenceError:
                        continue
    assert len(shorts) > 500
    swept = [
        to_short(s)
        for k in range(2, 6)
        for n in range(13)
        for s in iter_valid_sequences(n, k)
    ]
    assert len(swept) == count_valid_sequences(12, range(2, 6))
    for ss in shorts + swept:
        bits = to_binary(ss).bits
        assert format_bits(ss) == f"k={ss.k};" + ",".join(map(str, bits)), ss


def test_format_bits_refuses_text_over_its_cap(monkeypatch):
    monkeypatch.setattr(combinatorics, "TEXT_CAP", 9)
    assert format_bits(ShortSequence(3, (4, 1))) == "k=3;0,0,0,0,1"
    with pytest.raises(ResourceLimitError, match="6 vertices has 11 characters"):
        format_bits(ShortSequence(3, (3, 2, 1), first_run_has_ones=True))


def test_to_binary_refuses_bits_over_the_text_cap(monkeypatch):
    # the bit form's text cap is checked before the bit list is built
    monkeypatch.setattr(combinatorics, "TEXT_CAP", 9)
    assert to_binary(ShortSequence(3, (4, 1))).bits == (0, 0, 0, 0, 1)
    with pytest.raises(ResourceLimitError, match="6 vertices has 11 characters"):
        to_binary(ShortSequence(3, (3, 2, 1), first_run_has_ones=True))


def test_complement_flips_free_positions_only():
    comp = complement_sequence(ShortSequence(3, (3, 1, 1), first_run_has_ones=True))
    assert comp == ShortSequence(3, (3, 1, 1))
    assert to_binary(comp).bits == (0, 0, 0, 1, 0)
    # the run form of the bit flip from position k on, for every sequence
    for k in range(2, 7):
        for n in range(k - 1, 13):
            for bits in _product_bits(n, k):
                flipped = bits[: k - 1] + tuple(1 - b for b in bits[k - 1 :])
                comp = complement_sequence(to_short(BinarySequence(k, bits)))
                assert comp == to_short(BinarySequence(k, flipped)), bits


def test_complement_is_an_involution():
    for k in range(2, 7):
        for n in range(k - 1, 13):
            for bits in _product_bits(n, k):
                ss = to_short(BinarySequence(k, bits))
                assert complement_sequence(complement_sequence(ss)) == ss


def test_iter_valid_sequences_counts_and_order():
    # free positions double the count; the degenerate length has exactly one
    assert len(list(iter_valid_sequences(2, 3))) == 1
    assert len(list(iter_valid_sequences(5, 3))) == 8
    assert len(list(iter_valid_sequences(5, 3, connected_only=True))) == 4
    assert len(list(iter_valid_sequences(1, 3))) == 0
    seqs = [s.bits for s in iter_valid_sequences(4, 3)]
    assert seqs == sorted(seqs)  # lexicographic, deterministic


def test_iter_short_sequences_are_the_run_forms_in_bit_order():
    for k in range(2, 6):
        for n in range(13):
            for connected in (False, True):
                expected = _product_bits(n, k, connected)
                assert [
                    s.bits for s in iter_valid_sequences(n, k, connected)
                ] == expected, (n, k, connected)
                shapes = iter_short_sequences(n, k)
                assert [s for s in shapes if s.connected or not connected] == [
                    to_short(BinarySequence(k, bits)) for bits in expected
                ], (n, k, connected)
    # no sequence below the forced zeros or at a uniformity under 2
    for n, k in [(0, 2), (1, 3), (3, 5), (5, 1), (5, 0), (0, 1)]:
        for connected in (False, True):
            shapes = iter_short_sequences(n, k)
            assert [s for s in shapes if s.connected or not connected] == []
            assert list(iter_valid_sequences(n, k, connected)) == []


def test_count_valid_sequences():
    assert count_valid_sequences(5, [3]) == 1 + 2 + 4 + 8
    assert count_valid_sequences(5, [3], connected_only=True) == 1 + 2 + 4
    assert count_valid_sequences(7, [2, 3]) == sum(
        2 ** (n - k + 1) for k in (2, 3) for n in range(k - 1, 8)
    )


def _reference_count(n_max, k_values, connected_only=False):
    # size by size, as the sweeps enumerate them
    total = 0
    for k in set(k_values):
        if k < 2:
            continue
        for n in range(k - 1, n_max + 1):
            if n == k - 1:
                total += 0 if connected_only else 1
            else:
                total += 2 ** (n - k + (0 if connected_only else 1))
    return total


K_LISTS = (
    [],
    [1],
    [2],
    [3],
    [7],
    [2, 2],
    [1, 2, 3],
    [3, 3, 5, 1],
    [7, 2, 4, 6],
    [1, 7, 7],
    [5, 6, 7],
    [1, 2, 3, 4, 5, 6, 7],
)


def test_count_valid_sequences_matches_the_reference_loop():
    # k > n_max + 1 has no size and k = 1 no sequence: both add nothing
    for n_max in range(41):
        for ks in K_LISTS:
            for connected in (False, True):
                count = count_valid_sequences(n_max, ks, connected)
                assert count == _reference_count(n_max, ks, connected)


def test_sweep_space_order_and_sizes():
    # k ascending, then n from k - 1 up; a size's sequences are listed by
    # the walk, and the sizes hold the whole counted space
    for n_max, ks in [(6, [4, 2, 2, 3]), (5, [1, 3]), (2, [5]), (7, [2])]:
        for connected in (False, True):
            sizes = sweep_space(n_max, ks, "demo", connected)
            assert sizes == [
                (k, n)
                for k in sorted({k for k in ks if k >= 2})
                for n in range(k - 1, n_max + 1)
            ]
            listed = [list(iter_valid_sequences(n, k, connected)) for k, n in sizes]
            for (k, n), size in zip(sizes, listed):
                assert all((s.k, s.n) == (k, n) for s in size)
            assert sum(map(len, listed)) == count_valid_sequences(
                n_max, ks, connected
            )


def test_sweep_space_refuses_before_building_a_sequence(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a sequence was built")

    monkeypatch.setattr(sequences, "iter_valid_sequences", no_enumeration)
    with pytest.raises(ResourceLimitError) as exc:
        sweep_space(17, [2], "demo", False)
    assert str(exc.value) == (
        "demo would visit 131071 sequences, over the budget of 100000"
    )
    # past 4,300 digits the count is named by its bit length: k = 2 and 3
    # give 2**(n_max-1+s) - 1 + 2**(n_max-2+s) - 1 with s = 0, or 1 for all;
    # the budget is a constant that sweep_space reads at each call
    monkeypatch.setattr(combinatorics, "SEQUENCE_BUDGET", 10**9)
    for n_max in (20000, 40000):
        for connected in (False, True):
            bits = n_max + (not connected)
            with pytest.raises(ResourceLimitError) as exc:
                sweep_space(n_max, [2, 3], "demo", connected)
            assert str(exc.value) == (
                f"demo would visit a number of {bits} bits sequences, "
                "over the budget of 1000000000"
            )
    # exactly at the budget the space is walked
    monkeypatch.undo()
    monkeypatch.setattr(combinatorics, "SEQUENCE_BUDGET", 2**10 - 1)
    space = sweep_space(10, [2], "demo", False)
    walked = sum(1 for k, n in space for _ in iter_valid_sequences(n, k))
    assert walked == 2**10 - 1


@pytest.mark.parametrize(
    "walk, what, connected",
    [(run_all_sweeps, "sweeps", False), (scan_quotient_simplicity, "scan", True)],
)
def test_refusal_names_the_count_on_each_side_of_4300_digits(walk, what, connected):
    # k = 2 holds 2**n_max - 1 sequences, 2**(n_max - 1) - 1 connected ones:
    # 4,300 digits up to 2**14284, 4,301 from 2**14285 on
    last = 14284 + connected
    for n_max in (last, last + 1):
        reference = _reference_count(n_max, [2], connected)
        with pytest.raises(ResourceLimitError) as exc:
            walk(n_max, [2])
        if n_max == last:
            text = str(reference)
            assert len(text) == 4300
        else:
            text = f"a number of {reference.bit_length()} bits"
        assert str(exc.value) == (
            f"{what} would visit {text} sequences, over the budget of 100000"
        )


def test_parse_short_reads_runs_past_4300_digits():
    ss = parse_short(f"C({'9' * 4400},1)_2")
    assert ss.runs == (10**4400 - 1, 1)
