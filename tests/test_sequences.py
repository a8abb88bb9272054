import itertools

import pytest

from threshspec.errors import DisconnectedError, SequenceError
from threshspec.sequences import (
    BinarySequence,
    ShortSequence,
    complement_sequence,
    count_valid_sequences,
    delete_vertex,
    format_binary,
    format_short,
    iter_valid_sequences,
    parse_binary,
    parse_sequence,
    parse_short,
    to_binary,
    to_short,
)

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
    assert BinarySequence(3, (0, 0, 1)).connected
    assert not BinarySequence(3, (0, 0, 1, 0)).connected
    assert not BinarySequence(3, (0, 0)).connected


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
    assert [ss.prefix_sum(t) for t in range(1, 7)] == [5, 7, 8, 11, 14, 15]
    # merged head counts as a ones run, then kinds alternate
    assert [ss.block_is_ones(t) for t in range(1, 7)] == [
        True, False, True, False, True, False,
    ]
    assert ss.block_of(1) == 1
    assert ss.block_of(5) == 1
    assert ss.block_of(6) == 2
    assert ss.block_of(8) == 3
    assert ss.block_of(15) == 6

    plain = ShortSequence(3, (4, 1))
    assert [plain.block_is_ones(t) for t in (1, 2)] == [False, True]
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


def test_format_binary():
    assert format_binary(BinarySequence(3, (0, 0, 1, 0, 1))) == "k=3;0,0,1,0,1"
    assert parse_binary(format_binary(LONG_B)) == LONG_B


def test_complement_flips_free_positions_only():
    seq = BinarySequence(3, (0, 0, 1, 0, 1))
    comp = complement_sequence(seq)
    assert comp.bits == (0, 0, 0, 1, 0)
    assert comp.k == 3


def test_complement_is_an_involution():
    for k in range(2, 7):
        for n in range(k - 1, 10):
            for seq in iter_valid_sequences(n, k):
                assert complement_sequence(complement_sequence(seq)) == seq


def test_delete_vertex_examples():
    seq = BinarySequence(3, (0, 0, 1, 0, 1))
    assert delete_vertex(seq, 1).bits == (0, 0, 0, 1)
    assert delete_vertex(seq, 4).bits == (0, 0, 1, 1)
    assert delete_vertex(seq, 5).bits == (0, 0, 1, 0)
    with pytest.raises(SequenceError):
        delete_vertex(seq, 0)
    with pytest.raises(SequenceError):
        delete_vertex(seq, 6)
    with pytest.raises(SequenceError):
        delete_vertex(BinarySequence(3, (0, 0)), 1)


def test_iter_valid_sequences_counts_and_order():
    # free positions double the count; the degenerate length has exactly one
    assert len(list(iter_valid_sequences(2, 3))) == 1
    assert len(list(iter_valid_sequences(5, 3))) == 8
    assert len(list(iter_valid_sequences(5, 3, connected_only=True))) == 4
    assert len(list(iter_valid_sequences(1, 3))) == 0
    seqs = [s.bits for s in iter_valid_sequences(4, 3)]
    assert seqs == sorted(seqs)  # lexicographic, deterministic


def test_count_valid_sequences():
    assert count_valid_sequences(5, [3]) == 1 + 2 + 4 + 8
    assert count_valid_sequences(5, [3], connected_only=True) == 1 + 2 + 4
    assert count_valid_sequences(7, [2, 3]) == sum(
        2 ** (n - k + 1) for k in (2, 3) for n in range(k - 1, 8)
    )
