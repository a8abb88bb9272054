import math
import random

import pytest

from threshspec.combinatorics import (
    COUNT_BIT_CAP,
    EXPANDED_CAP,
    FLOAT_SAFE_LIMIT,
    as_float,
    binomial,
    binomial_exceeds,
    bits_text,
    check_bit_text,
    check_count_bits,
    check_dense,
    check_dense_digits,
    check_dense_solve,
    check_edges,
    check_expanded,
    check_pair_counts,
    count_text,
    read_decimal,
)
from threshspec.errors import CountTooLargeError, ResourceLimitError
from threshspec.sequences import ShortSequence


def test_small_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, 0) == 1
    assert binomial(4, 4) == 1
    assert binomial(6, 3) == 20


def test_out_of_range_is_zero():
    assert binomial(7, -1) == 0
    assert binomial(-2, 0) == 0
    assert binomial(-2, -3) == 0
    assert binomial(3, 5) == 0


def test_matches_stdlib_inside_range():
    for n in range(41):
        for k in range(n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_pascal_identity_exhaustive():
    # also exercises the k = n boundary where the second term vanishes
    for n in range(1, 41):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_symmetry_and_row_sums():
    for n in range(41):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n, n - k)


def test_as_float_exact_below_boundary():
    assert as_float(0) == 0.0
    assert as_float(12) == 12.0
    assert as_float(FLOAT_SAFE_LIMIT) == float(2**53)
    assert as_float(-FLOAT_SAFE_LIMIT) == -float(2**53)


def test_as_float_rejects_lossy_conversion():
    with pytest.raises(CountTooLargeError):
        as_float(FLOAT_SAFE_LIMIT + 1)
    with pytest.raises(CountTooLargeError):
        as_float(-(FLOAT_SAFE_LIMIT + 1))
    with pytest.raises(CountTooLargeError):
        as_float(binomial(120, 60))
    # past the digit limit of int-to-text conversion: still a precision error
    with pytest.raises(CountTooLargeError, match="of 16610 bits"):
        as_float(10**5000)


def test_count_text_names_huge_counts_by_bit_length():
    assert count_text(12) == "12"
    assert count_text(-(10**4299)) == str(-(10**4299))
    assert count_text(10**5000) == "a number of 16610 bits"
    # a cap refusal never fails to name its count; the edge total of a
    # 10**2200-vertex star passes 4,300 digits
    past = ShortSequence(3, (10**4400, 1))
    for check, arg, error in (
        (check_edges, ShortSequence(2, (10**2200,), True), ResourceLimitError),
        (check_dense, 10**2500, ResourceLimitError),
        (check_dense_solve, 10**2000, ResourceLimitError),
        (check_dense_digits, past, ResourceLimitError),
        (check_pair_counts, past, CountTooLargeError),
        (check_bit_text, 10**4400, ResourceLimitError),
        (check_expanded, 10**4400, ResourceLimitError),
        (check_count_bits, 10**4400, ResourceLimitError),
    ):
        with pytest.raises(error, match=" bits"):
            check(arg)


@pytest.mark.parametrize(
    "check, cap", [(check_expanded, EXPANDED_CAP), (check_count_bits, COUNT_BIT_CAP)]
)
def test_a_size_at_its_cap_passes_and_one_over_is_refused(check, cap):
    check(cap)
    with pytest.raises(ResourceLimitError, match=f"over the cap of {cap}"):
        check(cap + 1)


def test_binomial_exceeds_matches_the_exact_binomial():
    for n in range(-2, 40):
        for k in range(-2, n + 3):
            for limit in (0, 1, 5, 10**6, FLOAT_SAFE_LIMIT):
                assert binomial_exceeds(n, k, limit) == (binomial(n, k) > limit)
    for n, k in ((56, 28), (57, 28), (99, 18), (10**17, 1), (10**17, 2)):
        assert binomial_exceeds(n, k, FLOAT_SAFE_LIMIT) == (
            binomial(n, k) > FLOAT_SAFE_LIMIT
        ), (n, k)


def test_binomial_exceeds_stops_near_the_limit():
    # the product at least doubles at each step, so it passes 2**53 within
    # 54 steps: these would not finish if it ran up to k
    for n, k in ((10**4400, 10**4399), (2 * 10**6, 10**6), (10**30, 10**29)):
        assert binomial_exceeds(n, k, FLOAT_SAFE_LIMIT), (n, k)
    assert not binomial_exceeds(10**4400, 10**4400 - 1, 10**4401)


def test_bits_text_names_a_count_it_never_sees():
    assert bits_text(16610) == count_text(10**5000) == "a number of 16610 bits"
    # a bit length past 4,300 digits is named by its own bit length
    assert bits_text(10**4400) == "a number of a number of 14617 bits bits"


def test_read_decimal_reads_any_length():
    rng = random.Random(7)
    for length in (1, 4300, 4301, 8601, 20000):
        text = str(rng.randint(1, 9)) + "".join(
            rng.choice("0123456789") for _ in range(length - 1)
        )
        value = 0
        for i in range(0, length, 1000):  # reference, 1,000 digits at a time
            chunk = text[i : i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert read_decimal(text) == value, length
        assert read_decimal(f" {text}\n") == value, length
    assert read_decimal("9" * 4400) == 10**4400 - 1
    # up to 4,300 characters it is int() itself, signs and underscores too
    for text in ("-12", "+7", "1_000", " 42 "):
        assert read_decimal(text) == int(text)
    for text in ("abc", "1" * 4400 + "x", "-" + "1" * 4400, "1_" * 2200):
        with pytest.raises(ValueError):
            read_decimal(text)
