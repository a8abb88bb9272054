"""Exact binomial counts with total boundary conventions.

Counting is done with native integers, which never overflow.  Counts only
become lossy when converted to floating point, and `as_float` refuses any
conversion that a double cannot represent exactly.  Python converts at
most 4,300 decimal digits between integers and text: `count_text` names a
longer count by its bit length, and `read_decimal` reads longer digits.
"""

import math

from .errors import CountTooLargeError

#: Largest magnitude a double represents exactly (2**53).
FLOAT_SAFE_LIMIT = 2**53


def binomial(n: int, k: int) -> int:
    """Number of k-subsets of an n-set, zero outside 0 <= k <= n.

    The zero conventions (negative k, negative n, k > n) make every
    counting formula in this package total: a term that would select from
    a set that is too small, or select a negative number of elements,
    contributes nothing.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_exceeds(n: int, k: int, limit: int) -> bool:
    """binomial(n, k) > limit, under the same zero conventions, without
    computing a binomial past the limit.

    With k the smaller of k and n - k, step i holds binomial(n - k + i, i),
    which grows with i and at least doubles at each step, so the product
    stops within log2(limit) + 1 steps, whatever n and k are.
    """
    if k < 0 or n < 0 or k > n:
        return 0 > limit
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > limit:
            return True
    return value > limit


#: Most decimal digits Python converts between an integer and text.
TEXT_DIGITS = 4300


def count_text(count: int) -> str:
    """A count in decimal, or by its bit length past the 4,300 digits
    Python converts to text, so that a message never fails to name it."""
    try:
        return str(count)
    except ValueError:
        return bits_text(count.bit_length())


def bits_text(bits: int) -> str:
    """`count_text` of a count past 4,300 digits, from its bit length alone,
    so that a count too large to build is named too; a bit length past
    4,300 digits is named by its own bit length in turn."""
    return f"a number of {count_text(bits)} bits"


def read_decimal(text: str) -> int:
    """`int(text)` without the 4,300-digit limit.

    Longer text must be decimal digits, surrounding whitespace allowed,
    and is read in two halves, high * 10**len(low) + low, each half the
    same way.
    """
    if len(text) <= TEXT_DIGITS:
        return int(text)
    digits = text.strip()
    if not digits.isdecimal():
        raise ValueError(f"not a decimal integer of {len(digits)} characters")
    half = len(digits) // 2
    high, low = digits[:half], digits[half:]
    return read_decimal(high) * 10 ** len(low) + read_decimal(low)


def as_float(count: int) -> float:
    """Convert an exact count to a double, refusing lossy conversions."""
    if abs(count) > FLOAT_SAFE_LIMIT:
        raise CountTooLargeError(
            f"count {count_text(count)} exceeds 2**53 and would round in "
            "double precision"
        )
    return float(count)
