"""Exact binomial counts with total boundary conventions.

Counting is done with native integers, which never overflow.  Counts only
become lossy when converted to floating point, and `as_float` refuses any
conversion that a double cannot represent exactly.
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


def count_text(count: int) -> str:
    """A count in decimal, or by its bit length past the 4,300 digits
    Python converts to text, so that a message never fails to name it."""
    try:
        return str(count)
    except ValueError:
        return f"a number of {count.bit_length()} bits"


def as_float(count: int) -> float:
    """Convert an exact count to a double, refusing lossy conversions."""
    if abs(count) > FLOAT_SAFE_LIMIT:
        raise CountTooLargeError(
            f"count {count_text(count)} exceeds 2**53 and would round in "
            "double precision"
        )
    return float(count)
