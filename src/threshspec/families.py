"""The three catalogued families of threshold hypergraphs.

Each family is a template of run lengths: `family_sequence` gives a
member's short sequence, and `family_spectrum_symbolic` hands it to
`full_spectrum_closed`, so a member's gamma comes from `block_profile`,
as every sequence's does.  `tests/test_spectrum.py` holds that gamma to
the catalogued closed forms.  A new family is one more branch of
`family_sequence`.
"""

from .combinatorics import count_text
from .errors import SequenceError
from .sequences import ShortSequence
from .spectrum import Spectrum, full_spectrum_closed

__all__ = ["family_sequence", "family_spectrum_symbolic"]


def family_sequence(
    family: int, n: int, k: int, j: int | None = None
) -> ShortSequence:
    """Short sequence of one of the three catalogued families.

    Family 1: a lone pseudodominant after n-1 silent vertices.
    Family 2: pseudodominants from position j through n (needs j).
    Family 3: a k-clique head, a silent middle, one late pseudodominant.
    Boundary cases that set bit k (family 1 with n = k, family 2 with
    j = k) collapse to the complete hypergraph, a single merged run.
    """
    if k < 2:
        raise SequenceError(f"uniformity must be at least 2, got {k}")
    if j is not None and family != 2:
        raise SequenceError(
            f"only family 2 takes j, got j={count_text(j)} for family {family}"
        )
    if family == 1:
        if n < k:
            raise SequenceError(
                f"family 1 needs n >= k, got n={count_text(n)}, k={count_text(k)}"
            )
        if n == k:
            return ShortSequence(k, (n,), first_run_has_ones=True)
        return ShortSequence(k, (n - 1, 1))
    if family == 2:
        if j is None:
            raise SequenceError("family 2 needs the first pseudodominant position j")
        if not k <= j <= n - 1:
            raise SequenceError(
                f"family 2 needs k <= j <= n-1, got j={count_text(j)}, "
                f"n={count_text(n)}, k={count_text(k)}"
            )
        if j == k:
            return ShortSequence(k, (n,), first_run_has_ones=True)
        return ShortSequence(k, (j - 1, n - j + 1))
    if family == 3:
        if n < k + 2:
            raise SequenceError(
                f"family 3 needs n >= k+2, got n={count_text(n)}, k={count_text(k)}"
            )
        return ShortSequence(k, (k, n - k - 1, 1), first_run_has_ones=True)
    raise SequenceError(f"unknown family {family}; expected 1, 2 or 3")


def family_spectrum_symbolic(
    family: int,
    n: int,
    k: int,
    j: int | None = None,
) -> Spectrum:
    """Spectrum of a family member: `full_spectrum_closed` of its
    `family_sequence`, so its gamma comes from `block_profile` and it
    refuses what the closed route refuses."""
    return full_spectrum_closed(family_sequence(family, n, k, j))
