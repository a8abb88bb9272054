"""The three catalogued families of threshold hypergraphs.

`family_sequence` gives a member's short sequence.  `family_spectrum_symbolic`
enters the member's gamma by hand, from the catalogued closed forms, and
shares the rest of the closed route in `spectrum`: the block eigenvalues,
the quotient's pencil and the merge.
"""

from .combinatorics import binomial, check_closed, count_text, edge_total
from .errors import SequenceError
from .hypergraph import BlockProfile, check_pair_total
from .sequences import ShortSequence
from .spectrum import Spectrum, _assemble

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
    """Spectrum of a family member from its catalogued closed forms.

    Each family's gamma is entered by hand, made into a `BlockProfile`
    without `block_profile` and handed to the assembler of the closed
    route: family 1 has
    (binomial(n-3, k-3), binomial(n-2, k-2)), family 2 has
    (sum over the pseudodominants p = j..n of binomial(p-3, k-3),
    binomial(n-2, k-2)), summed by the hockey stick to
    binomial(n-2, k-2) - binomial(j-3, k-2), and family 3 has
    (binomial(n-3, k-3) + 1, binomial(n-3, k-3), binomial(n-2, k-2)).
    The complete-hypergraph boundaries (family 1 with n = k, family 2
    with j = k) are one block with (binomial(n-2, k-2),).  The hand-entered
    gamma is held to the pair-total identity that `block_profile` checks,
    `check_pair_total` against `edge_total`.  Always agrees with
    `full_spectrum_closed`, merging at the same `MERGE_TOL`, and refuses
    what it refuses, before any binomial.
    """
    ss = family_sequence(family, n, k, j)
    check_closed(ss)
    a_cnt = binomial(n - 3, k - 3)
    b_cnt = binomial(n - 2, k - 2)
    if ss.r == 1:
        gamma: tuple[int, ...] = (b_cnt,)
    elif family == 1:
        gamma = (a_cnt, b_cnt)
    elif family == 2:
        gamma = (b_cnt - binomial(j - 3, k - 2), b_cnt)
    else:
        gamma = (a_cnt + 1, a_cnt, b_cnt)
    bp = BlockProfile(ss, gamma)
    check_pair_total(k, bp.pair_total, edge_total(ss), ss)
    return _assemble(bp)
