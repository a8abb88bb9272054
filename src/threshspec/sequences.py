"""Creation sequences for k-uniform threshold hypergraphs.

A hypergraph in this family is described by a 0/1 sequence read in vertex
order: entry i is 1 when vertex i closes an edge with every choice of k-1
earlier vertices, and 0 when it arrives with no edges of its own.  The
first k-1 entries are always 0 because no edge can end before vertex k.

Two interchangeable encodings are supported:

* bit form, one entry per vertex, written ``k=3;0,0,1,0,1``
* short form, run lengths of maximal constant blocks, written ``C(3,1,1)_3``

In the short form, when the k-th bit is 1 the forced leading zeros and the
first run of ones merge into a single first run (`first_run_has_ones`).
Short-form text is read with the parity rule (an even run count means the
k-th bit is 0), which is unambiguous exactly for connected hypergraphs;
the in-memory type keeps the marker explicit so conversions round-trip
for disconnected sequences as well, and refuses runs no bit sequence has.

`sweep_space` owns the space the exhaustive sweeps (`verify`) and the
quotient scan walk: every (k, n) size up to a bound, in one order,
weighed up front by its closed-form count of sequences.  `verify` lists
a size's run shapes with `iter_short_sequences`; the scan grows them as a
tree of suffixes.
The package enumerates and computes on the run form only; bits are built
from text (`parse_binary`, `parse_sequence`) or on request (`to_binary`).
"""

import re
from collections.abc import Iterable, Iterator
from itertools import groupby
from operator import index

from .combinatorics import (
    TEXT_DIGITS,
    check_bit_text,
    check_count_bits,
    check_sweep,
    count_text,
    read_decimal,
)
from .errors import SequenceError
from .records import FrozenRecord

__all__ = [
    "BinarySequence",
    "ShortSequence",
    "to_short",
    "to_binary",
    "parse_binary",
    "parse_short",
    "parse_sequence",
    "parse_runs",
    "format_bits",
    "format_short",
    "complement_sequence",
    "iter_valid_sequences",
    "iter_short_sequences",
    "count_valid_sequences",
    "sweep_space",
]

class BinarySequence(FrozenRecord):
    """Bit form of a creation sequence, built only from text or on
    request: the package computes on `ShortSequence`.

    Degenerate case: n = k-1 is allowed (necessarily all zeros, no edges),
    the bit form of the lone zero run the sweeps start from.
    """

    _fields = ("k", "bits")

    def __init__(self, k: int, bits: tuple[int, ...]) -> None:
        super().__init__(index(k), tuple(map(index, bits)))
        if self.k < 2:
            raise SequenceError(f"uniformity must be at least 2, got {self.k}")
        if any(b not in (0, 1) for b in self.bits):
            raise SequenceError("creation sequence entries must be 0 or 1")
        if len(self.bits) < self.k - 1:
            raise SequenceError(
                f"need at least {count_text(self.k - 1)} entries for uniformity "
                f"{count_text(self.k)}, got {len(self.bits)}"
            )
        if any(self.bits[: self.k - 1]):
            raise SequenceError(
                f"the first {self.k - 1} entries must be 0 for uniformity {self.k}"
            )

    @property
    def n(self) -> int:
        return len(self.bits)


class ShortSequence(FrozenRecord):
    """Run-length form of a creation sequence.

    `first_run_has_ones` distinguishes the two block layouts: False means
    runs alternate zeros, ones, zeros, ... starting with a zero run; True
    means the first run is the merged one (k-1 zeros followed by ones) and
    the alternation continues with a zero run.

    Construction refuses runs that no bit sequence has: a first run short
    of position k (of position k-1 for a lone zero run).
    """

    _fields = ("k", "runs", "first_run_has_ones")

    def __init__(
        self, k: int, runs: tuple[int, ...], first_run_has_ones: bool = False
    ) -> None:
        super().__init__(index(k), tuple(map(index, runs)), first_run_has_ones)
        if self.k < 2:
            raise SequenceError(f"uniformity must be at least 2, got {self.k}")
        if not self.runs:
            raise SequenceError("a short sequence needs at least one run")
        if any(a < 1 for a in self.runs):
            raise SequenceError("run lengths must be positive")
        k, first = self.k, self.runs[0]
        if self.first_run_has_ones:
            if first < k:
                raise SequenceError(
                    f"first run {count_text(first)} cannot hold "
                    f"{count_text(k - 1)} zeros plus a one"
                )
            return
        floor = k - 1 if self.r == 1 else k
        if first < floor:
            raise SequenceError(
                f"first zero run {count_text(first)} must reach position "
                f"{count_text(floor)} for uniformity {count_text(k)}"
            )

    @property
    def r(self) -> int:
        return len(self.runs)

    @property
    def n(self) -> int:
        return sum(self.runs)

    def blocks(self) -> Iterator[tuple[int, bool]]:
        """(size, is_ones) of every block in order; is_ones is True when the
        block ends with pseudodominant vertices.  The merged first run
        counts as a ones block: its tail is ones even though it starts with
        the forced zeros."""
        ones = self.first_run_has_ones
        for size in self.runs:
            yield size, ones
            ones = not ones

    @property
    def connected(self) -> bool:
        """True when the last block is a ones block: the kinds alternate,
        so it has the first block's kind exactly when r is odd."""
        return self.first_run_has_ones == (self.r % 2 == 1)

    @property
    def last_one(self) -> int:
        """Position of the last vertex with bit 1, 0 when none has it: the
        last block ends on bit 1, or the block before it does.  No edge
        holds a vertex past it."""
        return self.n if self.connected else self.n - self.runs[-1]


def to_short(s: BinarySequence) -> ShortSequence:
    """Run-length encode a bit sequence, merging the head when bit k is 1."""
    runs = [len(list(g)) for _, g in groupby(s.bits)]
    merged = s.n >= s.k and s.bits[s.k - 1] == 1
    if merged:
        runs[0:2] = [runs[0] + runs[1]]
    return ShortSequence(s.k, tuple(runs), merged)


def to_binary(ss: ShortSequence) -> BinarySequence:
    """Expand runs back to bits; the unique preimage of `to_short`.
    `check_bit_text` refuses first a bit form over its cap."""
    check_bit_text(ss.n)
    bits = []
    for size, ones in ss.blocks():
        bits += [int(ones)] * size
    bits[: ss.k - 1] = [0] * (ss.k - 1)  # the merged head's forced zeros
    return BinarySequence(ss.k, tuple(bits))


_BIT_RE = re.compile(r"^\s*k\s*=\s*(\d+)\s*;\s*([01](?:\s*,\s*[01])*)\s*$")
_RUN_RE = re.compile(r"^\s*C\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)\s*_\s*(\d+)\s*$")


def parse_binary(text: str) -> BinarySequence:
    """Read the bit form ``k=K;b1,...,bn``."""
    m = _BIT_RE.match(text)
    if not m:
        raise SequenceError(f"not a bit-form sequence: {text!r}")
    k = read_decimal(m.group(1))
    bits = tuple(int(b) for b in m.group(2).replace(" ", "").split(","))
    return BinarySequence(k, bits)


def parse_short(text: str) -> ShortSequence:
    """Read the short form ``C(a1,...,ar)_K``.

    The head kind is inferred from the run-count parity (even run count
    means bit k is 0), i.e. the text denotes a connected hypergraph.
    """
    m = _RUN_RE.match(text)
    if not m:
        raise SequenceError(f"not a short-form sequence: {text!r}")
    runs = tuple(read_decimal(a) for a in m.group(1).replace(" ", "").split(","))
    k = read_decimal(m.group(2))
    return ShortSequence(k, runs, first_run_has_ones=len(runs) % 2 == 1)


def parse_sequence(text: str) -> BinarySequence:
    """Read either encoding, returning the bit form."""
    stripped = text.strip()
    if stripped.startswith("C"):
        return to_binary(parse_short(stripped))
    if stripped.startswith("k"):
        return parse_binary(stripped)
    raise SequenceError(
        f"expected 'k=K;b1,...' or 'C(a1,...)_K', got {text!r}"
    )


def parse_runs(text: str) -> ShortSequence:
    """Read either encoding, returning the run-length form.

    Short-form text is never expanded to bits, so the cost grows with the
    number of runs, not of vertices.
    """
    stripped = text.strip()
    if stripped.startswith("C"):
        return parse_short(stripped)
    return to_short(parse_sequence(stripped))


def format_bits(ss: ShortSequence) -> str:
    """The bit form ``k=K;b1,...,bn``: `head_text` and a `block_text` for
    each later block, refused first by `check_bit_text`; no bit list."""
    check_bit_text(ss.n)
    blocks = ss.blocks()
    head = head_text(ss.k, *next(blocks))
    return "".join([head, *(block_text(size, ones) for size, ones in blocks)])


def block_text(size: int, ones: bool) -> str:
    """A block after the first: a comma before each of its bits."""
    return (",1" if ones else ",0") * size


def head_text(k: int, first: int, ones: bool) -> str:
    """``k=K;`` and the first block's bits; a merged head turns to ones at bit k."""
    zeros = k - 1 if ones else first
    return f"k={k};0" + ",0" * (zeros - 1) + ",1" * (first - zeros)


def format_short(ss: ShortSequence) -> str:
    return f"C({','.join(str(a) for a in ss.runs)})_{ss.k}"


def complement_sequence(ss: ShortSequence) -> ShortSequence:
    """Flip every entry from position k on: the same runs with the other
    head layout, since the k-1 forced zeros join the first run either way.
    At n = k-1 nothing flips, so the sequence is its own complement.

    The result's edges are exactly the k-subsets that are not edges of the
    original: any k-subset peaks at position >= k, where the bit flipped.
    """
    if ss.n == ss.k - 1:
        return ss
    return ShortSequence(ss.k, ss.runs, not ss.first_run_has_ones)


def iter_valid_sequences(
    n: int, k: int, connected_only: bool = False
) -> Iterator[BinarySequence]:
    """The bit forms of `iter_short_sequences(n, k)`, in its lexicographic
    bit order, keeping only the connected ones (ending in 1) when
    `connected_only`."""
    return map(
        to_binary,
        (s for s in iter_short_sequences(n, k) if s.connected or not connected_only),
    )


def iter_short_sequences(n: int, k: int) -> Iterator[ShortSequence]:
    """All creation sequences with the given size, in lexicographic bit
    order, built from the run shapes with no bit list.  A caller that wants
    the connected ones filters on `ShortSequence.connected`."""
    if k < 2 or n < k - 1:
        return
    if n == k - 1:
        yield ShortSequence(k, (n,))
        return
    # the k - 1 forced zeros join the first run; a tail that starts with 1
    # makes it the merged head
    for bit in (0, 1):
        for runs in _tail_runs(n - k + 1, bit):
            yield ShortSequence(k, (k - 1 + runs[0], *runs[1:]), bool(bit))


def _tail_runs(m: int, bit: int) -> Iterator[tuple[int, ...]]:
    """Run lengths of every m-bit string that starts with `bit`, in
    lexicographic order: a longer first run of zeros comes first, a longer
    first run of ones last."""
    for size in range(1, m + 1) if bit else range(m, 0, -1):
        if size < m:
            for rest in _tail_runs(m - size, 1 - bit):
                yield (size, *rest)
        else:
            yield (m,)


def _exponents(n_max: int, k_values: Iterable[int], connected_only: bool) -> list[int]:
    """One e per distinct k that has a size up to `n_max`, largest first:
    the k's sizes hold 2**e - 1 sequences."""
    shift = 1 if connected_only else 2
    ks = {k for k in k_values if 2 <= k <= n_max + 1}
    return sorted((n_max - k + shift for k in ks), reverse=True)


def count_valid_sequences(
    n_max: int, k_values: Iterable[int], connected_only: bool = False
) -> int:
    """Size of the sweep space, in closed form.

    For each k the sizes n = k-1..n_max hold 1 + 2 + ... + 2**(n_max-k+1)
    = 2**(n_max-k+2) - 1 sequences, of which the connected ones, 2**(n-k)
    for each n >= k, number 2**(n_max-k+1) - 1.  A count over
    `COUNT_BIT_CAP` bits is refused (`check_count_bits`) before it is built.
    """
    es = _exponents(n_max, k_values, connected_only)
    check_count_bits(_count_bits(es))
    return sum((1 << e) - 1 for e in es)


def _count_bits(es: list[int]) -> int:
    """Bit length of the sum of 2**e - 1 over the distinct exponents `es`,
    largest first: the bits of the largest e, one more when another term
    is nonzero."""
    return es[0] + (len(es) > 1 and es[1] > 0) if es else 0


def sweep_space(
    n_max: int,
    k_values: Iterable[int],
    what: str,
    connected_only: bool,
) -> list[tuple[int, int]]:
    """The (k, n) sizes of a walk over every valid sequence with at most
    `n_max` vertices, or every connected one: k ascending, then n from k-1
    up.  The walk lists each size's sequences itself, `connected_only`
    ones when asked.

    `check_sweep` refuses the space up front, saying that `what` would
    visit it.  A count of more than 4 * 4,300 bits is not built, so the
    refusal is immediate at any `n_max`.
    """
    k_set = sorted({k for k in k_values if k >= 2})
    bits = _count_bits(_exponents(n_max, k_set, connected_only))
    total = None
    if bits <= 4 * TEXT_DIGITS:
        total = count_valid_sequences(n_max, k_set, connected_only)
    check_sweep(what, bits, total)
    return [(k, n) for k in k_set for n in range(k - 1, n_max + 1)]
