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
"""

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, groupby, product
from typing import Iterable, Iterator

from .errors import SequenceError

__all__ = [
    "BinarySequence",
    "ShortSequence",
    "to_short",
    "to_binary",
    "parse_binary",
    "parse_short",
    "parse_sequence",
    "parse_runs",
    "format_binary",
    "format_short",
    "complement_sequence",
    "delete_vertex",
    "iter_valid_sequences",
    "count_valid_sequences",
]


@dataclass(frozen=True)
class BinarySequence:
    """Bit form of a creation sequence.

    Degenerate case: n = k-1 is allowed (necessarily all zeros, no edges)
    so that vertex deletion stays closed on single-edge hypergraphs.
    """

    k: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if self.k < 2:
            raise SequenceError(f"uniformity must be at least 2, got {self.k}")
        if any(b not in (0, 1) for b in self.bits):
            raise SequenceError("creation sequence entries must be 0 or 1")
        if len(self.bits) < self.k - 1:
            raise SequenceError(
                f"need at least {self.k - 1} entries for uniformity {self.k}, "
                f"got {len(self.bits)}"
            )
        if any(self.bits[: self.k - 1]):
            raise SequenceError(
                f"the first {self.k - 1} entries must be 0 for uniformity {self.k}"
            )

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def connected(self) -> bool:
        """True when the last vertex closes edges, tying everything together."""
        return bool(self.bits) and self.bits[-1] == 1


@dataclass(frozen=True)
class ShortSequence:
    """Run-length form of a creation sequence.

    `first_run_has_ones` distinguishes the two block layouts: False means
    runs alternate zeros, ones, zeros, ... starting with a zero run; True
    means the first run is the merged one (k-1 zeros followed by ones) and
    the alternation continues with a zero run.

    Construction refuses runs that no bit sequence has: a first run short
    of position k (of position k-1 for a lone zero run).
    """

    k: int
    runs: tuple[int, ...]
    first_run_has_ones: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(int(a) for a in self.runs))
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
                    f"first run {first} cannot hold {k - 1} zeros plus a one"
                )
            return
        floor = k - 1 if self.r == 1 else k
        if first < floor:
            raise SequenceError(
                f"first zero run {first} must reach position {floor} "
                f"for uniformity {k}"
            )

    @property
    def r(self) -> int:
        return len(self.runs)

    @property
    def n(self) -> int:
        return sum(self.runs)

    def prefix_sum(self, t: int) -> int:
        """Number of vertices in blocks 1..t (t = 0 gives 0)."""
        if not 0 <= t <= self.r:
            raise SequenceError(f"block index {t} out of range 0..{self.r}")
        return sum(self.runs[:t])

    def block_is_ones(self, t: int) -> bool:
        """True when block t ends with pseudodominant vertices.

        The merged first run counts as a ones block: its tail is ones even
        though it starts with the forced zeros.
        """
        if not 1 <= t <= self.r:
            raise SequenceError(f"block index {t} out of range 1..{self.r}")
        if self.first_run_has_ones:
            return t % 2 == 1
        return t % 2 == 0

    def block_of(self, i: int) -> int:
        """Index of the block containing vertex i."""
        if not 1 <= i <= self.n:
            raise SequenceError(f"vertex {i} out of range 1..{self.n}")
        cuts = list(accumulate(self.runs))
        return bisect_left(cuts, i) + 1

    @property
    def connected(self) -> bool:
        return self.block_is_ones(self.r)


def to_short(s: BinarySequence) -> ShortSequence:
    """Run-length encode a bit sequence, merging the head when bit k is 1."""
    runs = [len(list(g)) for _, g in groupby(s.bits)]
    merged = s.n >= s.k and s.bits[s.k - 1] == 1
    if merged:
        runs[0:2] = [runs[0] + runs[1]]
    return ShortSequence(s.k, tuple(runs), merged)


def to_binary(ss: ShortSequence) -> BinarySequence:
    """Expand runs back to bits; the unique preimage of `to_short`."""
    bits = []
    for t, length in enumerate(ss.runs, start=1):
        bits += [int(ss.block_is_ones(t))] * length
    bits[: ss.k - 1] = [0] * (ss.k - 1)  # the merged head's forced zeros
    return BinarySequence(ss.k, tuple(bits))


_BIT_RE = re.compile(r"^\s*k\s*=\s*(\d+)\s*;\s*([01](?:\s*,\s*[01])*)\s*$")
_RUN_RE = re.compile(r"^\s*C\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)\s*_\s*(\d+)\s*$")


def parse_binary(text: str) -> BinarySequence:
    """Read the bit form ``k=K;b1,...,bn``."""
    m = _BIT_RE.match(text)
    if not m:
        raise SequenceError(f"not a bit-form sequence: {text!r}")
    k = int(m.group(1))
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
    runs = tuple(int(a) for a in m.group(1).replace(" ", "").split(","))
    k = int(m.group(2))
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


def format_binary(s: BinarySequence) -> str:
    return f"k={s.k};" + ",".join(str(b) for b in s.bits)


def format_short(ss: ShortSequence) -> str:
    return f"C({','.join(str(a) for a in ss.runs)})_{ss.k}"


def complement_sequence(s: BinarySequence) -> BinarySequence:
    """Flip every entry from position k on.

    The result's edges are exactly the k-subsets that are not edges of the
    original: any k-subset peaks at position >= k, where the bit flipped.
    """
    head = s.bits[: s.k - 1]
    return BinarySequence(s.k, head + tuple(1 - b for b in s.bits[s.k - 1 :]))


def delete_vertex(s: BinarySequence, i: int) -> BinarySequence:
    """Creation sequence of the subhypergraph induced on the other vertices.

    Removing a forced-prefix zero while bit k is 1 also demotes that one to
    a zero: in the smaller hypergraph the old vertex k sits at position k-1
    and no longer has enough predecessors to close an edge.
    """
    if not 1 <= i <= s.n:
        raise SequenceError(f"vertex {i} out of range 1..{s.n}")
    if s.n - 1 < s.k - 1:
        raise SequenceError(
            f"cannot delete from a sequence with {s.n} entries at uniformity {s.k}"
        )
    bits = list(s.bits)
    removed = bits.pop(i - 1)
    if removed == 0 and i <= s.k - 1 and s.n >= s.k and s.bits[s.k - 1] == 1:
        bits[s.k - 2] = 0
    return BinarySequence(s.k, tuple(bits))


def iter_valid_sequences(
    n: int, k: int, connected_only: bool = False
) -> Iterator[BinarySequence]:
    """All creation sequences with the given size, in lexicographic bit order."""
    if k < 2 or n < k - 1:
        return
    if n == k - 1:
        if not connected_only:
            yield BinarySequence(k, (0,) * n)
        return
    head = (0,) * (k - 1)
    for tail in product((0, 1), repeat=n - k + 1):
        if connected_only and tail[-1] != 1:
            continue
        yield BinarySequence(k, head + tail)


def count_valid_sequences(
    n_max: int, k_values: Iterable[int], connected_only: bool = False
) -> int:
    """Size of the sweep space, computed without enumerating it."""
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
