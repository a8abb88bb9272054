"""The quotient-gap report: the smallest gap between quotient eigenvalues
of every connected sequence up to a size bound.

`scan_quotient_simplicity` walks a tree of suffixes, as `verify`'s walk
visits every small sequence once.  It folds the closed route's three steps
(`gamma_step`, `pair_sums` and `spectrum._Pencil.push`) and the bit text
(`block_text`) from the last block up, so that the sequences ending in
the same blocks share that work, and builds no sequence record.
"""

import math
from collections.abc import Iterable
from operator import sub

from .combinatorics import as_float, check_bit_text
from .hypergraph import check_pair_total, gamma_step, pair_sums
from .records import FrozenRecord
from .sequences import block_text, head_text, sweep_space
from .spectrum import MERGE_TOL, _Pencil

__all__ = ["ScanRow", "scan_quotient_simplicity"]


class ScanRow(FrozenRecord):
    _fields = ("sequence", "n", "k", "r", "min_quotient_gap", "flagged")


def scan_quotient_simplicity(n_max: int, k_values: Iterable[int]) -> list[ScanRow]:
    """Minimum quotient eigenvalue gap for every connected sequence.

    A row is flagged when two quotient eigenvalues sit closer than the
    fixed `MERGE_TOL`, the distance within which the closed route reports
    values once, i.e. the quotient fails to separate them numerically.
    Single-block sequences report an infinite gap.  `sweep_space` gives
    the order of the sizes and refuses a space over `SEQUENCE_BUDGET`
    before the first row; within a size the rows are in lexicographic bit
    order, which is the order of their bit text.

    Each size's sequences are the leaves of a tree of suffixes
    (`_scan_size`).  Everything the closed route computes before the
    rational QL depends on n, k and a suffix of blocks alone, and so does
    the bit text after the first block: gamma, the exact sums, the pencil's
    count rows, the reduction, whose step s touches only blocks s..r-1, and
    the text are folded from the last block up.  A node folds its block once
    for every sequence that ends in its suffix, with the steps and pieces
    that `block_profile`, `_Pencil.of` and `format_bits` use on one sequence,
    so each sequence gets the same text, exact sums and IEEE operations in
    the same order as `quotient_eigenvalues(block_profile(ss))`, and its
    `check_pair_total`, which names a failure by the row's bit text.
    """
    out = []
    for k, n in sweep_space(n_max, k_values, "scan", True):
        out += _scan_size(k, n)
    return out


def _scan_size(k: int, n: int) -> list[ScanRow]:
    """The `ScanRow` of every connected sequence of size (k, n), sorted by
    bit text.  A node is a suffix of blocks that leaves positions 1..end in
    front of it; the last block is a ones block and the kinds alternate.
    A child puts one more block in front that leaves at least k positions,
    or takes all of 1..end as the first block, which closes a sequence.
    Each child but that first block gets a copy of the node's state.

    The text is folded too, so a size is checked once, before the first
    step: past 2**53 (its one-block run), then over the text cap.
    """
    out = []

    def grow(end, ones, after, pairs, squares, edges, pencil, text):
        # the suffix after position `end`; front_* puts one more block in front
        for size in (*range(1, end - k + 1), end):
            g, front_after, front_edges = gamma_step(
                k, end, size, ones, after, edges
            )
            front_pairs, front_squares = pair_sums(pairs, squares, g, size, end)
            front = pencil if size == end else pencil.fork()
            front.push(g, size)
            if size < end:
                grow(
                    end - size,
                    not ones,
                    front_after,
                    front_pairs,
                    front_squares,
                    front_edges,
                    front,
                    block_text(size, ones) + text,
                )
                continue
            sequence = head_text(k, size, ones) + text
            check_pair_total(k, front_pairs, front_edges, sequence)
            front.close(2 * front_squares)
            values = front.eigenvalues()
            gap = min(map(sub, values, values[1:]), default=math.inf)
            out.append(ScanRow(sequence, n, k, len(values), gap, gap < MERGE_TOL))

    if n >= k:
        as_float(n)
        check_bit_text(n)
        grow(n, True, 0, 0, 0, 0, _Pencil(), "")
    return sorted(out, key=lambda row: row.sequence)
