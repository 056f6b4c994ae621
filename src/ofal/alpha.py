"""Layout stretch metrics: L over a server subset and its maximum alpha.

For a sorted subset T, L(T) is span(T) divided by the largest adjacent gap
inside T (0 when |T| <= 1).  alpha is the maximum of L over all subsets.
Two evaluators are provided: an exhaustive subset oracle and a fast
version that reads alpha off the blocks of the split tree; their agreement
is itself a tested property, not an assumption.  Both work on the layout's
scaled integers and compare span / gap pairs by cross products; alpha
becomes a Fraction only at return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algorithms import split_blocks
from .core import ServerLayout, SizeGuardError

BRUTEFORCE_MAX_K = 20


@dataclass(frozen=True)
class Metrics:
    """alpha of a layout together with a witness.

    ``witness`` holds the 0-based server indices of a subset achieving
    alpha (a contiguous interval when produced by the fast evaluator).
    """

    alpha: Fraction
    witness: tuple[int, ...]


def gap_ratio(positions: tuple[Fraction, ...] | ServerLayout) -> Fraction:
    """span / max adjacent gap of a sorted point tuple; 0 when size <= 1."""
    if isinstance(positions, ServerLayout):
        positions = positions.positions
    if len(positions) <= 1:
        return Fraction(0)
    max_gap = max(b - a for a, b in zip(positions, positions[1:]))
    if max_gap == 0:
        # All points coincide; span is 0 as well.
        return Fraction(0)
    return (positions[-1] - positions[0]) / max_gap


def alpha_bruteforce(layout: ServerLayout) -> Metrics:
    """Exhaustive maximum of gap_ratio over all server subsets.

    Guarded to k <= 20.  Every bitmask is walked on the layout's scaled
    integers (``layout.scaled``), tracking the subset's first and
    last point and its largest gap; the best span / gap pair is compared
    by cross products, so the first maximizer in bitmask order is
    reported and the witness is deterministic.
    """
    k = layout.k
    if k > BRUTEFORCE_MAX_K:
        raise SizeGuardError(f"subset enumeration guard: k={k} > {BRUTEFORCE_MAX_K}")
    xs, _ = layout.scaled
    at_bit = {1 << j: x for j, x in enumerate(xs)}
    best_span, best_gap, best_mask = 0, 1, 1
    for mask in range(1, 1 << k):
        rest = mask
        low = rest & -rest
        first = last = at_bit[low]
        rest ^= low
        gap = 0
        while rest:
            low = rest & -rest
            x = at_bit[low]
            if x - last > gap:
                gap = x - last
            last = x
            rest ^= low
        if (last - first) * best_gap > best_span * gap:
            best_span, best_gap, best_mask = last - first, gap, mask
    witness = tuple(j for j in range(k) if best_mask >> j & 1)
    return Metrics(alpha=Fraction(best_span, best_gap), witness=witness)


def alpha_fast(layout: ServerLayout) -> Metrics:
    """alpha as the largest span / D over the internal blocks of
    ``split_blocks`` on ``layout.scaled``, D being a block's split gap.

    Some contiguous interval reaches alpha: filling a subset in keeps its
    span and cannot enlarge its largest gap.  A maximizing interval I is
    bounded on each side by a strictly larger gap or an end, since
    extending it across a gap that is not larger raises the span and keeps
    the largest gap.  So I is a block: the smallest block holding I splits
    inside I (else a child would hold I), at the block's largest gap, so
    it holds neither gap bounding I.  Ties go to the lexicographically
    smallest (lo, hi), the first maximizer of the O(k^2) interval scan the
    tests keep as the reference.  Cross products on ints, O(k * depth);
    alpha becomes a Fraction only at return.  One server: 0, witness (0,).
    """
    ints, _ = layout.scaled
    best_span, best_gap, best = 0, 1, (0, 0)
    for lo, hi, a in split_blocks(ints):
        if a is None:
            continue
        span, gap = ints[hi] - ints[lo], ints[a + 1] - ints[a]
        cross = span * best_gap - best_span * gap
        if cross > 0 or (cross == 0 and (lo, hi) < best):
            best_span, best_gap, best = span, gap, (lo, hi)
    return Metrics(alpha=Fraction(best_span, best_gap), witness=tuple(range(best[0], best[1] + 1)))


def aspect_ratio(layout: ServerLayout) -> Fraction:
    """span / min adjacent gap; reported for comparison only."""
    if layout.k <= 1:
        return Fraction(0)
    return layout.span / min(layout.gaps())
