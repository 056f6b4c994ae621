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
from itertools import count

from .algorithms import split_blocks
from .core import ServerLayout, SizeGuardError

#: Largest k ``alpha_bruteforce`` accepts.  Its time and memory are O(2^k):
#: at k = 20 it takes about 0.15 s and 15 MB traced on a 2-core x86 VM.
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
    """span / max adjacent gap of a sorted point tuple, or of a layout on
    its scaled integers; 0 when size <= 1."""
    if isinstance(positions, ServerLayout):
        positions = positions.scaled[0]
    if len(positions) <= 1:
        return Fraction(0)
    max_gap = max(b - a for a, b in zip(positions, positions[1:]))
    if max_gap == 0:
        # All points coincide; span is 0 as well.
        return Fraction(0)
    return Fraction(positions[-1] - positions[0], max_gap)


def alpha_bruteforce(layout: ServerLayout) -> Metrics:
    """Exhaustive maximum of gap_ratio over all server subsets.

    Guarded to k <= ``BRUTEFORCE_MAX_K``; time and memory are O(2^k).  The
    subsets run in bitmask order, grouped by their top index j: each is
    {j} plus a subset S below j, S's mask r in increasing order.  On the
    layout's scaled integers (``layout.scaled``) its first point is S's
    lowest (one table shared by every j) and its largest gap is
    max(gap(S), s_j - last(S)), read from the largest gaps kept for the
    subsets of each smaller top index.  One comprehension per group
    keeps the subsets whose span / gap beats the best at the group's
    start by a cross product (the best only rises), and a pass over those
    hits with a strict > keeps the first maximizer in bitmask order, so
    the witness is deterministic.  No split-tree argument is used, so the
    oracle stays independent of ``alpha_fast``.
    """
    k = layout.k
    if k > BRUTEFORCE_MAX_K:
        raise SizeGuardError(f"subset enumeration guard: k={k} > {BRUTEFORCE_MAX_K}")
    xs, _ = layout.scaled
    # first[r] is the lowest point of mask r >= 1; first[0] = xs[-1] gives
    # the singleton {j} a span <= 0, which never beats the best.
    first = [xs[-1]]
    # by_top[h][r] is the largest gap of the subset with mask 2^h + r.
    by_top: list[list[int]] = []
    best_span, best_gap, best_mask = 0, 1, 1
    for j, xj in enumerate(xs):
        gaps = [0]
        for h, below in enumerate(by_top):
            d = xj - xs[h]
            gaps += [g if g > d else d for g in below]
        hits = [r for r, f, g in zip(count(), first, gaps) if (xj - f) * best_gap > best_span * g]
        for r in hits:
            span, gap = xj - first[r], gaps[r]
            if span * best_gap > best_span * gap:
                best_span, best_gap, best_mask = span, gap, 1 << j | r
        if j + 1 < k:
            by_top.append(gaps)
            first += [xj, *first[1:]]
    witness = tuple(j for j in range(k) if best_mask >> j & 1)
    return Metrics(alpha=Fraction(best_span, best_gap), witness=witness)


def alpha_fast(layout: ServerLayout) -> Metrics:
    """alpha as the largest span / D over the blocks lo[a]..hi[a] of
    ``split_blocks`` on ``layout.scaled``, D being gap a, the block's split.

    Some contiguous interval reaches alpha: filling a subset in keeps its
    span and cannot enlarge its largest gap.  A maximizing interval I is
    bounded on each side by a strictly larger gap or an end, since
    extending it across a gap that is not larger raises the span and keeps
    the largest gap.  So I is a block: the smallest block holding I splits
    inside I (else a child would hold I), at the block's largest gap, so
    it holds neither gap bounding I.  Ties go to the lexicographically
    smallest (lo, hi), the first maximizer of the O(k^2) interval scan the
    tests keep as the reference.  Cross products on ints, O(k) in all;
    alpha becomes a Fraction only at return.  One server: 0, witness (0,).
    """
    ints, _ = layout.scaled
    best_span, best_gap, best = 0, 1, (0, 0)
    for a, (lo, hi) in enumerate(zip(*split_blocks(ints))):
        span, gap = ints[hi] - ints[lo], ints[a + 1] - ints[a]
        cross = span * best_gap - best_span * gap
        if cross > 0 or (cross == 0 and (lo, hi) < best):
            best_span, best_gap, best = span, gap, (lo, hi)
    return Metrics(alpha=Fraction(best_span, best_gap), witness=tuple(range(best[0], best[1] + 1)))


def aspect_ratio(layout: ServerLayout) -> Fraction:
    """span / min adjacent gap, on the layout's scaled integers; reported
    for comparison only."""
    if layout.k <= 1:
        return Fraction(0)
    xs, _ = layout.scaled
    return Fraction(xs[-1] - xs[0], min(b - a for a, b in zip(xs, xs[1:])))
