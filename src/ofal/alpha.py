"""Layout stretch metrics: L over a server subset and its maximum alpha.

For a sorted subset T, L(T) is span(T) divided by the largest adjacent gap
inside T (0 when |T| <= 1).  alpha is the maximum of L over all subsets.
Two evaluators are provided: an exhaustive subset oracle and a fast version
that only scans contiguous index intervals; their agreement is itself a
tested property, not an assumption.  Both work on the layout's scaled
integers and compare span / gap pairs by cross products; alpha becomes
a Fraction only at return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """alpha via contiguous index intervals only.

    Filling a subset in with every layout point between its extremes keeps
    the span and cannot enlarge the maximum gap, so contiguous intervals
    dominate and the interval scan reaches the same maximum as the subset
    oracle.  That domination is verified against alpha_bruteforce in the
    test suite rather than trusted.  O(k^2) interval evaluations on the
    layout's scaled integers (``layout.scaled``): the best span / gap
    pair is compared by strict cross products, so the lexicographically
    smallest maximizing (i, j) wins ties; alpha becomes a Fraction only at
    return.
    """
    xs, _ = layout.scaled
    k = len(xs)
    best_span, best_gap, best_i, best_j = 0, 1, 0, 0
    for i in range(k):
        x_i = xs[i]
        max_gap = 0
        for j in range(i + 1, k):
            gap = xs[j] - xs[j - 1]
            if gap > max_gap:
                max_gap = gap
            span = xs[j] - x_i
            if span * best_gap > best_span * max_gap:
                best_span, best_gap, best_i, best_j = span, max_gap, i, j
    return Metrics(alpha=Fraction(best_span, best_gap), witness=tuple(range(best_i, best_j + 1)))


def aspect_ratio(layout: ServerLayout) -> Fraction:
    """span / min adjacent gap; reported for comparison only."""
    if layout.k <= 1:
        return Fraction(0)
    return layout.span / min(layout.gaps())
