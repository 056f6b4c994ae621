"""Concrete online rules: the split-tree rule, greedy, and the guarded
composition that bolts one extra server onto an existing rule.

The split-tree rule ("ptcp") recursively partitions the servers at a
maximum adjacent gap; each internal block has a critical point inside
its gap.  Each gap splits exactly one block, so ``gap_table`` holds the
tree as one critical point and one reach per gap.  ptcp and greedy pick
one of the two free servers around a request (``surrounding_rule``),
switching from left to right at the critical point of the block that
separates them, or at their midpoint.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .core import ServerLayout, ValidationError, fraction_str
from .engine import PicksFn, PriorityRule, surrounding_servers


def split_blocks(ints: Sequence[int]) -> Iterator[tuple[int, int, int | None]]:
    """Yield (lo, hi, a) for every block of the split tree over the sorted,
    distinct points ``ints``, in preorder.

    Block (lo, hi) covers points lo..hi; the first covers all of them.  An
    internal block splits after point a (lo <= a < hi) at its leftmost
    maximum adjacent gap ints[a+1] - ints[a], and its children (lo, a) and
    (a + 1, hi) follow it, left first.  A leaf (lo == hi) yields a = None.

    The splits form the max-Cartesian tree of the gaps (Vuillemin 1980),
    built in one stack pass: a gap pops the strictly smaller gaps before
    it and takes the last popped as its left child, so an equal earlier
    gap stays its ancestor and each block's root is its leftmost maximum.
    Block (lo, a) splits at a's left child and (a + 1, hi) at its right
    child, None when the block is one point.  The preorder walk uses an
    explicit stack, so the depth of the tree (up to k - 1) is not bounded
    by the recursion limit; O(k) in all.
    """
    gaps = [b - a for a, b in zip(ints, ints[1:])]
    left: list[int | None] = [None] * len(gaps)
    right: list[int | None] = [None] * len(gaps)
    stack: list[int] = []
    for i, g in enumerate(gaps):
        last = None
        while stack and gaps[stack[-1]] < g:
            last = stack.pop()
        left[i] = last
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    todo = [(0, len(ints) - 1, stack[0] if stack else None)]
    while todo:
        lo, hi, a = todo.pop()
        yield lo, hi, a
        if a is not None:
            todo += ((a + 1, hi, right[a]), (lo, a, left[a]))


def gap_table(layout: ServerLayout) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(critical, reach), indexed by gap a between servers a and a + 1,
    which splits exactly one internal block (lo, hi) of ``split_blocks``
    on ``layout.scaled``.  With D = s[a+1] - s[a], Delta1 = s[a] - s[lo]
    and Delta2 = s[hi] - s[a+1], critical[a] is the block's critical point

        s[a] + x,  x = D * (Delta2 + D) / ((Delta1 + D) + (Delta2 + D)),

    as ints over the layout's scale reduced to a (num, den) pair; D > 0,
    so 0 < x < D.  reach[a] is hi: a gap pops only strictly smaller gaps,
    so gap hi is the first gap right of a strictly larger than gap a, and
    hi = k - 1 when there is none.
    """
    ints, scale = layout.scaled
    critical: list = [None] * (len(ints) - 1)  # every gap is set below
    reach = critical.copy()
    for lo, hi, a in split_blocks(ints):
        if a is None:
            continue
        d = ints[a + 1] - ints[a]
        delta1 = ints[a] - ints[lo]
        delta2 = ints[hi] - ints[a + 1]
        den = (delta1 + d) + (delta2 + d)
        num, den = ints[a] * den + d * (delta2 + d), den * scale
        g = gcd(num, den)
        critical[a], reach[a] = (num // g, den // g), hi
    return tuple(critical), tuple(reach)


def surrounding_rule(
    rule_id: str, layout: ServerLayout, threshold: Callable[[int, int], tuple[int, int]]
) -> PriorityRule:
    """A rule that picks one of the two ``surrounding_servers`` of a request.

    A request on a free server, or with free servers on one side only,
    gets the one server ``surrounding_servers`` leaves it.  Between free
    servers left < right, it goes left iff r <= threshold(left, right), a
    (num, den) pair, den > 0, strictly between the two positions: one
    integer cross product, a tie going left.

    The batch sorts the points once, as ints over the lcm of their
    denominators.  A call walks the free tuple once: each adjacent free
    pair gives the points up to its threshold to its left server, one
    ``bisect_right`` from the previous cut (thresholds increase along the
    tuple), and the rest go to the last free server: f - 1 thresholds and
    bisections for f free servers plus O(m) for m points.  A call raises
    ValidationError for an empty free set.
    """

    def decide(r: Fraction, free: tuple[int, ...]) -> int:
        left, right = surrounding_servers(r, free, layout)
        if left is None or right is None or left == right:
            return right if left is None else left
        num, den = threshold(left, right)
        return left if r.numerator * den <= num * r.denominator else right

    def batch(points: Sequence[Fraction]) -> PicksFn:
        n = len(points)
        order = sorted(range(n), key=points.__getitem__)
        rank = None if order == list(range(n)) else sorted(range(n), key=order.__getitem__)
        scale = lcm(*(p.denominator for p in points))
        xs = [points[i].numerator * (scale // points[i].denominator) for i in order]

        def picks(free: tuple[int, ...]) -> list[int]:
            if not free:
                raise ValidationError("surrounding servers undefined for an empty free set")
            out: list[int] = []
            c0 = 0
            for left, right in zip(free, free[1:]):
                num, den = threshold(left, right)
                c = bisect_right(xs, num * scale // den, c0)  # x/scale <= num/den iff x <= this floor
                out += [left] * (c - c0)
                c0 = c
            out += [free[-1]] * (n - c0)
            return out if rank is None else [out[t] for t in rank]

        return picks

    return PriorityRule(id=rule_id, decide=decide, batch=batch)


def ptcp_rule(layout: ServerLayout) -> PriorityRule:
    """The split-tree rule: a ``surrounding_rule`` whose threshold for free
    servers left < right is the critical point of the block that separates
    them, the smallest block holding both.  It holds every gap between
    them and splits at its leftmost maximum gap, the leftmost maximum of
    [left, right).  From a = left, the threshold steps to reach[a] of
    ``gap_table``, the next strictly larger gap, while it lies before
    right: it visits the strict running maxima of the gaps from left and
    stops at that split.  O(1) for adjacent or evenly spaced servers, one
    step per gap (O(k)) when the gaps strictly increase.

    This equals the paper's descent: at each block, go left iff r <= its
    critical point and the left child has a free server, or the right
    child has none.  A critical point lies strictly inside its split gap.
    Take r strictly between left and right, with none free in between:

    - the descent reaches the separating block: above it both servers lie
      in one child, which so holds a free server, on r's side of the
      critical point;
    - there both children hold a free server, so it goes left iff r is at
      or left of the critical point;
    - it then ends at left (or right): in each block below that holds
      that server, the server lies on r's side of the critical point, or
      the other child lies between left and right and has no free server.

    The same argument ends the descent on the free server at r, or on the
    nearest one when every free server lies on one side of r.
    """
    critical, reach = gap_table(layout)

    def threshold(left: int, right: int) -> tuple[int, int]:
        a = left
        while reach[a] < right:
            a = reach[a]
        return critical[a]

    return surrounding_rule("ptcp", layout, threshold)


def greedy_rule(layout: ServerLayout) -> PriorityRule:
    """Nearest free server: a ``surrounding_rule`` whose threshold is the
    midpoint (S_L + S_R) / (2 * scale) on ``layout.scaled``.  Positions are
    distinct, so a distance tie is between one server on each side."""
    ints, scale = layout.scaled
    return surrounding_rule("greedy", layout, lambda left, right: (ints[left] + ints[right], 2 * scale))


def guard_rule(
    base: PriorityRule,
    layout: ServerLayout,
    d: Fraction,
    x: Fraction,
) -> tuple[PriorityRule, ServerLayout]:
    """Extend a rule over S with one extra server at distance d past s_k.

    Returns the composed rule together with the extended layout
    S + {s_k + d}.  Requests at or left of the threshold s_k + x go to the
    base rule while any server of S is free, else to the new server;
    requests right of the threshold go to the new server while it is
    free, else to the base rule.  Requires 0 < x < d.
    """
    if not (0 < x < d):
        raise ValidationError(f"guard offset must satisfy 0 < x < d, got x={x}, d={d}")
    k = layout.k
    s_k = layout.positions[-1]
    extended = ServerLayout(layout.positions + (s_k + d,))
    threshold = s_k + x

    def decide(r: Fraction, free: tuple[int, ...]) -> int:
        base_free = free[:bisect_left(free, k)]
        if r <= threshold:
            if base_free:
                return base.decide(r, base_free)
            return k
        if free and free[-1] == k:
            return k
        return base.decide(r, base_free)

    return PriorityRule(id=f"{base.id}+guard", decide=decide), extended


RULE_BUILDERS = {
    "ptcp": ptcp_rule,
    "greedy": greedy_rule,
}


def tree_to_dict(layout: ServerLayout) -> dict:
    """JSON-friendly dump of the split tree for inspection: nested dicts,
    built bottom-up from ``split_blocks`` in reverse preorder, where a
    block's left child is the last block finished and its right child the
    one before.  D, Delta1, Delta2 and x are those of ``gap_table``."""
    s = layout.positions
    done: list[dict] = []
    for lo, hi, a in reversed(list(split_blocks(layout.scaled[0]))):
        if a is None:
            done.append({"server": lo, "position": fraction_str(s[lo])})
            continue
        d, delta1, delta2 = s[a + 1] - s[a], s[a] - s[lo], s[hi] - s[a + 1]
        x = d * (delta2 + d) / ((delta1 + d) + (delta2 + d))
        left, right = done.pop(), done.pop()
        done.append({
            "lo": lo,
            "hi": hi,
            "split_after": a,
            "gap": fraction_str(d),
            "delta1": fraction_str(delta1),
            "delta2": fraction_str(delta2),
            "x": fraction_str(x),
            "critical": fraction_str(s[a] + x),
            "left": left,
            "right": right,
        })
    return done.pop()
