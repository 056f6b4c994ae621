"""Concrete online rules: the split-tree rule, greedy, and the guarded
composition that bolts one extra server onto an existing rule.

The split-tree rule ("ptcp") recursively partitions the servers at a
maximum adjacent gap; each internal block has a critical point inside
its gap.  Each gap splits exactly one block, so ``split_blocks`` holds
the tree as one block (lo, hi) per gap, and ``gap_table`` as one
critical point and one reach per gap.  ptcp and greedy pick
one of the two free servers around a request (``surrounding_rule``),
switching from left to right at the critical point of the block that
separates them, or at their midpoint.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .core import ServerLayout, ValidationError, fraction_str
from .engine import PicksFn, PriorityRule, surrounding_servers


def split_blocks(ints: Sequence[int]) -> tuple[list[int], list[int]]:
    """(lo, hi), indexed by gap a between points a and a + 1 of the sorted,
    distinct points ``ints``: the block of the split tree that splits at
    gap a covers points lo[a]..hi[a].

    The tree splits the block of all points, and then each block of two
    or more points, at its leftmost maximum adjacent gap
    ints[a+1] - ints[a], so each gap splits exactly one block.  That block
    runs from just past the nearest gap left of a at least as large (point
    0 when there is none) to the nearest gap right of a strictly larger
    (point k - 1 when there is none).  Both are read off one stack pass,
    which builds the max-Cartesian tree of the gaps (Vuillemin 1980): a gap
    i pops the strictly smaller gaps before it, whose blocks so end at
    point i, and its own block starts one past the gap it leaves on top
    of the stack.  O(k), whatever the depth of the tree.
    """
    gaps = [b - a for a, b in zip(ints, ints[1:])]
    lo, hi = [0] * len(gaps), [len(gaps)] * len(gaps)
    stack: list[int] = []
    for i, g in enumerate(gaps):
        while stack and gaps[stack[-1]] < g:
            hi[stack.pop()] = i
        if stack:
            lo[i] = stack[-1] + 1
        stack.append(i)
    return lo, hi


def gap_table(layout: ServerLayout) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(critical, reach), indexed by gap a between servers a and a + 1,
    which splits the block lo[a]..hi[a] of ``split_blocks`` on
    ``layout.scaled``.  With D = s[a+1] - s[a], Delta1 = s[a] - s[lo[a]]
    and Delta2 = s[hi[a]] - s[a+1], critical[a] is the block's critical
    point

        s[a] + x,  x = D * (Delta2 + D) / ((Delta1 + D) + (Delta2 + D)),

    as ints over the layout's scale reduced to a (num, den) pair; D > 0,
    so 0 < x < D.  reach[a] is hi[a]: gap hi[a] is the first gap right of
    a strictly larger than gap a, and hi[a] = k - 1 when there is none.
    """
    ints, scale = layout.scaled
    lo, hi = split_blocks(ints)
    critical = []
    for a in range(len(hi)):
        d = ints[a + 1] - ints[a]
        delta1 = ints[a] - ints[lo[a]]
        delta2 = ints[hi[a]] - ints[a + 1]
        den = (delta1 + d) + (delta2 + d)
        num, den = ints[a] * den + d * (delta2 + d), den * scale
        g = gcd(num, den)
        critical.append((num // g, den // g))
    return tuple(critical), tuple(hi)


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
    one per block of ``split_blocks``, built smallest block first so that
    both children of a block, (lo, a) and (a + 1, hi), are built before it.
    D, Delta1, Delta2 and x are those of ``gap_table``."""
    s = layout.positions
    lo, hi = split_blocks(layout.scaled[0])
    node = {(j, j): {"server": j, "position": fraction_str(p)} for j, p in enumerate(s)}
    for a in sorted(range(len(hi)), key=lambda a: hi[a] - lo[a]):
        d, delta1, delta2 = s[a + 1] - s[a], s[a] - s[lo[a]], s[hi[a]] - s[a + 1]
        x = d * (delta2 + d) / ((delta1 + d) + (delta2 + d))
        left, right = node[lo[a], a], node[a + 1, hi[a]]
        node[lo[a], hi[a]] = {
            "lo": lo[a],
            "hi": hi[a],
            "split_after": a,
            "gap": fraction_str(d),
            "delta1": fraction_str(delta1),
            "delta2": fraction_str(delta2),
            "x": fraction_str(x),
            "critical": fraction_str(s[a] + x),
            "left": left,
            "right": right,
        }
    return node[0, len(s) - 1]
