"""Concrete online rules: the split-tree rule, greedy, and the guarded
composition that bolts one extra server onto an existing rule.

The split-tree rule ("ptcp") recursively partitions the servers at a
maximum adjacent gap.  Each internal block has a critical point inside
its gap; a request left of (or exactly at) the critical point descends
into the left block whenever a free server remains there, otherwise into
the right block, and symmetrically.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import ServerLayout, ValidationError, fraction_str, scale_to_ints
from .engine import PicksFn, PriorityRule, surrounding_servers


@dataclass(frozen=True)
class SplitTree:
    """The split tree of a layout as one table of blocks in preorder.

    Block i covers the servers lo[i]..hi[i]; block 0 covers all of them.
    A leaf is a single server (lo == hi), and its ``split``, ``right`` and
    ``critical`` entries are None.  An internal block splits after server
    a = split[i] (lo <= a < hi) at the leftmost maximum adjacent gap of
    the block; its left child is block i + 1 and its right child is block
    right[i].  critical[i] is the block's critical point as a reduced
    (numerator, denominator) pair, the one stored form of it, which
    ``ptcp_decide`` compares with by cross products; ``split_geometry``
    gives the rest of the block's geometry.  A tree of k servers has
    2k - 1 blocks.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]
    split: tuple[int | None, ...]
    right: tuple[int | None, ...]
    critical: tuple[tuple[int, int] | None, ...]


def split_blocks(ints: Sequence[int]) -> Iterator[tuple[int, int, int | None]]:
    """Yield (lo, hi, a) for every block of the split tree over the sorted,
    distinct points ``ints``, in preorder.

    Block (lo, hi) covers points lo..hi; the first covers all of them.  An
    internal block splits after point a (lo <= a < hi) at its leftmost
    maximum adjacent gap ints[a+1] - ints[a], and its children (lo, a) and
    (a + 1, hi) follow it, left first.  A leaf (lo == hi) yields a = None.
    One pass with an explicit stack, so the depth of the tree (up to
    k - 1) is not bounded by the recursion limit; O(k * depth) in all.
    """
    gaps = [b - a for a, b in zip(ints, ints[1:])]
    stack = [(0, len(ints) - 1)]
    while stack:
        lo, hi = stack.pop()
        if lo == hi:
            yield lo, hi, None
            continue
        a = max(range(lo, hi), key=gaps.__getitem__)
        yield lo, hi, a
        stack += ((a + 1, hi), (lo, a))


def build_split_tree(layout: ServerLayout) -> SplitTree:
    """Build the split tree over all servers of a layout.

    The blocks of ``split_blocks`` on ``layout.scaled``, each internal one
    with D = s[a+1] - s[a], Delta1 = s[a] - s[lo], Delta2 = s[hi] - s[a+1]
    and the critical point

        s[a] + x,  x = D * (Delta2 + D) / ((Delta1 + D) + (Delta2 + D)),

    as ints over the layout's scale, reduced to lowest terms.  Positions
    are distinct, so D > 0 and 0 < x < D: the critical point lies
    strictly inside the gap.  The left subtree of a block over m servers
    has 2m - 1 blocks, so the right child follows it at i + 2m.
    """
    ints, scale = layout.scaled
    rows: list[tuple] = []  # (lo, hi, split, right, critical) per block
    for lo, hi, a in split_blocks(ints):
        if a is None:
            rows.append((lo, hi, None, None, None))
            continue
        d = ints[a + 1] - ints[a]
        delta1 = ints[a] - ints[lo]
        delta2 = ints[hi] - ints[a + 1]
        den = (delta1 + d) + (delta2 + d)
        num, den = ints[a] * den + d * (delta2 + d), den * scale
        g = gcd(num, den)
        rows.append((lo, hi, a, len(rows) + 2 * (a - lo + 1), (num // g, den // g)))
    return SplitTree(*map(tuple, zip(*rows)))


def split_geometry(
    tree: SplitTree, i: int, layout: ServerLayout
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """(D, Delta1, Delta2, x, critical point) of internal block i, as
    Fractions: D = s[a+1] - s[a] is the split gap, Delta1 = s[a] - s[lo]
    and Delta2 = s[hi] - s[a+1] the spans of the two children, and
    x = critical - s[a] the critical offset into the gap (see
    ``build_split_tree`` for its formula).  Raises ValidationError for a
    leaf, which has no split.
    """
    a = tree.split[i]
    if a is None:
        raise ValidationError(f"block {i} is a leaf and has no split")
    s = layout.positions
    critical = Fraction(*tree.critical[i])
    return s[a + 1] - s[a], s[a] - s[tree.lo[i]], s[tree.hi[i]] - s[a + 1], critical - s[a], critical


def ptcp_decide(tree: SplitTree, r: Fraction, free: tuple[int, ...]) -> int:
    """Descend the split tree to a free server for request r.

    At each internal block: go left iff (r <= critical point and the left
    block has a free server) or the right block has none.  The boundary
    r == critical point goes left.  Raises ValidationError for an empty
    free set.

    ``free`` is increasing, so each level narrows the slice of it that
    lies in the block with one bisection, and compares r with the block's
    critical point as an integer cross product.  A call costs
    O(depth * log f) for f free servers, with no copy or sort of ``free``
    and no Fraction arithmetic.
    """
    if not free:
        raise ValidationError("ptcp undefined for an empty free set")
    split, right, critical = tree.split, tree.right, tree.critical
    i0, i1 = 0, len(free)  # free[i0:i1] are the free servers in block i
    rn, rd = r.numerator, r.denominator
    i = 0
    while (a := split[i]) is not None:
        m = bisect_right(free, a, i0, i1)
        cn, cd = critical[i]
        if m == i1 or (m > i0 and rn * cd <= cn * rd):
            i, i1 = i + 1, m
        else:
            i, i0 = right[i], m
    return tree.lo[i]


def _position_order(points: Sequence[Fraction]) -> tuple[list[int], list[int] | None]:
    """(order, rank): the indices of ``points`` by position, ties in list
    order, and each point's place in that order, or None when the list
    is already in order."""
    order = sorted(range(len(points)), key=points.__getitem__)
    if order == list(range(len(order))):
        return order, None
    rank = [0] * len(order)
    for t, i in enumerate(order):
        rank[i] = t
    return order, rank


def ptcp_batch(tree: SplitTree, points: Sequence[Fraction]) -> PicksFn:
    """``ptcp_decide`` for every point of ``points`` against one free tuple
    per call (see ``PriorityRule.batch``).

    Once per list: sort the points by position, and give each internal
    block its cut, the number of sorted points at or left of its critical
    point (``bisect_right``, so the boundary goes left).  Per call: one
    descent of the tree that carries a range of sorted points with the
    block's slice of the free tuple, left child first.  A block with free
    servers on both sides splits the range at its cut (clamped to the
    range); a side with none sends the whole range to the other; an empty
    range stops.  A call costs one bisection per visited block plus O(m)
    for m points, and raises ValidationError for an empty free set.
    """
    split, right, lo_of = tree.split, tree.right, tree.lo
    order, rank = _position_order(points)
    ordered = [points[i] for i in order]
    cut = [None if c is None else bisect_right(ordered, Fraction(*c)) for c in tree.critical]
    n = len(ordered)

    def picks(free: tuple[int, ...]) -> list[int]:
        if not free:
            raise ValidationError("ptcp undefined for an empty free set")
        out: list[int] = []
        stack = [(0, 0, n, 0, len(free))]  # block, points [p0, p1), free[i0:i1]
        while stack:
            i, p0, p1, i0, i1 = stack.pop()
            a = split[i]
            if a is None:
                out += [lo_of[i]] * (p1 - p0)
                continue
            m = bisect_right(free, a, i0, i1)
            if m == i1:
                stack.append((i + 1, p0, p1, i0, m))
            elif m == i0:
                stack.append((right[i], p0, p1, m, i1))
            else:
                c = min(max(cut[i], p0), p1)
                if c < p1:
                    stack.append((right[i], c, p1, m, i1))
                if c > p0:
                    stack.append((i + 1, p0, c, i0, m))
        return out if rank is None else [out[t] for t in rank]

    return picks


def ptcp_rule(layout: ServerLayout) -> PriorityRule:
    tree = build_split_tree(layout)

    def decide(r: Fraction, free: tuple[int, ...]) -> int:
        return ptcp_decide(tree, r, free)

    def batch(points: Sequence[Fraction]) -> PicksFn:
        return ptcp_batch(tree, points)

    return PriorityRule(id="ptcp", decide=decide, batch=batch)


def greedy_decide(r: Fraction, free: tuple[int, ...], layout: ServerLayout) -> int:
    """Nearest free server: the nearer of the two ``surrounding_servers``.
    Positions are distinct, so an exact distance tie is between one server
    on each side; it breaks to the left.

    A call costs one ``surrounding_servers`` call, then, when r has a free
    server on each side and sits on none, one integer comparison on
    ``layout.scaled``: s_R - r < r - s_L iff (S_L + S_R) * rd < 2 * rn * scale
    for r = rn/rd.
    """
    left, right = surrounding_servers(r, free, layout)
    if right is None or left == right:
        return left
    ints, scale = layout.scaled
    if left is None or (ints[left] + ints[right]) * r.denominator < 2 * r.numerator * scale:
        return right
    return left


def greedy_batch(layout: ServerLayout, points: Sequence[Fraction]) -> PicksFn:
    """``greedy_decide`` for every point of ``points`` against one free
    tuple per call (see ``PriorityRule.batch``).

    Once per list: the servers and the points sorted by position as ints
    over one scale.  Per call: one merge of the sorted points with the
    free tuple, which keeps the first free server at or right of each
    point.  A point on that server gets it; otherwise the nearer of it and
    the free server before it, an exact midpoint going left.  A call costs
    O(m + f) for m points and f free servers, and raises ValidationError
    for an empty free set.
    """
    order, rank = _position_order(points)
    ints, xs, _ = scale_to_ints(layout.positions, [points[i] for i in order])

    def picks(free: tuple[int, ...]) -> list[int]:
        if not free:
            raise ValidationError("surrounding servers undefined for an empty free set")
        out: list[int] = []
        f, last = 0, len(free) - 1
        right = free[0]
        for x in xs:
            while ints[right] < x and f < last:
                f += 1
                right = free[f]
            if not f or ints[right] <= x:  # no free server on one side, or on x
                out.append(right)
            else:
                left = free[f - 1]
                out.append(right if ints[left] + ints[right] < 2 * x else left)
        return out if rank is None else [out[t] for t in rank]

    return picks


def greedy_rule(layout: ServerLayout) -> PriorityRule:
    def decide(r: Fraction, free: tuple[int, ...]) -> int:
        return greedy_decide(r, free, layout)

    def batch(points: Sequence[Fraction]) -> PicksFn:
        return greedy_batch(layout, points)

    return PriorityRule(id="greedy", decide=decide, batch=batch)


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


def tree_to_dict(tree: SplitTree, layout: ServerLayout) -> dict:
    """JSON-friendly dump of a split tree for inspection: nested dicts,
    built bottom-up (a block's children follow it in preorder)."""
    out: list = [None] * len(tree.lo)
    for i in reversed(range(len(tree.lo))):
        a = tree.split[i]
        if a is None:
            out[i] = {"server": tree.lo[i], "position": fraction_str(layout.positions[tree.lo[i]])}
            continue
        d, delta1, delta2, x, critical = split_geometry(tree, i, layout)
        out[i] = {
            "lo": tree.lo[i],
            "hi": tree.hi[i],
            "split_after": a,
            "gap": fraction_str(d),
            "delta1": fraction_str(delta1),
            "delta2": fraction_str(delta2),
            "x": fraction_str(x),
            "critical": fraction_str(critical),
            "left": out[i + 1],
            "right": out[tree.right[i]],
        }
    return out[0]
