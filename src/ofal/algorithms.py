"""Concrete online rules: the split-tree rule, greedy, and the guarded
composition that bolts one extra server onto an existing rule.

The split-tree rule ("ptcp") recursively partitions the servers at a
maximum adjacent gap; each internal block has a critical point inside
its gap.  ptcp and greedy pick one of the two free servers around a
request (``surrounding_rule``), switching from left to right at the
critical point of the block that separates them, or at their midpoint.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .core import ServerLayout, ValidationError, fraction_str
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
    (numerator, denominator) pair, its one stored form and ptcp's
    threshold; ``split_geometry`` gives the rest of the block's geometry.
    A tree of k servers has 2k - 1 blocks.
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


def separating_block(tree: SplitTree, left: int, right: int) -> int:
    """The block whose split separates servers left < right: the smallest
    block holding both.  From the root, go to the left child while right
    <= split, to the right child while left > split, and stop at the first
    block with left <= split < right.  Two int comparisons per level."""
    split, right_child, i = tree.split, tree.right, 0
    while True:
        a = split[i]
        if right <= a:
            i += 1
        elif left > a:
            i = right_child[i]
        else:
            return i


def ptcp_rule(layout: ServerLayout) -> PriorityRule:
    """The split-tree rule: a ``surrounding_rule`` whose threshold for free
    servers left < right is the critical point of their ``separating_block``.

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
    tree = build_split_tree(layout)
    return surrounding_rule("ptcp", layout, lambda left, right: tree.critical[separating_block(tree, left, right)])


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
