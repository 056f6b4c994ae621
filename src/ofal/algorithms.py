"""Concrete online rules: the split-tree rule, greedy, and the guarded
composition that bolts one extra server onto an existing rule.

The split-tree rule ("ptcp") recursively partitions the servers at a
maximum adjacent gap.  Each internal node stores a critical offset x into
its gap; a request left of (or exactly at) the critical point descends
into the left block whenever a free server remains there, otherwise into
the right block, and symmetrically.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .core import ServerLayout, ValidationError
from .engine import PriorityRule, surrounding_servers


@dataclass(frozen=True)
class SplitTree:
    """Recursive split structure over a contiguous server interval [lo..hi].

    Internal nodes split after index ``a`` (0-based, lo <= a < hi) at a
    maximum adjacent gap D = s[a+1] - s[a] of the interval, with
    Delta1 = s[a] - s[lo], Delta2 = s[hi] - s[a+1] and critical offset

        x = D * (Delta2 + D) / ((Delta1 + D) + (Delta2 + D)),

    so 0 < x < D (positions are distinct, so D > 0) and the critical point
    s[a] + x lies strictly inside the gap.  Leaves are single servers.
    ``critical_pair`` is the critical point's numerator and denominator,
    which ``ptcp_decide`` compares with by cross products.
    """

    lo: int
    hi: int
    a: int | None = None
    d: Fraction | None = None
    delta1: Fraction | None = None
    delta2: Fraction | None = None
    x: Fraction | None = None
    critical: Fraction | None = None
    left: "SplitTree | None" = None
    right: "SplitTree | None" = None
    critical_pair: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.lo == self.hi

    def nodes(self):
        """Every node in preorder (node, left subtree, right subtree)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack += (node.right, node.left)


def build_split_tree(layout: ServerLayout) -> SplitTree:
    """Build the split tree over all servers of a layout.

    Everything is computed on ``layout.scaled``: the gaps once, then per
    node D, Delta1, Delta2 and the critical point as ints over the
    layout's scale; each block splits after the leftmost of its maximum
    gaps.  Positions are distinct, so every gap D is positive.  An
    internal node's Fraction fields are made from its ints, five
    ``Fraction(int, int)`` and no Fraction arithmetic.  The build is
    iterative, so the depth of the tree (up to k - 1) is not bounded by
    the recursion limit.
    """
    ints, scale = layout.scaled
    gaps = [b - a for a, b in zip(ints, ints[1:])]
    # Blocks in preorder with their split points, then the nodes built in
    # reverse: a node's subtrees are then the top two of ``built``.
    order: list[tuple[int, int, int | None]] = []
    stack = [(0, layout.k - 1)]
    while stack:
        lo, hi = stack.pop()
        a = None if lo == hi else max(range(lo, hi), key=gaps.__getitem__)
        order.append((lo, hi, a))
        if a is not None:
            stack += ((a + 1, hi), (lo, a))
    built: list[SplitTree] = []
    for lo, hi, a in reversed(order):
        if a is None:
            built.append(SplitTree(lo=lo, hi=hi))
            continue
        d = gaps[a]
        delta1 = ints[a] - ints[lo]
        delta2 = ints[hi] - ints[a + 1]
        # x = x_num / (den * scale), and the critical point is s[a] + x.
        x_num, den = d * (delta2 + d), (delta1 + d) + (delta2 + d)
        critical = Fraction(ints[a] * den + x_num, den * scale)
        built.append(SplitTree(
            lo=lo,
            hi=hi,
            a=a,
            d=Fraction(d, scale),
            delta1=Fraction(delta1, scale),
            delta2=Fraction(delta2, scale),
            x=Fraction(x_num, den * scale),
            critical=critical,
            left=built.pop(),
            right=built.pop(),
            critical_pair=(critical.numerator, critical.denominator),
        ))
    return built.pop()


def ptcp_decide(tree: SplitTree, r: Fraction, free: tuple[int, ...]) -> int:
    """Descend the split tree to a free server for request r.

    At each internal node: go left iff (r <= critical point and the left
    block has a free server) or the right block has none.  The boundary
    r == critical point goes left.  Raises ValidationError for an empty
    free set.

    ``free`` is increasing, so each level narrows the slice of it that
    lies in the node's block with one bisection, and compares r with the
    node's ``critical_pair`` as an integer cross product.  A call costs
    O(depth * log f) for f free servers, with no copy or sort of ``free``,
    no Fraction arithmetic and no Fraction attribute read.
    """
    if not free:
        raise ValidationError("ptcp undefined for an empty free set")
    i0, i1 = 0, len(free)  # free[i0:i1] are the free servers in the node's block
    rn, rd = r.numerator, r.denominator
    node = tree
    while not node.is_leaf:
        m = bisect_right(free, node.a, i0, i1)
        cn, cd = node.critical_pair
        if m == i1 or (m > i0 and rn * cd <= cn * rd):
            node, i1 = node.left, m
        else:
            node, i0 = node.right, m
    return node.lo


def ptcp_rule(layout: ServerLayout) -> PriorityRule:
    tree = build_split_tree(layout)

    def decide(r: Fraction, free: tuple[int, ...]) -> int:
        return ptcp_decide(tree, r, free)

    return PriorityRule(id="ptcp", decide=decide)


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


def greedy_rule(layout: ServerLayout) -> PriorityRule:
    def decide(r: Fraction, free: tuple[int, ...]) -> int:
        return greedy_decide(r, free, layout)

    return PriorityRule(id="greedy", decide=decide)


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


def build_rule(name: str, layout: ServerLayout) -> PriorityRule:
    try:
        builder = RULE_BUILDERS[name]
    except KeyError:
        raise ValidationError(f"unknown rule {name!r}; use one of {sorted(RULE_BUILDERS)}")
    return builder(layout)


def tree_to_dict(tree: SplitTree, layout: ServerLayout) -> dict:
    """JSON-friendly dump of a split tree for inspection."""
    from .core import fraction_str

    if tree.is_leaf:
        return {"server": tree.lo, "position": fraction_str(layout.positions[tree.lo])}
    return {
        "lo": tree.lo,
        "hi": tree.hi,
        "split_after": tree.a,
        "gap": fraction_str(tree.d),
        "delta1": fraction_str(tree.delta1),
        "delta2": fraction_str(tree.delta2),
        "x": fraction_str(tree.x),
        "critical": fraction_str(tree.critical),
        "left": tree_to_dict(tree.left, layout),
        "right": tree_to_dict(tree.right, layout),
    }
