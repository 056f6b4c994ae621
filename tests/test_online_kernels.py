"""Differential check: the online-path kernels agree with the code they
replaced.

``ptcp_decide`` narrows a sorted slice of the free set by bisection and
compares with the critical point by integer cross products;
``alpha_fast`` scans intervals on scaled integers; ``dp_cost_ints`` keeps
only the window of states that can be reached and still completed;
``surrounding_servers``, ``greedy_decide`` and ``build_split_tree`` work
on the layout's scaled integers.  The reference functions below are the
earlier code, inlined: two ``any()`` scans and a Fraction ``<=`` per tree
level, one Fraction division per interval, the full triple loop over
every state and block length, a bisection of the Fraction positions,
two Fraction distances per greedy decision and the Fraction
critical-point formula.  Results must be equal, including which of
several tied maximisers or servers is reported.
"""

import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.algorithms import SplitTree, build_split_tree, greedy_decide, ptcp_decide
from ofal.alpha import Metrics, alpha_fast, gap_ratio
from ofal.core import ServerLayout, ValidationError
from ofal.engine import surrounding_servers
from ofal.offline import dp_cost_ints

from conftest import layout_of, layouts


def reference_ptcp_decide(tree, r, free):
    node = tree
    while not node.is_leaf:
        left_free = any(node.lo <= j <= node.a for j in free)
        right_free = any(node.a < j <= node.hi for j in free)
        if (r <= node.critical and left_free) or not right_free:
            node = node.left
        else:
            node = node.right
    return node.lo


def reference_alpha_fast(layout):
    positions = layout.positions
    k = len(positions)
    best = Fraction(0)
    witness = (0,)
    for i in range(k):
        max_gap = Fraction(0)
        for j in range(i + 1, k):
            gap = positions[j] - positions[j - 1]
            if gap > max_gap:
                max_gap = gap
            value = (positions[j] - positions[i]) / max_gap
            if value > best:
                best = value
                witness = tuple(range(i, j + 1))
    return Metrics(l_value=gap_ratio(positions), alpha=best, witness=witness)


def reference_dp_cost_ints(servers, caps, requests):
    n = len(requests)
    reqs = sorted(requests)
    INF = float("inf")
    dp = [0] + [INF] * n
    for s, c in zip(servers, caps):
        ndp = list(dp)
        prefix = [0] * (n + 1)
        for t in range(n):
            prefix[t + 1] = prefix[t] + abs(reqs[t] - s)
        for t in range(1, n + 1):
            lo = max(0, t - c)
            best = ndp[t]
            for m in range(lo, t):
                if dp[m] == INF:
                    continue
                cand = dp[m] + prefix[t] - prefix[m]
                if cand < best:
                    best = cand
            ndp[t] = best
        dp = ndp
    if dp[n] == INF:
        raise ValidationError("capacity exhausted in dp")
    return int(dp[n])


# ---------------------------------------------------------------------------
# ptcp
# ---------------------------------------------------------------------------


def critical_points(tree):
    return [node.critical for node in tree.nodes() if not node.is_leaf]


@st.composite
def mixed_layouts(draw, max_k=12):
    """Layouts whose positions have mixed denominators and may be negative."""
    k = draw(st.integers(1, max_k))
    values = draw(
        st.sets(
            st.builds(Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 5, 7, 12))),
            min_size=k,
            max_size=k,
        )
    )
    return ServerLayout(tuple(sorted(values)))


@st.composite
def ptcp_cases(draw):
    """A layout, a request and a free set.  Layouts are on a quarter grid
    or have mixed denominators and negative positions.  Requests sit on
    critical points (which must go left), on servers or on an eighth
    grid; the free set may have one block of a drawn node emptied."""
    layout = draw(st.one_of(layouts(max_k=12), mixed_layouts()))
    tree = build_split_tree(layout)
    k = layout.k
    free = set(draw(st.sets(st.integers(0, k - 1), min_size=1)))
    inner = [node for node in tree.nodes() if not node.is_leaf]
    if inner and draw(st.booleans()):
        node = draw(st.sampled_from(inner))
        lo, hi = (node.lo, node.a) if draw(st.booleans()) else (node.a + 1, node.hi)
        emptied = free - set(range(lo, hi + 1))
        if emptied:
            free = emptied
    grid = st.integers(-8, 8 * 12 + 8).map(lambda t: Fraction(t, 8))
    candidates = critical_points(tree) + list(layout.positions)
    r = draw(st.one_of(st.sampled_from(candidates), grid))
    return tree, r, tuple(sorted(free))


class TestPtcpDecide:
    @given(ptcp_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_any_scan_descent(self, case):
        tree, r, free = case
        assert ptcp_decide(tree, r, free) == reference_ptcp_decide(tree, r, free)

    @given(layouts(min_k=2, max_k=12))
    @settings(max_examples=100, deadline=None)
    def test_critical_points_go_left(self, layout):
        # With every server free, a request exactly on a node's critical
        # point that reaches the node lands in its left block.
        tree = build_split_tree(layout)
        full = tuple(range(layout.k))
        for node in tree.nodes():
            if node.is_leaf:
                continue
            free = tuple(range(node.lo, node.hi + 1))
            j = ptcp_decide(tree, node.critical, free)
            assert node.lo <= j <= node.a
            assert j == reference_ptcp_decide(tree, node.critical, free)
            assert ptcp_decide(tree, node.critical, full) == reference_ptcp_decide(
                tree, node.critical, full
            )

    def test_one_block_empty(self):
        tree = build_split_tree(layout_of(0, 1, 3, 4))
        # Root splits after server 1 at critical point 2.
        assert tree.a == 1 and tree.critical == 2
        assert ptcp_decide(tree, Fraction(0), (2, 3)) == 2
        assert ptcp_decide(tree, Fraction(4), (0, 1)) == 1
        assert ptcp_decide(tree, Fraction(2), (0, 3)) == 0

    def test_empty_free_set_refused(self):
        tree = build_split_tree(layout_of(0, 2))
        with pytest.raises(ValidationError):
            ptcp_decide(tree, Fraction(1), ())


# ---------------------------------------------------------------------------
# alpha_fast
# ---------------------------------------------------------------------------


class TestAlphaFast:
    @given(layouts(max_k=12, den=1, hull=16))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_scan_on_integer_grids(self, layout):
        assert alpha_fast(layout) == reference_alpha_fast(layout)

    @given(layouts(max_k=10, den=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_scan_on_mixed_denominators(self, layout):
        assert alpha_fast(layout) == reference_alpha_fast(layout)

    def test_every_layout_on_a_small_integer_grid(self):
        # Equal gaps make ties frequent, so this pins value and witness.
        for mask in range(1, 1 << 10):
            layout = ServerLayout(tuple(Fraction(i) for i in range(10) if mask >> i & 1))
            assert alpha_fast(layout) == reference_alpha_fast(layout)


# ---------------------------------------------------------------------------
# dp_cost_ints
# ---------------------------------------------------------------------------


@st.composite
def dp_cases(draw):
    """Sorted distinct servers with capacities 0..cap_max and a request
    count that is zero, fills the capacity exactly, leaves slack, or is one
    too many."""
    k = draw(st.integers(0, 7))
    servers = sorted(draw(st.sets(st.integers(-30, 30), min_size=k, max_size=k)))
    cap_max = draw(st.sampled_from((1, 3, 8)))
    caps = draw(st.lists(st.integers(0, cap_max), min_size=k, max_size=k))
    total = sum(caps)
    n = draw(st.sampled_from((0, total, total + 1, total // 2, total // 4)))
    n = min(n, 14)
    requests = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    return servers, caps, requests


def both(servers, caps, requests):
    out = []
    for solve in (dp_cost_ints, reference_dp_cost_ints):
        try:
            out.append(solve(servers, caps, requests))
        except ValidationError as err:
            out.append(("error", str(err)))
    return out


class TestDpWindow:
    @given(dp_cases())
    @settings(max_examples=250, deadline=None)
    def test_matches_the_triple_loop(self, case):
        got, expected = both(*case)
        assert got == expected

    def test_edge_cases(self):
        assert dp_cost_ints([], [], []) == 0
        assert dp_cost_ints([0, 5], [0, 0], []) == 0
        # Zero capacities interleaved with positive ones.
        assert both([0, 3, 7, 9], [0, 2, 0, 1], [1, 8, 9]) == [7, 7]
        # Total capacity equal to n: the window shrinks to one state per server.
        assert both([0, 10], [2, 1], [0, 0, 0]) == [10, 10]
        # Slack-rich: the nearest server takes every request.
        assert both([0, 100, 200], [50, 50, 50], [99, 100, 101]) == [2, 2]

    def test_capacity_exhausted(self):
        for servers, caps, requests in (([0], [0], [1]), ([0, 4], [1, 1], [0, 1, 2]), ([], [], [3])):
            with pytest.raises(ValidationError, match="capacity exhausted in dp"):
                dp_cost_ints(servers, caps, requests)
            assert both(servers, caps, requests)[1] == ("error", "capacity exhausted in dp")

    def test_random_larger_instances(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randint(1, 25)
            servers = sorted(rng.sample(range(-500, 500), k))
            caps = [rng.randint(0, 6) for _ in range(k)]
            n = rng.randint(0, sum(caps))
            requests = [rng.randint(-600, 600) for _ in range(n)]
            got, expected = both(servers, caps, requests)
            assert got == expected


# ---------------------------------------------------------------------------
# The scaled-integer layers: surrounding_servers, greedy_decide and
# build_split_tree
# ---------------------------------------------------------------------------


def reference_surrounding_servers(r, free, layout):
    positions = layout.positions
    k = len(positions)
    right = bisect_left(positions, r)
    if right < k and right in free and positions[right] == r:
        return (right, right)
    left = right - 1
    while left >= 0 and left not in free:
        left -= 1
    while right < k and right not in free:
        right += 1
    return (left if left >= 0 else None, right if right < k else None)


def reference_greedy_decide(r, free, layout):
    left, right = reference_surrounding_servers(r, free, layout)
    if right is None or left == right:
        return left
    positions = layout.positions
    if left is None or positions[right] - r < r - positions[left]:
        return right
    return left


def reference_fraction_split_tree(layout):
    positions = layout.positions
    gaps = layout.gaps()

    def build(lo, hi):
        if lo == hi:
            return SplitTree(lo=lo, hi=hi)
        a = max(range(lo, hi), key=gaps.__getitem__)
        d = gaps[a]
        delta1 = positions[a] - positions[lo]
        delta2 = positions[hi] - positions[a + 1]
        x = d * (delta2 + d) / ((delta1 + d) + (delta2 + d))
        return SplitTree(
            lo=lo,
            hi=hi,
            a=a,
            d=d,
            delta1=delta1,
            delta2=delta2,
            x=x,
            critical=positions[a] + x,
            left=build(lo, a),
            right=build(a + 1, hi),
        )

    return build(0, layout.k - 1)


def boundary_requests(layout):
    """Every server, every midpoint of two servers (a distance tie once the
    servers between them are used), every critical point, and points just
    outside the hull and just beside each server."""
    positions = layout.positions
    points = set(positions)
    points.update((a + b) / 2 for i, a in enumerate(positions) for b in positions[i + 1 :])
    points.update(node.critical for node in build_split_tree(layout).nodes() if not node.is_leaf)
    eps = Fraction(1, 97)
    points.update((positions[0] - 1, positions[0] - eps, positions[-1] + eps, positions[-1] + 3))
    points.update(p + sign * eps for p in positions for sign in (-1, 1))
    return sorted(points)


@st.composite
def thinned_free_sets(draw, k):
    """A free set that is all servers, a random subset, or at most three
    servers, so the walk often crosses used servers."""
    kind = draw(st.sampled_from(("all", "subset", "few")))
    if kind == "all":
        return tuple(range(k))
    max_size = k if kind == "subset" else min(k, 3)
    return tuple(sorted(draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=max_size))))


class TestScaledLayers:
    @given(mixed_layouts(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_walk_and_greedy_match_the_fraction_code(self, layout, data):
        requests = boundary_requests(layout)
        for _ in range(3):
            free = data.draw(thinned_free_sets(layout.k))
            for r in requests:
                assert surrounding_servers(r, free, layout) == reference_surrounding_servers(r, free, layout)
                assert greedy_decide(r, free, layout) == reference_greedy_decide(r, free, layout)

    @given(mixed_layouts(max_k=16))
    @settings(max_examples=200, deadline=None)
    def test_split_tree_matches_the_fraction_formula(self, layout):
        tree = build_split_tree(layout)
        # Dataclass equality compares every field but critical_pair.
        assert tree == reference_fraction_split_tree(layout)
        for node in tree.nodes():
            if node.is_leaf:
                assert node.critical_pair is None
            else:
                c = node.critical
                assert node.critical_pair == (c.numerator, c.denominator)
                assert all(
                    type(v) is Fraction for v in (node.d, node.delta1, node.delta2, node.x, c)
                )

    def test_literal_boundaries(self):
        layout = ServerLayout((Fraction(-7, 3), Fraction(-1, 2), Fraction(5, 7)))
        everyone = tuple(range(3))
        # On a server, and just beside it.
        assert surrounding_servers(Fraction(-1, 2), everyone, layout) == (1, 1)
        assert surrounding_servers(Fraction(-1, 2) + Fraction(1, 10**9), everyone, layout) == (1, 2)
        assert surrounding_servers(Fraction(-1, 2) - Fraction(1, 10**9), everyone, layout) == (0, 1)
        # On a used server: the walk crosses it both ways.
        assert surrounding_servers(Fraction(-1, 2), (0, 2), layout) == (0, 2)
        # Midpoint of servers 0 and 2 with 1 used: a distance tie goes left.
        mid = (Fraction(-7, 3) + Fraction(5, 7)) / 2
        assert greedy_decide(mid, (0, 2), layout) == 0
        assert greedy_decide(mid + Fraction(1, 10**9), (0, 2), layout) == 2
        # Outside the hull.
        assert surrounding_servers(Fraction(-3), everyone, layout) == (None, 0)
        assert surrounding_servers(Fraction(1), everyone, layout) == (2, None)
        assert greedy_decide(Fraction(-3), (2,), layout) == 2
