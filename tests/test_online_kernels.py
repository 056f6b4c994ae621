"""Differential check: the online-path kernels agree with the code they
replaced.

ptcp's ``decide`` takes the two ``surrounding_servers`` of a request and
compares it with the critical point of the block that separates them,
found from ``gap_table`` by following each gap to the next larger one,
by an integer cross product; ``alpha_fast`` scans intervals on scaled
integers; ``dp_cost_ints`` sends the sorted requests to increasing
capacity slots, keeping only the slots each request can reach;
``surrounding_servers``, greedy's ``decide`` and ``gap_table`` work on
the layout's scaled integers.  The reference functions below are the
earlier code, inlined: the nested split tree of frozen node objects, its
descent with two ``any()`` scans and a Fraction ``<=`` per tree level and
its bisecting descent, one Fraction division per interval, the
server-major DP over a window of reachable prefix lengths and, before it,
the full triple loop over every state and block length, a bisection of
the Fraction positions, two Fraction distances per greedy decision, and
the Fraction critical-point formula (``conftest.reference_split_rows``).
Results must be equal, including which of several tied maximisers or
servers is reported.
"""

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.algorithms import gap_table, greedy_rule, ptcp_rule
from ofal.alpha import Metrics, alpha_fast
from ofal.core import Instance, RequestSequence, ServerLayout, ValidationError
from ofal.engine import PriorityRule, simulate, surrounding_servers
from ofal.offline import dp_cost_ints
from ofal.verify import check_surrounding_oriented

from conftest import gap_table_by_split, layout_of, layouts, reference_split_rows, rows_by_split


@dataclass(frozen=True)
class NestedSplitTree:
    lo: int
    hi: int
    a: int | None = None
    d: Fraction | None = None
    delta1: Fraction | None = None
    delta2: Fraction | None = None
    x: Fraction | None = None
    critical: Fraction | None = None
    left: "NestedSplitTree | None" = None
    right: "NestedSplitTree | None" = None
    critical_pair: tuple[int, int] | None = None

    @property
    def is_leaf(self):
        return self.lo == self.hi

    def nodes(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack += (node.right, node.left)


def nested_build_split_tree(layout):
    ints, scale = layout.scaled
    gaps = [b - a for a, b in zip(ints, ints[1:])]
    order = []
    stack = [(0, layout.k - 1)]
    while stack:
        lo, hi = stack.pop()
        a = None if lo == hi else max(range(lo, hi), key=gaps.__getitem__)
        order.append((lo, hi, a))
        if a is not None:
            stack += ((a + 1, hi), (lo, a))
    built = []
    for lo, hi, a in reversed(order):
        if a is None:
            built.append(NestedSplitTree(lo=lo, hi=hi))
            continue
        d = gaps[a]
        delta1 = ints[a] - ints[lo]
        delta2 = ints[hi] - ints[a + 1]
        x_num, den = d * (delta2 + d), (delta1 + d) + (delta2 + d)
        critical = Fraction(ints[a] * den + x_num, den * scale)
        built.append(NestedSplitTree(
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


def reference_ptcp_decide(tree, r, free):
    node = tree
    while not node.is_leaf:
        left_free = any(node.lo <= j <= node.a for j in free)
        right_free = any(node.a < j <= node.hi for j in free)
        node = node.left if (r <= node.critical and left_free) or not right_free else node.right
    return node.lo


def nested_ptcp_decide(tree, r, free):
    if not free:
        raise ValidationError("ptcp undefined for an empty free set")
    i0, i1 = 0, len(free)
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
    return Metrics(alpha=best, witness=witness)


def windowed_dp_cost_ints(servers, caps, requests):
    """Core DP on scaled ints: assign sorted requests to servers in order.

    A non-crossing optimum matches the sorted requests to a sorted multiset
    of server slots, so each server serves a contiguous block.  dp[t] is
    the best cost of the first t sorted requests; server j extends it by a
    block of up to c_j requests.  Raises ValidationError when the
    capacities sum to less than the number of requests.

    Only a window of t is kept: after server j, t runs over
    [n - cap(servers after j), cap(servers 0..j)], clipped to [0, n].  A
    larger t cannot be reached, and a smaller one cannot be completed by
    the servers left; every prefix of an optimal assignment lies inside
    the window, so dp[n] is exact.  With prefix[t] the cost of requests
    before t on server j and g[m] = dp[m] - prefix[m], a step is
    prefix[t] + min(g[m] for t - c_j <= m <= t).  Zero-capacity servers are
    skipped.  A solve costs O(sum of c_j * window width), O(k * n * c) at
    most.
    """
    reqs = sorted(requests)
    n = len(reqs)
    rest = sum(caps)
    if n > rest:
        raise ValidationError("capacity exhausted in dp")
    lo, dp = 0, [0]  # dp[t - lo] for t in [lo, lo + len(dp) - 1]
    for s, c in zip(servers, caps):
        if c == 0:
            continue
        rest -= c
        hi = lo + len(dp) - 1
        new_lo, new_hi = max(lo, n - rest), min(n, hi + c)
        base = max(lo, new_lo - c)  # the first m a step into the window reads
        # prefix[t - base] is the cost of requests base..t-1 on s.
        prefix = [0]
        for r in reqs[base:new_hi]:
            prefix.append(prefix[-1] + abs(r - s))
        g = [dp[m - lo] - prefix[m - base] for m in range(base, hi + 1)]
        dp = [
            prefix[t - base] + min(g[max(0, t - c - base) : min(hi, t) - base + 1])
            for t in range(new_lo, new_hi + 1)
        ]
        lo = new_lo
    return dp[n - lo]


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
    """A layout, its nested reference tree, a request and a free set.
    Layouts are on a quarter grid or have mixed denominators and negative
    positions.  Requests sit on critical points (which must go left), on
    servers or on an eighth grid; the free set may have one block of a
    drawn node emptied."""
    layout = draw(st.one_of(layouts(max_k=12), mixed_layouts()))
    tree = nested_build_split_tree(layout)
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
    return layout, tree, r, tuple(sorted(free))


class TestPtcpDecide:
    @given(ptcp_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_any_scan_descent(self, case):
        layout, tree, r, free = case
        assert ptcp_rule(layout).decide(r, free) == reference_ptcp_decide(tree, r, free)

    @given(layouts(min_k=2, max_k=12))
    @settings(max_examples=100, deadline=None)
    def test_critical_points_go_left(self, layout):
        # With every server free, a request exactly on a block's critical
        # point that reaches the block lands in its left child.
        tree = nested_build_split_tree(layout)
        decide = ptcp_rule(layout).decide
        full = tuple(range(layout.k))
        for node in tree.nodes():
            if node.is_leaf:
                continue
            free = tuple(range(node.lo, node.hi + 1))
            j = decide(node.critical, free)
            assert node.lo <= j <= node.a
            assert j == reference_ptcp_decide(tree, node.critical, free)
            assert decide(node.critical, full) == reference_ptcp_decide(tree, node.critical, full)

    def test_one_block_empty(self):
        layout = layout_of(0, 1, 3, 4)
        decide = ptcp_rule(layout).decide
        # Root splits after server 1 at critical point 2; gaps 0 and 2
        # split its children at their midpoints.
        assert gap_table(layout) == (((1, 2), (2, 1), (7, 2)), (1, 3, 3))
        assert decide(Fraction(0), (2, 3)) == 2
        assert decide(Fraction(4), (0, 1)) == 1
        assert decide(Fraction(2), (0, 3)) == 0

    def test_empty_free_set_refused(self):
        with pytest.raises(ValidationError):
            ptcp_rule(layout_of(0, 2)).decide(Fraction(1), ())

    def test_split_tree_descent_is_surrounding_oriented(self):
        # ptcp decides through surrounding_servers, so criterion 7's check
        # on ptcp_rule holds by construction.  The paper's descent itself,
        # run with capacities, must pass the same check and match it.
        rng = random.Random(7_700)
        for _ in range(300):
            k = rng.randint(1, 8)
            ticks = sorted(rng.sample(range(0, 25), k))
            den = rng.choice((1, 2, 3))
            layout = ServerLayout(tuple(Fraction(t, den) for t in ticks))
            inst = Instance(layout, tuple(rng.randint(1, 3) for _ in range(k)))
            tree = nested_build_split_tree(layout)
            points = critical_points(tree) + list(layout.positions) + [Fraction(t, 4) for t in range(-4, 60)]
            seq = RequestSequence(tuple(rng.choice(points) for _ in range(rng.randint(0, inst.total_capacity))))
            descent = PriorityRule("ptcp-descent", lambda r, free, tree=tree: reference_ptcp_decide(tree, r, free))
            trace = simulate(descent, inst, seq)
            report = check_surrounding_oriented(trace, seq, inst)
            assert report.ok and report.trials == len(seq), report.violations
            assert trace.assignment == simulate(ptcp_rule(layout), inst, seq).assignment


def leftmost_max_gap_split(layout, left, right):
    """The server after the leftmost maximum gap among servers left..right."""
    s = layout.positions
    return max(range(left, right), key=lambda a: s[a + 1] - s[a])


def nested_by_split(tree):
    """{a: (critical pair, hi)} over the internal nodes of a nested tree."""
    return {node.a: (node.critical_pair, node.hi) for node in tree.nodes() if not node.is_leaf}


class TestSeparatingBlock:
    """The block that separates two servers is the one split at the
    leftmost maximum gap between them: each block splits at its own
    leftmost maximum gap, and the smallest block holding both servers
    holds every gap between them.  ptcp's threshold for two free servers
    walks ``gap_table``'s reach to that gap and returns its critical
    point: a request there goes left, one just right of it goes right."""

    def check_pairs(self, layout, splits):
        """``splits`` holds (left, right, a), a the separating gap."""
        critical, _ = gap_table(layout)
        decide = ptcp_rule(layout).decide
        s = layout.positions
        for left, right, a in splits:
            c = Fraction(*critical[a])
            # Gap a holds no other critical point, so these pin the threshold.
            assert decide(c, (left, right)) == left, (left, right)
            assert decide((c + s[a + 1]) / 2, (left, right)) == right, (left, right)

    def check_every_pair(self, layout):
        assert gap_table_by_split(layout) == nested_by_split(nested_build_split_tree(layout))
        k = layout.k
        self.check_pairs(layout, [
            (left, right, leftmost_max_gap_split(layout, left, right))
            for left in range(k)
            for right in range(left + 1, k)
        ])

    @given(st.one_of(layouts(min_k=2, max_k=12, den=1, hull=16), mixed_layouts()))
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_layouts(self, layout):
        self.check_every_pair(layout)

    def test_every_layout_on_a_small_integer_grid(self):
        # Equal gaps are everywhere, so the leftmost tie decides each block.
        for mask in range(1, 1 << 9):
            self.check_every_pair(ServerLayout(tuple(Fraction(i) for i in range(9) if mask >> i & 1)))

    def test_evenly_spaced_servers_make_a_path(self):
        # Each block of 2000 evenly spaced servers splits after its first
        # server, so the tree is a path, every gap reaches the last server
        # and the walk stops at once, on gap left.  ``TestSplitBlocks``
        # checks the table against the reference blocks.
        layout = ServerLayout(tuple(Fraction(i) for i in range(2000)))
        assert gap_table(layout)[1] == (1999,) * 1999
        rng = random.Random(2000)
        pairs = [(0, 1), (0, 1999), (1998, 1999)] + [tuple(sorted(rng.sample(range(2000), 2))) for _ in range(300)]
        # All gaps are equal, so the leftmost maximum is gap left.
        self.check_pairs(layout, [(left, right, left) for left, right in pairs])


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


def solve_all(servers, caps, requests):
    """The result or error of the slot DP, the windowed DP and the triple
    loop, in that order."""
    out = []
    for solve in (dp_cost_ints, windowed_dp_cost_ints, reference_dp_cost_ints):
        try:
            out.append(solve(servers, caps, requests))
        except ValidationError as err:
            out.append(("error", str(err)))
    return out


class TestDpWindow:
    @given(dp_cases())
    @settings(max_examples=250, deadline=None)
    def test_matches_the_triple_loop(self, case):
        got, windowed, expected = solve_all(*case)
        assert got == windowed == expected

    def test_edge_cases(self):
        assert dp_cost_ints([], [], []) == 0
        assert dp_cost_ints([0, 5], [0, 0], []) == 0
        # Zero capacities interleaved with positive ones.
        assert solve_all([0, 3, 7, 9], [0, 2, 0, 1], [1, 8, 9]) == [7] * 3
        # Total capacity equal to n: no slack, one slot per request.
        assert solve_all([0, 10], [2, 1], [0, 0, 0]) == [10] * 3
        # Slack-rich: the nearest server takes every request.
        assert solve_all([0, 100, 200], [50, 50, 50], [99, 100, 101]) == [2] * 3
        # A capacity far above n owns n slots.
        assert solve_all([0, 100], [10**12, 1], [1, 2, 3]) == [6] * 3

    def test_capacity_exhausted(self):
        for servers, caps, requests in (([0], [0], [1]), ([0, 4], [1, 1], [0, 1, 2]), ([], [], [3])):
            with pytest.raises(ValidationError, match="capacity exhausted in dp"):
                dp_cost_ints(servers, caps, requests)
            assert solve_all(servers, caps, requests)[1:] == [("error", "capacity exhausted in dp")] * 2

    def test_random_larger_instances(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randint(1, 25)
            servers = sorted(rng.sample(range(-500, 500), k))
            caps = [rng.randint(0, 6) for _ in range(k)]
            n = rng.randint(0, sum(caps))
            requests = [rng.randint(-600, 600) for _ in range(n)]
            got, windowed, expected = solve_all(servers, caps, requests)
            assert got == windowed == expected


# ---------------------------------------------------------------------------
# The scaled-integer layers: surrounding_servers, greedy's decide and
# gap_table
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


def boundary_requests(layout):
    """Every server, every midpoint of two servers (a distance tie once the
    servers between them are used), every critical point, and points just
    outside the hull and just beside each server."""
    positions = layout.positions
    points = set(positions)
    points.update((a + b) / 2 for i, a in enumerate(positions) for b in positions[i + 1 :])
    points.update(critical_points(nested_build_split_tree(layout)))
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
        greedy = greedy_rule(layout).decide
        for _ in range(3):
            free = data.draw(thinned_free_sets(layout.k))
            for r in requests:
                assert surrounding_servers(r, free, layout) == reference_surrounding_servers(r, free, layout)
                assert greedy(r, free) == reference_greedy_decide(r, free, layout)

    @given(mixed_layouts(max_k=16))
    @settings(max_examples=200, deadline=None)
    def test_split_tree_matches_the_fraction_formula(self, layout):
        # Every gap's critical point and reach, against the block it splits.
        table = gap_table_by_split(layout)
        assert table == rows_by_split(reference_split_rows(layout))
        # No Fraction: every entry is an (int, int) pair and an int.
        assert all(tuple(map(type, c)) == (int, int) and type(hi) is int for c, hi in table.values())

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
        greedy = greedy_rule(layout).decide
        mid = (Fraction(-7, 3) + Fraction(5, 7)) / 2
        assert greedy(mid, (0, 2)) == 0
        assert greedy(mid + Fraction(1, 10**9), (0, 2)) == 2
        # Outside the hull.
        assert surrounding_servers(Fraction(-3), everyone, layout) == (None, 0)
        assert surrounding_servers(Fraction(1), everyone, layout) == (2, None)
        assert greedy(Fraction(-3), (2,)) == 2


class TestPreorderTable:
    """``gap_table`` and ptcp against the nested tree and its bisecting
    descent, which the preorder table replaced before the gap table."""

    @given(mixed_layouts(max_k=16), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_nested_tree(self, layout, data):
        nested = nested_build_split_tree(layout)
        assert gap_table_by_split(layout) == nested_by_split(nested)
        requests = boundary_requests(layout)
        decide = ptcp_rule(layout).decide
        for _ in range(3):
            free = data.draw(thinned_free_sets(layout.k))
            for r in requests:
                assert decide(r, free) == nested_ptcp_decide(nested, r, free)
