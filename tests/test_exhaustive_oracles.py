"""Differential check: the two exhaustive oracles agree with the Fraction
loops they replaced.

``grid_search_max_rate`` reads each request multiset's optimum from the
memo ``multiset_optima`` fills and compares rates as integer cross
products; ``alpha_bruteforce`` scans subsets on scaled integers, group by
group.  The reference loops below are the earlier code, inlined: a cold
DP and a Fraction rate at every grid node, ``gap_ratio`` on every subset,
and the integer walk over each subset's bits
(``bitmask_alpha_bruteforce``) that the grouped scan replaced.
Results must be equal field for field, including which of several tied
maximisers is reported.  The memo itself is checked multiset by multiset
against the windowed server-major DP, which shares no recurrence with
the slot DP of ``multiset_optima`` and ``dp_cost_ints``, and child row by
child row against the flat fill it replaced, kept below as
``reference_multiset_optima``.
"""

import random
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from ofal.adversary import candidate_points
from ofal.algorithms import greedy_rule, ptcp_rule
from ofal.alpha import BRUTEFORCE_MAX_K, Metrics, alpha_bruteforce, alpha_fast, gap_ratio
from ofal.core import Instance, ServerLayout, ValidationError, scale_to_ints
from ofal.engine import PriorityRule
from ofal.offline import multiset_optima
from ofal.verify import GridSearchResult, grid_search_max_rate

from conftest import layouts
from test_online_kernels import windowed_dp_cost_ints


def reference_grid_search(rule, inst, points, n_max):
    servers_int, points_int, scale = scale_to_ints(inst.layout.positions, points)
    caps0 = list(inst.capacities)
    depth_cap = min(n_max, inst.total_capacity)
    best = [Fraction(0), tuple()]
    nodes = [0]
    anomalies = []
    remaining = list(caps0)
    free = set(j for j, c in enumerate(caps0) if c > 0)
    chosen = []
    chosen_int = []

    def consider(alg_int):
        opt_int = windowed_dp_cost_ints(servers_int, caps0, chosen_int)
        if opt_int == 0:
            if alg_int > 0:
                anomalies.append(
                    {"sequence": [str(q) for q in chosen], "alg_cost": str(Fraction(alg_int, scale))}
                )
                return
            rate = Fraction(1)
        else:
            rate = Fraction(alg_int, opt_int)
        if rate > best[0]:
            best[0] = rate
            best[1] = tuple(chosen)

    def dfs(depth, alg_int):
        nodes[0] += 1
        if depth > 0:
            consider(alg_int)
        if depth == depth_cap:
            return
        for p, p_int in zip(points, points_int):
            j = rule.decide(p, tuple(sorted(free)))
            remaining[j] -= 1
            if remaining[j] == 0:
                free.remove(j)
            chosen.append(p)
            chosen_int.append(p_int)
            dfs(depth + 1, alg_int + abs(p_int - servers_int[j]))
            chosen.pop()
            chosen_int.pop()
            if remaining[j] == 0:
                free.add(j)
            remaining[j] += 1

    dfs(0, 0)
    return GridSearchResult(
        best_rate=best[0], best_sequence=best[1], nodes=nodes[0], zero_opt_anomalies=anomalies
    )


def reference_multiset_optima(servers, caps, points, depth):
    """The flat fill: the optimum of every multiset of 1 to ``depth``
    points by key, and each point's key weight."""
    order = sorted(range(len(points)), key=points.__getitem__)
    slots = [s for s, c in zip(servers, caps) for _ in range(min(c, depth))]
    rows = [[abs(points[x] - s) for s in slots] for x in order]
    ranked = [(depth + 1) ** i for i in range(len(points))]
    weight = [0] * len(points)
    for x, w in zip(order, ranked):
        weight[x] = w
    optima = {}
    todo = [(0, 0, [0] * (len(slots) + 1), 0)] if depth else []
    while todo:
        d, first, F, key = todo.pop()
        for i in range(first, len(points)):
            G = list(map(add, accumulate(F, min), rows[i][d:]))
            optima[key + ranked[i]] = min(G)
            if d + 1 < depth:
                todo.append((d + 1, i, G, key + ranked[i]))
    return optima, weight


def reference_alpha_bruteforce(layout):
    k = layout.k
    positions = layout.positions
    best = Fraction(0)
    witness = (0,) if k >= 1 else ()
    for mask in range(1, 1 << k):
        subset = tuple(j for j in range(k) if mask >> j & 1)
        value = gap_ratio(tuple(positions[j] for j in subset))
        if value > best:
            best = value
            witness = subset
    return Metrics(alpha=best, witness=witness)


def bitmask_alpha_bruteforce(layout):
    xs, _ = layout.scaled
    at_bit = {1 << j: x for j, x in enumerate(xs)}
    best_span, best_gap, best_mask = 0, 1, 1
    for mask in range(1, 1 << layout.k):
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
    witness = tuple(j for j in range(layout.k) if best_mask >> j & 1)
    return Metrics(alpha=Fraction(best_span, best_gap), witness=witness)


def rightmost_rule(layout: ServerLayout) -> PriorityRule:
    """A deliberately bad rule: the rightmost free server.  A request on a
    server it passes over costs something while OPT is 0, which drives the
    grid search's zero-OPT anomaly path."""
    return PriorityRule("rightmost", lambda r, free: max(free))


RULES = (ptcp_rule, greedy_rule, rightmost_rule)


@st.composite
def grid_cases(draw):
    layout = draw(layouts(max_k=3))
    caps = draw(st.lists(st.integers(1, 2), min_size=layout.k, max_size=layout.k))
    on_servers = st.sampled_from(layout.positions)
    quarter_grid = st.integers(-4, 4 * 12 + 4).map(lambda t: Fraction(t, 4))
    thirds = st.integers(-3, 3 * 12 + 3).map(lambda t: Fraction(t, 3))
    points = draw(
        st.lists(st.one_of(on_servers, quarter_grid, thirds), min_size=0, max_size=5, unique=True)
    )
    n_max = draw(st.integers(0, 4))
    return Instance(layout, tuple(caps)), tuple(sorted(points)), n_max


class TestGridSearch:
    @settings(max_examples=150, deadline=None)
    @given(grid_cases(), st.sampled_from(RULES))
    def test_matches_the_per_node_fraction_loop(self, case, builder):
        inst, points, n_max = case
        rule = builder(inst.layout)
        assert grid_search_max_rate(rule, inst, points, n_max) == reference_grid_search(
            rule, inst, points, n_max
        )

    def test_unsorted_and_repeated_points(self, monkeypatch):
        # The memo weighs point i by (depth + 1)**i and extends multisets
        # in index order, so only strictly increasing points are walked.
        import ofal.verify

        def no_fill(*args):
            raise AssertionError("memo filled before the points were checked")

        monkeypatch.setattr(ofal.verify, "multiset_optima", no_fill)
        layout = ServerLayout((Fraction(0), Fraction(1), Fraction(3)))
        rule = ptcp_rule(layout)
        inst = Instance(layout, (2, 2, 2))
        for points in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1), Fraction(1))):
            with pytest.raises(ValidationError, match="^grid search points must be strictly increasing$"):
                grid_search_max_rate(rule, inst, points, 2)

    def test_seeded_sweep_of_increasing_points(self):
        # Hypothesis may go many runs without a case that tells two
        # multisets apart, so this sweep is seeded and wide.
        rng = random.Random(15)
        for case in range(2100):
            k = rng.randint(1, 3)
            ticks = sorted(rng.sample(range(-8, 25), k))
            den = rng.choice((1, 2, 3))
            layout = ServerLayout(tuple(Fraction(t, den) for t in ticks))
            inst = Instance(layout, tuple(rng.randint(1, 2) for _ in range(k)))
            pool = (*layout.positions, *(Fraction(t, 4) for t in range(-8, 4 * 8 + 8)))
            points = tuple(sorted(set(rng.choice(pool) for _ in range(rng.randint(0, 5)))))
            n_max = rng.randint(0, 4)
            rule = RULES[case % len(RULES)](layout)
            assert grid_search_max_rate(rule, inst, points, n_max) == reference_grid_search(
                rule, inst, points, n_max
            ), (layout, inst.capacities, points, n_max, rule.id)

    def test_zero_optimum_grid(self):
        # Every point on a server and capacities above one: most states
        # cost the optimum nothing, so the rate-1 updates and, for the bad
        # rule, the anomaly list (in walk order) carry the result.
        layout = ServerLayout((Fraction(0), Fraction(1), Fraction(3)))
        inst = Instance(layout, (2, 3, 2))
        points = (Fraction(0), Fraction(1), Fraction(3))
        results = {}
        for builder in RULES:
            rule = builder(layout)
            got = grid_search_max_rate(rule, inst, points, 4)
            assert got == reference_grid_search(rule, inst, points, 4)
            results[rule.id] = got
        # The nearest free server is always optimal here, so the first
        # zero-cost state gives the rate 1 and no later state beats it.
        for rule_id in ("ptcp", "greedy"):
            assert results[rule_id].best_rate == 1 and results[rule_id].best_sequence == (Fraction(0),)
            assert not results[rule_id].zero_opt_anomalies
        assert len(results["rightmost"].zero_opt_anomalies) == 95

    def test_candidate_grids(self):
        # Tie-heavy grids from the split tree, for every rule; the bad rule
        # must reach the zero-OPT anomaly path here.
        anomalies = 0
        for positions, caps in (((0, 1), (2, 1)), ((0, 1, 3), (1, 2, 1)), ((0, 2, 4, 8), (1, 1, 1, 1))):
            layout = ServerLayout(tuple(Fraction(p) for p in positions))
            inst = Instance(layout, caps)
            points = candidate_points(layout, include_offsets=False)
            for builder in RULES:
                rule = builder(layout)
                got = grid_search_max_rate(rule, inst, points, 3)
                assert got == reference_grid_search(rule, inst, points, 3)
                anomalies += len(got.zero_opt_anomalies)
        assert anomalies > 0


class TestMultisetOptima:
    def test_every_multiset_matches_the_dp(self):
        # Each child row holds, for every point x, the optimum of its
        # multiset plus x; capacities above the depth and repeated points
        # exercise the slot bound and equal positions.
        rng = random.Random(1515)
        for _ in range(300):
            k = rng.randint(1, 4)
            servers = sorted(rng.sample(range(-30, 31), k))
            caps = [rng.choice((1, 1, 2, 3, 10**12)) for _ in range(k)]
            points = sorted(rng.randint(-40, 40) for _ in range(rng.randint(1, 5)))
            depth = min(rng.randint(1, 4), sum(caps))
            rows, weight, _ = multiset_optima(servers, caps, points, depth)
            expected = {}
            for d in range(depth):
                for combo in combinations_with_replacement(range(len(points)), d):
                    key = sum(weight[x] for x in combo)
                    expected[key] = tuple(
                        windowed_dp_cost_ints(servers, caps, [points[y] for y in (*combo, x)])
                        for x in range(len(points))
                    )
            assert rows == expected

    def test_child_rows_match_the_flat_fill(self):
        # Depth 0 and depth equal to the total capacity: every child row
        # reads the flat fill's optimum of its multiset plus each point.
        rng = random.Random(2424)
        for case in range(400):
            k = rng.randint(1, 3)
            servers = sorted(rng.sample(range(-30, 31), k))
            caps = [rng.randint(1, 3) for _ in range(k)]
            points = sorted(rng.sample(range(-40, 41), rng.randint(0, 5)))
            depth = sum(caps) if case % 4 == 0 else rng.randint(0, min(4, sum(caps)))
            rows, weight, dist = multiset_optima(servers, caps, points, depth)
            optima, expected_weight = reference_multiset_optima(servers, caps, points, depth)
            assert weight == expected_weight
            assert dist == [[abs(p - s) for s in servers] for p in points]
            expected = {}
            for d in range(depth):
                for combo in combinations_with_replacement(range(len(points)), d):
                    key = sum(weight[x] for x in combo)
                    expected[key] = tuple(optima[key + w] for w in weight)
            assert rows == expected, (servers, caps, points, depth)

    def test_no_depth_no_table(self):
        assert multiset_optima([0, 5], [1, 1], [1, 2], 0)[0] == {}


class TestSubsetScan:
    def test_mixed_denominators(self):
        rng = random.Random(20231)
        for _ in range(300):
            k = rng.randint(1, 9)
            points = {Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 5, 7, 12))) for _ in range(k)}
            layout = ServerLayout(tuple(sorted(points)))
            assert alpha_bruteforce(layout) == reference_alpha_bruteforce(layout)

    def test_every_layout_on_a_small_integer_grid(self):
        # Equal gaps make ties frequent, so this pins the first-maximiser witness.
        for mask in range(1, 1 << 8):
            layout = ServerLayout(tuple(Fraction(i) for i in range(8) if mask >> i & 1))
            assert alpha_bruteforce(layout) == reference_alpha_bruteforce(layout)

    def test_matches_the_bitmask_walk(self):
        # Ten layouts of each size up to 13, alternately tie-heavy (gaps
        # from {1, 2, 3}) and rationals with mixed denominators.
        rng = random.Random(1984)
        for c in range(130):
            k = 1 + c % 13
            if c % 2:
                points = [Fraction(rng.randint(-5, 5))]
                for _ in range(k - 1):
                    points.append(points[-1] + rng.choice((1, 2, 3)))
            else:
                points = {Fraction(rng.randint(-90, 90), rng.choice((1, 2, 3, 5, 7))) for _ in range(k)}
            layout = ServerLayout(tuple(sorted(points)))
            assert alpha_bruteforce(layout) == bitmask_alpha_bruteforce(layout), layout.positions

    def test_largest_guarded_size_matches_the_split_blocks(self):
        rng = random.Random(2020)
        points = set()
        while len(points) < BRUTEFORCE_MAX_K:
            points.add(Fraction(rng.randint(0, 10**6)))
        layout = ServerLayout(tuple(sorted(points)))
        metrics = alpha_bruteforce(layout)
        assert metrics.alpha == alpha_fast(layout).alpha
        assert gap_ratio(tuple(layout.positions[j] for j in metrics.witness)) == metrics.alpha
