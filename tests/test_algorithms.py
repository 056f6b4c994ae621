import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ofal.algorithms import (
    RULE_BUILDERS,
    gap_table,
    split_blocks,
    greedy_rule,
    guard_rule,
    ptcp_rule,
    tree_to_dict,
)
from ofal.alpha import alpha_fast, gap_ratio
from ofal.core import ServerLayout, ValidationError, unit_instance
from ofal.engine import simulate

from conftest import (
    check_trace,
    derive_priority_order,
    gap_table_by_split,
    layout_of,
    layouts,
    reference_split_rows,
    rows_by_split,
    seq_of,
)


class TestSplitTree:
    def test_two_servers_symmetric(self):
        layout = layout_of(0, 2)
        assert gap_table(layout) == (((1, 1),), (1,))
        data = tree_to_dict(layout)
        assert [data[key] for key in ("split_after", "gap", "delta1", "delta2", "x", "critical")] == [
            0, "2", "0", "0", "1", "1"
        ]

    def test_three_servers_asymmetric(self):
        # Gap (1,3) dominates; x = 2*(0+2)/((1+2)+(0+2)) = 4/5.  Gap 0
        # splits the block 0..1, whose critical point is its midpoint.
        layout = layout_of(0, 1, 3)
        assert gap_table(layout) == (((1, 2), (9, 5)), (1, 2))
        data = tree_to_dict(layout)
        assert (data["split_after"], data["gap"], data["delta1"], data["delta2"]) == (1, "2", "1", "0")
        assert data["x"] == "4/5" and data["critical"] == "9/5"
        assert (data["left"]["lo"], data["left"]["hi"], data["left"]["critical"]) == (0, 1, "1/2")
        assert data["left"]["left"]["server"] == 0 and data["left"]["right"]["server"] == 1
        assert data["right"] == {"server": 2, "position": "3"}

    def test_single_server_leaf(self):
        layout = layout_of(5)
        assert gap_table(layout) == ((), ())
        assert tree_to_dict(layout) == {"server": 0, "position": "5"}
        assert ptcp_rule(layout).decide(Fraction(7), (0,)) == 0

    def test_max_gap_tie_breaks_left(self):
        # Both gaps are 1; the leftmost split wins, so gap 0 splits the
        # whole line and gap 1 reaches its end.
        assert gap_table(layout_of(0, 1, 2)) == (((2, 3), (3, 2)), (2, 2))
        assert tree_to_dict(layout_of(0, 1, 2))["split_after"] == 0

    def test_deep_path_of_evenly_spaced_servers(self):
        # 1500 evenly spaced servers: every block splits after its leftmost
        # server, so the tree is a path 1499 blocks deep, and every gap
        # reaches the last server.
        layout = ServerLayout(tuple(Fraction(i) for i in range(1500)))
        critical, reach = gap_table(layout)
        assert reach == (1499,) * 1499
        # Block a..1499 splits at a: Delta1 = 0, D = 1, Delta2 = 1498 - a.
        assert all(Fraction(*c) == a + Fraction(1499 - a, 1500 - a) for a, c in enumerate(critical))
        decide = ptcp_rule(layout).decide
        for left, right in ((0, 1), (0, 1499), (700, 701), (1498, 1499)):
            c = Fraction(*critical[left])
            assert decide(c, (left, right)) == left
            assert decide(c + Fraction(1, 10**6), (left, right)) == right
        free = tuple(range(0, 1500, 3))
        points = [Fraction(i, 2) for i in range(3000)]
        assert ptcp_rule(layout).picks(points)(free) == [decide(p, free) for p in points]

    @given(layouts(min_k=2, max_k=8))
    @settings(max_examples=120, deadline=None)
    def test_node_invariants(self, layout):
        positions = layout.positions
        alpha = alpha_fast(layout).alpha
        rows = reference_split_rows(layout)
        assert gap_table_by_split(layout) == rows_by_split(rows)
        for lo, hi, a, d, delta1, delta2, x, critical in rows:
            if a is None:
                continue
            window = positions[lo : hi + 1]
            gaps = [q - p for p, q in zip(window, window[1:])]
            assert d == max(gaps)
            assert 0 < x < d
            assert positions[a] < critical < positions[a + 1]
            # The block's stretch value in terms of its split data.
            l_node = gap_ratio(window)
            assert d * l_node == delta1 + delta2 + d
            # The exact algebra the competitive argument rests on: both
            # boundary expressions collapse to 2*L + 1 at the chosen x.
            assert (2 * delta1 + d + x) / (d - x) == 2 * l_node + 1
            assert (2 * delta2 + 2 * d - x) / x == 2 * l_node + 1
            assert (2 * d - x) / x <= 2 * l_node + 1
            assert (d + x) / (d - x) <= 2 * l_node + 1
            assert 2 * l_node + 1 <= 2 * alpha + 1

    def test_tree_dump_shape(self):
        data = tree_to_dict(layout_of(0, 1, 3))
        assert data["critical"] == "9/5"
        assert data["right"]["server"] == 2


def reference_split_blocks(ints):
    """The max-scan build that ``split_blocks`` replaced: each block is
    scanned for its leftmost maximum gap, O(k * depth) in all."""
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


def reference_per_gap(ints):
    """(lo, hi) by gap a, read off the internal rows of the max scan."""
    lo, hi = [None] * (len(ints) - 1), [None] * (len(ints) - 1)
    for first, last, a in reference_split_blocks(ints):
        if a is not None:
            lo[a], hi[a] = first, last
    return lo, hi


def check_per_gap(ints, lo, hi):
    """lo[a]..hi[a] is the block that gap a splits at its leftmost maximum:
    the gaps before a inside it are strictly smaller and those after are
    at most gap a, and it is bounded by a gap at least as large on the
    left and a strictly larger one on the right, or by an end."""
    gaps = [b - a for a, b in zip(ints, ints[1:])]
    k = len(ints)
    assert len(lo) == len(hi) == k - 1
    for a, g in enumerate(gaps):
        assert 0 <= lo[a] <= a < hi[a] <= k - 1, (ints, a)
        assert all(gaps[j] < g for j in range(lo[a], a)), (ints, a)
        assert all(gaps[j] <= g for j in range(a + 1, hi[a])), (ints, a)
        assert lo[a] == 0 or gaps[lo[a] - 1] >= g, (ints, a)
        assert hi[a] == k - 1 or gaps[hi[a]] > g, (ints, a)


class TestSplitBlocks:
    """The per-gap arrays of the Cartesian-tree build against the max scan
    it replaced, and against their definition."""

    @staticmethod
    def check(ints):
        lo, hi = split_blocks(ints)
        assert (lo, hi) == reference_per_gap(ints), ints
        check_per_gap(ints, lo, hi)
        return lo, hi

    def test_tie_heavy_layouts(self):
        rng = random.Random(1980)
        for _ in range(2000):
            ints = [rng.randint(-5, 5)]
            for _ in range(rng.randint(0, 15)):
                ints.append(ints[-1] + rng.choice((1, 2, 3)))
            self.check(ints)

    def test_every_layout_on_a_nine_point_grid(self):
        for mask in range(1, 1 << 9):
            self.check([i for i in range(9) if mask >> i & 1])

    def test_evenly_spaced_servers_form_a_path(self):
        # Every block splits off its leftmost server: depth k - 1.
        ints = list(range(2000))
        lo, hi = self.check(ints)
        assert lo == list(range(1999)) and hi == [1999] * 1999
        # gap_table keyed by split: gap a reaches its block's end hi, and
        # its block has Delta1 = 0, D = 1 and Delta2 + D = hi - a.
        critical, reach = gap_table(ServerLayout(tuple(map(Fraction, ints))))
        assert [(reach[a], Fraction(*critical[a])) for a in range(1999)] == [
            (hi[a], a + Fraction(hi[a] - a, 1 + (hi[a] - a))) for a in range(1999)
        ]


class TestSplitRuleDecisions:
    def test_boundary_goes_left(self):
        decide = ptcp_rule(layout_of(0, 2)).decide
        assert decide(Fraction(1), (0, 1)) == 0

    def test_only_free_server_wins(self):
        decide = ptcp_rule(layout_of(0, 2)).decide
        assert decide(Fraction(1, 10), (1,)) == 1

    def test_recursive_descent(self):
        decide = ptcp_rule(layout_of(0, 1, 3)).decide
        full = (0, 1, 2)
        assert decide(Fraction(17, 10), full) == 1
        assert decide(Fraction(19, 10), full) == 2
        assert decide(Fraction(9, 5), full) == 1  # exactly critical

    @given(layouts(min_k=1, max_k=7))
    @settings(max_examples=60, deadline=None)
    def test_decide_returns_free_server(self, layout):
        import itertools

        decide = ptcp_rule(layout).decide
        k = layout.k
        for size in range(1, k + 1):
            for combo in itertools.islice(itertools.combinations(range(k), size), 12):
                free = combo
                r = layout.positions[0] + Fraction(1, 3)
                assert decide(r, free) in free


class TestGreedy:
    def test_nearest_and_cascade(self):
        decide = greedy_rule(layout_of(0, 2, 4, 8)).decide
        delta = Fraction(1, 100)
        assert decide(2 + delta, (0, 1, 2, 3)) == 1
        assert decide(2 + delta, (0, 2, 3)) == 2

    def test_tie_breaks_left(self):
        assert greedy_rule(layout_of(0, 2)).decide(Fraction(1), (0, 1)) == 0

    def test_singleton(self):
        assert greedy_rule(layout_of(0, 2)).decide(Fraction(100), (0,)) == 0


class TestGuardRule:
    def setup_method(self):
        self.layout = layout_of(0, 1)
        self.rule, self.extended = guard_rule(
            ptcp_rule(self.layout), self.layout, d=Fraction(3), x=Fraction(1)
        )

    def test_extended_layout(self):
        assert self.extended.positions == (0, 1, 4)

    def test_threshold_boundary_uses_base(self):
        # r == s_k + x with base servers free: base rule decides.
        assert self.rule.decide(Fraction(2), (0, 1, 2)) in (0, 1)

    def test_all_base_full_falls_through(self):
        assert self.rule.decide(Fraction(0), (2,)) == 2

    def test_new_server_full_falls_back(self):
        assert self.rule.decide(Fraction(4), (0, 1)) == 1

    def test_right_of_threshold_prefers_new_server(self):
        assert self.rule.decide(Fraction(5, 2), (0, 1, 2)) == 2

    def test_invalid_offset_rejected(self):
        with pytest.raises(ValidationError):
            guard_rule(ptcp_rule(self.layout), self.layout, d=Fraction(1), x=Fraction(1))

    def test_guarded_rule_simulates(self):
        inst = unit_instance(self.extended)
        seq = seq_of("3/2", "7/2", "1/4")
        check_trace(simulate(self.rule, inst, seq), inst, seq)

    def test_guarded_rule_is_priority_consistent(self):
        for r in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 2), Fraction(5)):
            derive_priority_order(self.rule, r, self.extended.k, consistency_trials=300)


class TestRuleRegistry:
    def test_rule_builders(self):
        layout = layout_of(0, 1)
        assert RULE_BUILDERS["ptcp"](layout).id == "ptcp"
        assert RULE_BUILDERS["greedy"](layout).id == "greedy"
