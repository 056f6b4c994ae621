import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ofal.algorithms import (
    RULE_BUILDERS,
    SplitTree,
    build_split_tree,
    split_blocks,
    greedy_rule,
    guard_rule,
    ptcp_rule,
    split_geometry,
    tree_to_dict,
)
from ofal.alpha import alpha_fast, gap_ratio
from ofal.core import ServerLayout, ValidationError, unit_instance
from ofal.engine import simulate

from conftest import check_trace, derive_priority_order, layout_of, layouts, seq_of


class TestSplitTree:
    def test_two_servers_symmetric(self):
        layout = layout_of(0, 2)
        tree = build_split_tree(layout)
        assert tree.split[0] == 0
        assert split_geometry(tree, 0, layout) == (2, 0, 0, 1, 1)
        assert tree.critical[0] == (1, 1)

    def test_three_servers_asymmetric(self):
        # Gap (1,3) dominates; x = 2*(0+2)/((1+2)+(0+2)) = 4/5.
        layout = layout_of(0, 1, 3)
        tree = build_split_tree(layout)
        d, delta1, delta2, x, critical = split_geometry(tree, 0, layout)
        assert (tree.split[0], d, delta1, delta2) == (1, 2, 1, 0)
        assert x == Fraction(4, 5)
        assert critical == Fraction(9, 5) and tree.critical[0] == (9, 5)
        # Preorder: root, its left block (0..1) and that block's two
        # leaves, then the right leaf (2) at index right[0].
        assert tree.hi[1] == 1 and tree.right[0] == 4
        assert tree.lo[4] == tree.hi[4] == 2 and tree.split[4] is None

    def test_single_server_leaf(self):
        tree = build_split_tree(layout_of(5))
        assert tree == SplitTree(lo=(0,), hi=(0,), split=(None,), right=(None,), critical=(None,))
        with pytest.raises(ValidationError):
            split_geometry(tree, 0, layout_of(5))

    def test_max_gap_tie_breaks_left(self):
        tree = build_split_tree(layout_of(0, 1, 2))
        assert tree.split[0] == 0  # both gaps are 1; leftmost split wins

    def test_deep_tree_compares_hashes_and_prints(self):
        # 1500 evenly spaced servers: every block splits after its leftmost
        # server, so the tree is a path 1499 blocks deep.
        layout = ServerLayout(tuple(Fraction(i) for i in range(1500)))
        a, b = build_split_tree(layout), build_split_tree(layout)
        assert a == b and hash(a) == hash(b)
        assert repr(a).startswith("SplitTree(")
        assert a.split[:3] == (0, None, 1) and a.right[:3] == (2, None, 4)

    @given(layouts(min_k=2, max_k=8))
    @settings(max_examples=120, deadline=None)
    def test_node_invariants(self, layout):
        positions = layout.positions
        alpha = alpha_fast(layout).alpha
        tree = build_split_tree(layout)
        for i, a in enumerate(tree.split):
            if a is None:
                continue
            d, delta1, delta2, x, critical = split_geometry(tree, i, layout)
            window = positions[tree.lo[i] : tree.hi[i] + 1]
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
        layout = layout_of(0, 1, 3)
        data = tree_to_dict(build_split_tree(layout), layout)
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


class TestSplitBlocks:
    """The Cartesian-tree build against the max scan it replaced."""

    def test_tie_heavy_layouts(self):
        rng = random.Random(1980)
        for _ in range(2000):
            ints = [rng.randint(-5, 5)]
            for _ in range(rng.randint(0, 15)):
                ints.append(ints[-1] + rng.choice((1, 2, 3)))
            assert list(split_blocks(ints)) == list(reference_split_blocks(ints)), ints

    def test_every_layout_on_a_nine_point_grid(self):
        for mask in range(1, 1 << 9):
            ints = [i for i in range(9) if mask >> i & 1]
            assert list(split_blocks(ints)) == list(reference_split_blocks(ints)), ints

    def test_evenly_spaced_servers_form_a_path(self):
        # Every block splits off its leftmost server: depth k - 1.
        ints = list(range(2000))
        blocks = list(split_blocks(ints))
        assert blocks == list(reference_split_blocks(ints))
        assert [b for b in blocks if b[2] is not None] == [(lo, 1999, lo) for lo in range(1999)]


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
