import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.alpha import (
    Metrics,
    alpha_bruteforce,
    alpha_fast,
    aspect_ratio,
    gap_ratio,
)
from ofal.core import ServerLayout, SizeGuardError

from conftest import internal_blocks, layout_of, layouts


def interval_scan(layout: ServerLayout) -> Metrics:
    """The O(k^2) scan over all contiguous intervals that ``alpha_fast``
    was before it read the split blocks: the first maximizing (i, j) in
    lexicographic order wins, by strict cross products."""
    xs, _ = layout.scaled
    k = len(xs)
    best_span, best_gap, best_i, best_j = 0, 1, 0, 0
    for i in range(k):
        max_gap = 0
        for j in range(i + 1, k):
            max_gap = max(max_gap, xs[j] - xs[j - 1])
            span = xs[j] - xs[i]
            if span * best_gap > best_span * max_gap:
                best_span, best_gap, best_i, best_j = span, max_gap, i, j
    return Metrics(alpha=Fraction(best_span, best_gap), witness=tuple(range(best_i, best_j + 1)))


def seeded_layouts(seed: int, count: int, max_k: int):
    """Two thirds tie-heavy (integer gaps drawn from {1, 2, 3}), one third
    generic rationals with mixed denominators."""
    rng = random.Random(seed)
    for c in range(count):
        k = rng.randint(1, max_k)
        if c % 3:
            points = [rng.randint(-5, 5)]
            for _ in range(k - 1):
                points.append(points[-1] + rng.choice((1, 2, 3)))
            yield ServerLayout(tuple(Fraction(p) for p in points))
        else:
            points = {Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 5, 7))) for _ in range(k)}
            yield ServerLayout(tuple(sorted(points)))


class TestGapRatio:
    def test_evenly_spaced_four(self):
        assert gap_ratio(layout_of(0, 1, 2, 3)) == 3

    def test_singleton_is_zero(self):
        assert gap_ratio(layout_of(0)) == 0

    def test_exponential(self):
        assert gap_ratio(layout_of(0, 2, 4, 8)) == 2  # span 8, max gap 4


class TestAlphaBruteforce:
    def test_exponential_layout(self):
        assert alpha_bruteforce(layout_of(0, 2, 4, 8)).alpha == 2

    def test_two_servers(self):
        assert alpha_bruteforce(layout_of(0, 1)).alpha == 1

    def test_evenly_spaced_five(self):
        assert alpha_bruteforce(layout_of(0, 1, 2, 3, 4)).alpha == 4

    def test_clustered_pairs(self):
        # Enumerating all subsets by hand: the full set wins with 11/9.
        assert alpha_bruteforce(layout_of(0, 1, 10, 11)).alpha == Fraction(11, 9)

    def test_size_guard(self):
        big = ServerLayout(tuple(Fraction(i) for i in range(21)))
        with pytest.raises(SizeGuardError):
            alpha_bruteforce(big)


class TestAlphaFast:
    @pytest.mark.parametrize(
        "positions,expected",
        [((0, 2, 4, 8), 2), ((0, 1), 1), ((0, 1, 2, 3, 4), 4), ((0, 1, 10, 11), Fraction(11, 9)), ((0,), 0)],
    )
    def test_frozen_values(self, positions, expected):
        assert alpha_fast(layout_of(*positions)).alpha == expected

    @given(layouts(max_k=9))
    @settings(max_examples=150, deadline=None)
    def test_matches_subset_oracle(self, layout):
        assert alpha_fast(layout).alpha == alpha_bruteforce(layout).alpha

    def test_witness_is_lexicographically_first(self):
        metrics = alpha_fast(layout_of(0, 2, 4, 8))
        # (0..2) ties with (0..3) at ratio 2; the earlier interval wins.
        assert metrics.witness == (0, 1, 2)
        check = tuple(layout_of(0, 2, 4, 8).positions[j] for j in metrics.witness)
        assert gap_ratio(check) == metrics.alpha

    def test_witness_tie_with_a_later_block(self):
        # Gaps 2, 1, 1: the root (0..3) and its right child (1..3) both
        # reach 2; the root comes first in gap order and in lexicographic
        # order, so a later tying block must not replace it.
        metrics = alpha_fast(layout_of(0, 2, 3, 4))
        assert metrics == Metrics(alpha=Fraction(2), witness=(0, 1, 2, 3))

    def test_matches_the_interval_scan(self):
        checked = 0
        for layout in seeded_layouts(seed=41, count=3000, max_k=14):
            assert alpha_fast(layout) == interval_scan(layout), layout.positions
            checked += layout.k > 1
        assert checked > 2500

    def test_single_server(self):
        assert alpha_fast(layout_of(7)) == interval_scan(layout_of(7)) == Metrics(Fraction(0), (0,))

    def test_path_layout(self):
        # Gaps 1, 2, ..., k - 1 strictly increase, so every block splits
        # off its last server and the tree is a path of depth k - 1: gap a
        # splits the block 0..a + 1.
        k = 300
        layout = layout_of(*(i * (i + 1) // 2 for i in range(k)))
        assert internal_blocks(layout) == [(0, a + 1, a) for a in range(k - 1)]
        assert alpha_fast(layout) == interval_scan(layout) == Metrics(Fraction(k, 2), tuple(range(k)))

    @given(layouts(max_k=8))
    @settings(max_examples=100, deadline=None)
    def test_metrics_invariants(self, layout):
        metrics = alpha_fast(layout)
        assert metrics.alpha >= gap_ratio(layout)
        assert metrics.alpha >= 0
        assert (metrics.alpha == 0) == (layout.k <= 1)


class TestStructuralProperties:
    @given(layouts(min_k=2, max_k=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_closure_dominates_subset(self, layout, data):
        """The contiguous closure never has a smaller ratio than its subset."""
        size = data.draw(st.integers(min_value=1, max_value=layout.k))
        subset = tuple(sorted(data.draw(
            st.lists(st.integers(0, layout.k - 1), min_size=size, max_size=size, unique=True)
        )))
        closure = tuple(range(min(subset), max(subset) + 1))
        sub_pos = tuple(layout.positions[j] for j in subset)
        clo_pos = tuple(layout.positions[j] for j in closure)
        assert gap_ratio(clo_pos) >= gap_ratio(sub_pos)

    @given(layouts(min_k=2, max_k=7), st.integers(min_value=1, max_value=15))
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_insertion(self, layout, num):
        """A server inserted strictly inside a maximum gap never lowers alpha."""
        gaps = layout.gaps()
        u = max(range(len(gaps)), key=lambda i: gaps[i])
        inside = layout.positions[u] + Fraction(num, 16) * gaps[u]
        if inside in layout.positions:
            return
        grown = ServerLayout(tuple(sorted(layout.positions + (inside,))))
        assert alpha_fast(grown).alpha >= alpha_fast(layout).alpha

    @given(
        layouts(max_k=7),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=-8, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_translate_invariance(self, layout, a, b):
        moved = ServerLayout(tuple(a * p + b for p in layout.positions))
        assert alpha_fast(moved).alpha == alpha_fast(layout).alpha


class TestReporting:
    def test_aspect_ratio(self):
        assert aspect_ratio(layout_of(0, 2, 4, 8)) == 4  # span 8 / min gap 2
        assert aspect_ratio(layout_of(3)) == 0
