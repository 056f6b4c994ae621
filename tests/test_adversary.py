import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.adversary import (
    OFFSET_DEN,
    AdversaryParams,
    candidate_points,
    greedy_adversary,
    greedy_params,
    permutation_adversary,
    permutation_geometric_layout,
    permutation_params,
    random_rational,
    random_sequences,
)
from ofal.algorithms import greedy_rule, ptcp_rule
from ofal.core import Instance, ServerLayout, ValidationError, compute_rate, unit_instance, validate_pair
from ofal.engine import simulate
from ofal.offline import noncrossing_dp_cost, optimal_cost
from ofal.permutation import permutation_run
from ofal.verify import check_opposite

from conftest import layout_of, layouts, reference_split_rows


class TestGreedyFamily:
    def test_delta_selection(self):
        # k*d/(1+k*d) <= eps*2^-k, i.e. d <= eps/(k*(2^k - eps)): the
        # largest power of a tenth below 1/636 is 1/1000.
        assert greedy_params(4, Fraction(1, 10)).delta == Fraction(1, 1000)
        assert greedy_params(8, Fraction(1, 10)).delta == Fraction(1, 100000)

    def test_layout_and_sequence(self):
        params = greedy_params(4, Fraction(1, 10))
        inst, seq = greedy_adversary(params)
        assert inst.layout.positions == (0, 2, 4, 8)
        d = params.delta
        assert seq.requests == (1 + d, 2 + d, 4 + d, 8 + d)
        assert validate_pair(inst, seq) is None

    def test_prefill_with_capacities(self):
        params = greedy_params(3, Fraction(1, 10), capacity=2)
        inst, seq = greedy_adversary(params)
        assert len(seq) == 3 + 3  # one warm-up per server plus the cascade
        assert seq.requests[:3] == (0, 2, 4)

    def test_cascade_pattern(self):
        for capacity in (1, 2):
            params = greedy_params(4, Fraction(1, 10), capacity=capacity)
            inst, seq = greedy_adversary(params)
            trace = simulate(greedy_rule(inst.layout), inst, seq)
            prefill = sum(c - 1 for c in inst.capacities)
            tail = trace.assignment[prefill:]
            # Each cascading request i is pushed to server i+1; the last
            # one walks back to the leftmost server.
            assert tail == (1, 2, 3, 0)

    def test_measured_rates(self):
        for k in (3, 5):
            params = greedy_params(k, Fraction(1, 10))
            inst, seq = greedy_adversary(params)
            trace = simulate(greedy_rule(inst.layout), inst, seq)
            opt = noncrossing_dp_cost(inst, seq)
            rate = compute_rate(trace.total_cost, opt)
            d = params.delta
            assert rate >= Fraction(2**k - 1 - k * d, 1) / (1 + k * d)
            assert rate >= 2**k - 1 - Fraction(1, 10)
            split = simulate(ptcp_rule(inst.layout), inst, seq)
            assert compute_rate(split.total_cost, opt) <= 5

    def test_delta_validation(self):
        bad = AdversaryParams(k=3, delta=Fraction(3, 2), capacities=(1,) * 3)
        with pytest.raises(ValidationError):
            greedy_adversary(bad)
        with pytest.raises(ValidationError):
            greedy_params(1, Fraction(1, 10))


class TestPermutationFamily:
    def test_layout_values(self):
        layout = permutation_geometric_layout(2, Fraction(1, 100))
        assert layout.positions == (
            Fraction(-101, 100),
            Fraction(-1),
            Fraction(1),
            Fraction(101, 100),
        )

    def test_request_offsets(self):
        params = permutation_params(2, Fraction(1, 10))
        assert params.delta == Fraction(1, 100)
        inst, seq = permutation_adversary(params)
        d = params.delta
        # eps_1 = 2^-4 * d^2/(1-d) with the first request at -eps_1.
        eps1 = Fraction(1, 16) * d**2 / (1 - d)
        assert seq.requests[0] == -eps1

    def test_replay_pattern_and_rates(self):
        for k in (1, 2, 4):
            params = permutation_params(k, Fraction(1, 10))
            inst, seq = permutation_adversary(params)
            trace = permutation_run(inst, seq)
            expected = []
            for i in range(1, k + 1):
                expected.extend([k - i, k + i - 1])
            assert list(trace.assignment) == expected
            opt = noncrossing_dp_cost(inst, seq)
            assert opt <= 1 / (1 - params.delta)
            assert compute_rate(trace.total_cost, opt) >= 4 * k - 1 - Fraction(1, 10)
            split = simulate(ptcp_rule(inst.layout), inst, seq)
            assert compute_rate(split.total_cost, opt) <= 3 + Fraction(1, 10)

    def test_delta_validation(self):
        bad = AdversaryParams(k=2, delta=Fraction(1, 2), capacities=(1,) * 4)
        with pytest.raises(ValidationError):
            permutation_adversary(bad)


class TestRandomFamilies:
    @given(
        st.fractions(max_denominator=10**6),
        st.fractions(min_value=0, max_denominator=10**6),
        st.integers(min_value=1, max_value=2048),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_rational_matches_three_fraction_form(self, lo, width, den, seed):
        hi = lo + width
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            value = random_rational(ours, lo, hi, den)
            assert value == lo + Fraction(ref.randint(0, den), den) * (hi - lo)
            assert type(value) is Fraction and lo <= value <= hi
        assert ours.getstate() == ref.getstate()

    def test_seed_determinism(self):
        inst = unit_instance(layout_of(0, 1, 3))
        a = list(random_sequences(inst, 3, seed=7, count=5))
        b = list(random_sequences(inst, 3, seed=7, count=5))
        assert a == b

    def test_empty_sequences(self):
        inst = unit_instance(layout_of(0, 1))
        (seq,) = list(random_sequences(inst, 0, seed=1, count=1))
        assert len(seq) == 0

    def test_unknown_distribution(self):
        inst = unit_instance(layout_of(0, 1))
        with pytest.raises(ValidationError):
            next(random_sequences(inst, 1, seed=0, distribution="cauchy"))

    def test_length_guard(self):
        inst = unit_instance(layout_of(0, 1))
        with pytest.raises(ValidationError):
            next(random_sequences(inst, 3, seed=0))

    def test_opposite_bias_calibration(self):
        # At least half of the biased stream classifies opposite for the
        # split-tree rule (measured 52-82 percent on these layouts).
        for positions in [(0, 1), (0, 1, 3)]:
            layout = layout_of(*positions)
            inst = unit_instance(layout)
            rule = ptcp_rule(layout)
            hits = 0
            total = 100
            for seq in random_sequences(inst, inst.total_capacity, seed=42, distribution="opposite", count=total):
                trace = simulate(rule, inst, seq)
                opt = optimal_cost(inst, seq)
                hits += check_opposite(trace, opt, seq, layout).opposite
            assert hits >= total // 2

    def test_generated_sequences_fit(self):
        inst = Instance(layout_of(0, 1, 3), (2, 1, 1))
        for dist in ("uniform", "mixture", "opposite"):
            for seq in random_sequences(inst, 4, seed=3, distribution=dist, count=5):
                assert validate_pair(inst, seq) is None


def reference_candidate_points(layout, include_offsets=True):
    """The two-loop version ``candidate_points`` replaced: the critical
    point of every block of a reference split tree, then the midpoint of
    every adjacent gap, each nudged by gap/OFFSET_DEN when asked."""
    positions = layout.positions
    lo, hi = positions[0], positions[-1]
    points = set(positions)
    for _, _, a, gap, _, _, _, crit in reference_split_rows(layout):
        if a is not None:
            points.add(crit)
            if include_offsets:
                points.update((crit - gap / OFFSET_DEN, crit + gap / OFFSET_DEN))
    for a, b in zip(positions, positions[1:]):
        gap = b - a
        mid = (a + b) / 2
        points.add(mid)
        if include_offsets:
            points.update((mid - gap / OFFSET_DEN, mid + gap / OFFSET_DEN, a + gap / OFFSET_DEN, b - gap / OFFSET_DEN))
    return tuple(sorted(p for p in points if lo <= p <= hi))


class TestGrids:
    @given(layouts(max_k=10), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_candidate_points_match_the_two_loop_version(self, layout, offsets):
        assert candidate_points(layout, include_offsets=offsets) == reference_candidate_points(layout, offsets)

    def test_candidate_points_on_every_layout_of_a_small_grid(self):
        # Equal gaps put critical points, midpoints and nudges together.
        for mask in range(1, 1 << 7):
            layout = ServerLayout(tuple(Fraction(i) for i in range(7) if mask >> i & 1))
            for offsets in (False, True):
                assert candidate_points(layout, offsets) == reference_candidate_points(layout, offsets), mask

    def test_candidate_points_k2(self):
        pts = candidate_points(layout_of(0, 1))
        assert pts == (
            Fraction(0),
            Fraction(1, 16),
            Fraction(7, 16),
            Fraction(1, 2),
            Fraction(9, 16),
            Fraction(15, 16),
            Fraction(1),
        )

    def test_candidate_points_cover_critical_points(self):
        pts = candidate_points(layout_of(0, 1, 3), include_offsets=False)
        assert Fraction(9, 5) in pts  # root critical point
        assert Fraction(1, 2) in pts  # left subtree critical point and midpoint
        assert Fraction(2) in pts  # right-gap midpoint
