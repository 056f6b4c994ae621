import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.adversary import candidate_points, random_rational
from ofal.algorithms import greedy_rule, guard_rule, ptcp_rule
from ofal.alpha import alpha_fast
from ofal.core import (
    INF,
    AssignmentTrace,
    Instance,
    RequestSequence,
    RuleError,
    ServerLayout,
    SizeGuardError,
    ValidationError,
    compute_rate,
    sequence_to_dict,
    unit_instance,
)
from ofal.engine import PriorityRule, simulate
from ofal.offline import OptResult, noncrossing_dp_cost, optimal_cost
from ofal.verify import (
    GRID_SEARCH_MAX_DEPTH,
    PropertyReport,
    RuleBuilder,
    _reproducer,
    adx_bound,
    capacity_insensitivity_probe,
    check_faithful,
    check_opposite,
    check_surrounding_oriented,
    grid_search_max_rate,
    sweep_adx,
)

from conftest import instances, layout_of, rand_requests, seq_of


class TestSurroundingOriented:
    @pytest.mark.parametrize("builder", [ptcp_rule, greedy_rule], ids=["ptcp", "greedy"])
    def test_rules_always_pass(self, builder):
        from ofal.adversary import random_instance

        rng = random.Random(3)
        for trial in range(150):
            inst = random_instance(rng, rng.randint(1, 6), cap_max=2)
            seq = rand_requests(rng, inst, rng.randint(0, min(8, inst.total_capacity)))
            trace = simulate(builder(inst.layout), inst, seq)
            report = check_surrounding_oriented(trace, seq, inst)
            assert report.ok, report.violations

    def test_synthetic_violation_detected(self):
        layout = layout_of(0, 1, 2)
        inst = unit_instance(layout)
        seq = seq_of("1/10")
        forged = AssignmentTrace(
            assignment=(2,),
            remaining_after=((1, 1, 0),),
            per_step_cost=(Fraction(19, 10),),
            total_cost=Fraction(19, 10),
        )
        report = check_surrounding_oriented(forged, seq, inst)
        assert not report.ok
        assert report.violations[0]["step"] == 0


class TestFaithful:
    def test_split_rule_is_faithful(self):
        rng = random.Random(11)
        from ofal.adversary import random_layout

        for _ in range(20):
            layout = random_layout(rng, rng.randint(1, 6))
            inst = unit_instance(layout)
            seq = rand_requests(rng, inst, layout.k)
            report = check_faithful(ptcp_rule, inst, seq, trials=40, seed=rng.randint(0, 99))
            assert report.ok, report.violations

    def test_unchanged_sequence_trivially_identical(self):
        layout = layout_of(0, 1, 3)
        inst = unit_instance(layout)
        seq = seq_of("1/2", 2, "5/2")
        rule = ptcp_rule(layout)
        assert simulate(rule, inst, seq).assignment == simulate(rule, inst, seq).assignment

    def test_guarded_composition_is_faithful(self):
        layout = layout_of(0, 1)
        from ofal.algorithms import guard_rule

        rule, extended = guard_rule(ptcp_rule(layout), layout, d=Fraction(3), x=Fraction(1))
        inst = unit_instance(extended)
        rng = random.Random(5)
        for _ in range(20):
            seq = rand_requests(rng, inst, 3)
            report = check_faithful(lambda _: rule, inst, seq, trials=40, seed=rng.randint(0, 99))
            assert report.ok, report.violations

    def test_capacitated_refused(self):
        inst = Instance(layout_of(0, 1), (2, 1))
        seq = seq_of("1/2")
        with pytest.raises(ValidationError):
            check_faithful(ptcp_rule, inst, seq, trials=5, seed=0)


class TestOpposite:
    def test_between_is_opposite(self):
        layout = layout_of(0, 2)
        trace = AssignmentTrace(
            assignment=(0,), remaining_after=((0, 1),), per_step_cost=(Fraction(1),), total_cost=Fraction(1)
        )
        opt = OptResult(cost=Fraction(1), assignment=(1,))
        assert check_opposite(trace, opt, seq_of(1), layout).opposite

    def test_endpoint_counts_as_between(self):
        layout = layout_of(0, 2)
        trace = AssignmentTrace(
            assignment=(0,), remaining_after=((0, 1),), per_step_cost=(Fraction(0),), total_cost=Fraction(0)
        )
        opt = OptResult(cost=Fraction(0), assignment=(0,))
        assert check_opposite(trace, opt, seq_of(0), layout).opposite

    def test_outside_is_not_opposite(self):
        layout = layout_of(1, 2)
        trace = AssignmentTrace(
            assignment=(0,), remaining_after=((0, 1),), per_step_cost=(Fraction(1),), total_cost=Fraction(1)
        )
        opt = OptResult(cost=Fraction(1), assignment=(1,))
        report = check_opposite(trace, opt, seq_of(0), layout)
        assert not report.opposite and report.failing_indices == (0,)

    def test_verdict_depends_on_which_optimum(self):
        # Two optimal maps of equal cost, one trace, two verdicts: the
        # classification is of a trace against one chosen optimum.
        inst = Instance(layout_of(0, 2), (1, 1))
        seq = seq_of(1, 1)
        trace = simulate(greedy_rule(inst.layout), inst, seq)
        assert trace.assignment == (0, 1)
        maps = [OptResult(cost=Fraction(2), assignment=a) for a in ((0, 1), (1, 0))]
        for opt in maps:
            assert sum(abs(r - inst.layout[j]) for r, j in zip(seq, opt.assignment)) == opt.cost
            assert opt.cost == optimal_cost(inst, seq).cost
        assert [check_opposite(trace, opt, seq, inst.layout).opposite for opt in maps] == [False, True]

    def test_exponential_adversary_classification_for_greedy(self):
        # Replaying and classifying: every cascading request sits between
        # greedy's server and the optimum's, except the last one, which
        # lands right of the whole hull (both matched servers are to its
        # left, under any optimal map).
        from ofal.adversary import AdversaryParams, greedy_adversary

        params = AdversaryParams(k=4, delta=Fraction(1, 100), capacities=(1,) * 4)
        inst, seq = greedy_adversary(params)
        trace = simulate(greedy_rule(inst.layout), inst, seq)
        opt = optimal_cost(inst, seq)
        report = check_opposite(trace, opt, seq, inst.layout)
        assert report.failing_indices == (3,)


class TestRatioBound:
    @given(instances(max_k=6, cap_max=3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_split_rule_within_bound(self, inst, data):
        n = data.draw(st.integers(0, min(inst.total_capacity, 10)))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        seq = rand_requests(rng, inst, n)
        alg_cost = simulate(ptcp_rule(inst.layout), inst, seq).total_cost
        rate = compute_rate(alg_cost, noncrossing_dp_cost(inst, seq))
        bound = 2 * alpha_fast(inst.layout).alpha + 1
        assert rate != INF and rate <= bound, (inst, seq, rate, bound)

    def test_rate_conventions(self):
        inst = unit_instance(layout_of(0, 2))
        seq = seq_of(0, 2)
        alg_cost = simulate(ptcp_rule(inst.layout), inst, seq).total_cost
        opt_cost = noncrossing_dp_cost(inst, seq)
        assert alg_cost == 0 and opt_cost == 0 and compute_rate(alg_cost, opt_cost) == 1


def check_rightmost_shift_bound(
    builder: RuleBuilder,
    layout: ServerLayout,
    d: Fraction,
    x: Fraction,
    trials: int = 200,
    seed: int = 0,
) -> PropertyReport:
    """Moving the rightmost request of an opposite run left onto the
    rightmost free base server changes the guarded rule's cost by at most
    (2*alpha(S)+1) times the move distance."""
    rule, extended = guard_rule(builder(layout), layout, d, x)
    inst = unit_instance(extended)
    factor = 2 * alpha_fast(layout).alpha + 1
    rng = random.Random(seed)
    report = PropertyReport(name="rightmost-shift")
    lo, hi = extended.positions[0], extended.positions[-1]
    k = layout.k
    attempts = 0
    while report.trials < trials and attempts < 200 * trials:
        attempts += 1
        n = rng.randint(1, extended.k)
        pilot = RequestSequence(tuple(random_rational(rng, lo, hi) for _ in range(n)))
        # Resample each pilot request between its online and offline servers;
        # this lands inside the opposite class far more often than uniform.
        p_trace = simulate(rule, inst, pilot)
        p_opt = optimal_cost(inst, pilot)
        seq = RequestSequence(
            tuple(
                random_rational(
                    rng,
                    *sorted(
                        (
                            extended.positions[p_trace.assignment[t]],
                            extended.positions[p_opt.assignment[t]],
                        )
                    ),
                    den=64,
                )
                for t in range(n)
            )
        )
        trace = simulate(rule, inst, seq)
        opt = optimal_cost(inst, seq)
        if not check_opposite(trace, opt, seq, extended).opposite:
            continue
        top = max(seq.requests)
        if sum(1 for r in seq if r == top) != 1:
            continue
        i = seq.requests.index(top)
        remaining = list(inst.capacities)
        for t in range(i):
            remaining[trace.assignment[t]] -= 1
        base_free = [j for j in range(k) if remaining[j] > 0]
        if not base_free:
            continue
        s_star = max(base_free, key=lambda j: extended.positions[j])
        target = extended.positions[s_star]
        if not top < target:
            continue
        moved = RequestSequence(
            tuple(target if t == i else r for t, r in enumerate(seq))
        )
        moved_trace = simulate(rule, inst, moved)
        lhs = trace.total_cost - moved_trace.total_cost
        rhs = factor * abs(top - target)
        report.trials += 1
        if lhs > rhs:
            report.violations.append(
                _reproducer(inst, seq, moved=sequence_to_dict(moved), lhs=str(lhs), rhs=str(rhs))
            )
    return report


class TestGuardedBound:
    def test_bound_formula(self):
        # alpha = 1 so the three terms are 3, 5 and 3.
        layout = layout_of(0, 1)
        assert adx_bound(alpha_fast(layout).alpha, layout.span, Fraction(3), Fraction(1)) == 5

    @pytest.mark.parametrize("d,x", [(Fraction(3), Fraction(1)), (Fraction(2), Fraction(1)), (Fraction(5), Fraction(4))])
    def test_sweeps_stay_within_bound(self, d, x):
        report = sweep_adx(ptcp_rule, layout_of(0, 1), d=d, x=x, trials=250, seed=23)
        assert report.ok, report.violations[:2]

    def test_rightmost_shift_inequality(self):
        report = check_rightmost_shift_bound(
            ptcp_rule, layout_of(0, 1), d=Fraction(3), x=Fraction(1), trials=60, seed=17
        )
        assert report.trials >= 50
        assert report.ok, report.violations[:2]


class TestGridSearch:
    def test_exact_tightness_witness_at_k2(self):
        layout = layout_of(0, 1)
        inst = unit_instance(layout)
        result = grid_search_max_rate(ptcp_rule(layout), inst, candidate_points(layout), n_max=2)
        assert result.best_rate == 3
        assert result.best_sequence == (Fraction(1, 2), Fraction(0))
        assert not result.zero_opt_anomalies

    def test_criterion_3b_grid_pins(self):
        # Literal pins of criterion 3(b)'s k=2 and k=3 searches; the k=4
        # grid (597871 states, worst rate 5) is pinned by the acceptance run.
        cases = (
            ((0, 1), (3, 3), True, 137257, 3, (0, 0, Fraction(1, 2), 0)),
            ((0, 1, 3), (2, 2, 2), False, 55987, 4, (0, 1, 1, Fraction(9, 5), 0)),
        )
        for positions, caps, offsets, nodes, rate, sequence in cases:
            layout = layout_of(*positions)
            grid = candidate_points(layout, include_offsets=offsets)
            result = grid_search_max_rate(ptcp_rule(layout), Instance(layout, caps), grid, n_max=6)
            assert (result.nodes, result.best_rate, result.best_sequence) == (nodes, rate, sequence)
            assert not result.zero_opt_anomalies

    def test_zero_opt_never_with_positive_cost(self):
        layout = layout_of(0, 1, 3)
        inst = Instance(layout, (2, 1, 1))
        for builder in (ptcp_rule, greedy_rule):
            result = grid_search_max_rate(builder(layout), inst, candidate_points(layout), n_max=3)
            assert not result.zero_opt_anomalies

    def test_depth_guard(self):
        # A one-point grid passes the node guard at any depth.
        layout = layout_of(0)
        inst = Instance(layout, (GRID_SEARCH_MAX_DEPTH + 1,))
        rule = ptcp_rule(layout)
        result = grid_search_max_rate(rule, inst, (Fraction(1),), GRID_SEARCH_MAX_DEPTH)
        assert (result.nodes, result.best_rate) == (GRID_SEARCH_MAX_DEPTH + 1, 1)
        with pytest.raises(SizeGuardError, match="depth"):
            grid_search_max_rate(rule, inst, (Fraction(1),), GRID_SEARCH_MAX_DEPTH + 1)
        # An empty grid has one node whatever the depth and capacity.
        deep = Instance(layout, (10**12,))
        assert grid_search_max_rate(rule, deep, (), 10**12).nodes == 1

    def test_fill_guard_runs_before_any_point_is_scaled(self, monkeypatch):
        # One point on a 1000-digit scale, 2000 servers of 256 slots each:
        # 1 x 512000 x 1000 exceeds the fill guard, which must refuse the
        # search from the common scale alone, before scale_to_ints.
        import ofal.verify

        def no_scaling(*args):
            raise AssertionError("points scaled before the fill guard")

        monkeypatch.setattr(ofal.verify, "scale_to_ints", no_scaling)
        layout = ServerLayout(tuple(Fraction(i) for i in range(2000)))
        inst = Instance(layout, (GRID_SEARCH_MAX_DEPTH,) * 2000)
        with pytest.raises(SizeGuardError) as refused:
            grid_search_max_rate(ptcp_rule(layout), inst, (Fraction(1, 10**999),), GRID_SEARCH_MAX_DEPTH)
        assert str(refused.value) == (
            "grid search guard: 1 points x 512000 slots x 1000 scale digits exceed 500000000"
        )

    def test_rule_naming_a_used_server_raises(self):
        # Server 0 is used after the first request; the second request of
        # the first DFS path (and of the same sequence under simulate) must
        # be refused with the same message, not given a rate.
        layout = layout_of(0, 1)
        inst = unit_instance(layout)
        rule = PriorityRule("first", lambda r, free: 0)
        points = candidate_points(layout)
        with pytest.raises(RuleError) as searched:
            grid_search_max_rate(rule, inst, points, n_max=2)
        with pytest.raises(RuleError) as simulated:
            simulate(rule, inst, RequestSequence((points[0], points[0])))
        assert str(searched.value) == str(simulated.value)


class TestCapacityProbe:
    def test_greedy_k2_reaches_three_and_is_insensitive(self):
        layout = layout_of(0, 1)
        for cap in (2, 3):
            report = capacity_insensitivity_probe(greedy_rule, layout, max_capacity=cap)
            assert report.ok, report.violations
            assert Fraction(report.details["unit_worst_rate"]) == 3

    def test_split_rule_insensitive_on_k3(self):
        layout = layout_of(0, 1, 3)
        report = capacity_insensitivity_probe(ptcp_rule, layout, max_capacity=2)
        assert report.ok
        # Worst unit rate attains the layout bound 2*alpha+1 = 4 exactly.
        assert Fraction(report.details["unit_worst_rate"]) == 4

    def test_reports_are_deterministic(self):
        layout = layout_of(0, 1)
        a = capacity_insensitivity_probe(greedy_rule, layout, max_capacity=2)
        b = capacity_insensitivity_probe(greedy_rule, layout, max_capacity=2)
        assert a.to_dict() == b.to_dict()
