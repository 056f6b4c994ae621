import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.algorithms import greedy_rule, ptcp_rule
from ofal.core import Instance, RequestSequence, RuleError, ValidationError
from ofal.engine import PriorityRule, simulate, surrounding_servers

from conftest import check_trace, derive_priority_order, instances, layout_of, rand_requests, seq_of


class TestSimulate:
    def test_greedy_capacity_cascade(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        trace = simulate(greedy_rule(inst.layout), inst, seq_of("0.9", "0.9"))
        # First request takes the closer server 0; the repeat finds it full.
        assert trace.assignment == (0, 1)

    def test_empty_sequence(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        trace = simulate(greedy_rule(inst.layout), inst, RequestSequence(()))
        assert trace.assignment == ()
        assert trace.total_cost == 0

    def test_overflow_rejected(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        with pytest.raises(ValidationError):
            simulate(greedy_rule(inst.layout), inst, seq_of(0, 1, 2))

    def test_rule_returning_full_server_is_hard_error(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        stuck = PriorityRule(id="stuck", decide=lambda r, free: 0)
        with pytest.raises(RuleError):
            simulate(stuck, inst, seq_of(0, 0))

    @pytest.mark.parametrize("pick", [0, 2, -1, None, "0", "1", 0.5, Fraction(1, 2), [1]])
    def test_every_non_free_pick_is_a_rule_error(self, pick):
        # The first request fills server 0; only 1 is free for the second.
        inst = Instance(layout_of(0, 2), (1, 1))
        picks = iter((0, pick))
        rule = PriorityRule(id="bad", decide=lambda r, free: next(picks))
        message = f"rule 'bad' chose non-free server {pick} for request 1"
        with pytest.raises(RuleError, match=f"^{re.escape(message)}$"):
            simulate(rule, inst, seq_of(0, 1))

    def test_deterministic(self):
        inst = Instance(layout_of(0, 1, 5), (2, 1, 1))
        seq = seq_of("1/3", 4, "9/2", 0)
        rule = ptcp_rule(inst.layout)
        assert simulate(rule, inst, seq) == simulate(rule, inst, seq)

    @given(instances(max_k=5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_trace_bookkeeping(self, inst, data):
        n = data.draw(st.integers(0, min(inst.total_capacity, 8)))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        seq = rand_requests(rng, inst, n)
        trace = simulate(greedy_rule(inst.layout), inst, seq)
        check_trace(trace, inst, seq)


class TestSurroundingServers:
    def test_both_sides(self):
        layout = layout_of(0, 2, 4)
        assert surrounding_servers(Fraction(1), (0, 2), layout) == (0, 2)

    def test_one_side_missing(self):
        layout = layout_of(0, 2)
        assert surrounding_servers(Fraction(1), (1,), layout) == (None, 1)

    def test_request_on_free_server(self):
        layout = layout_of(0, 2)
        assert surrounding_servers(Fraction(2), (0, 1), layout) == (1, 1)

    def test_request_on_full_server(self):
        layout = layout_of(0, 2, 4)
        assert surrounding_servers(Fraction(2), (0, 2), layout) == (0, 2)

    def test_empty_free_set_rejected(self):
        with pytest.raises(ValidationError):
            surrounding_servers(Fraction(1), (), layout_of(0))


class TestPriorityOrder:
    def test_greedy_order_by_distance(self):
        layout = layout_of(0, 2, 4)
        order = derive_priority_order(greedy_rule(layout), Fraction(1, 2), 3)
        assert order == (0, 1, 2)

    def test_split_rule_boundary_prefers_left_block(self):
        layout = layout_of(0, 2)
        order = derive_priority_order(ptcp_rule(layout), Fraction(9, 10), 2)
        assert order == (0, 1)

    def test_single_server(self):
        layout = layout_of(7)
        assert derive_priority_order(greedy_rule(layout), Fraction(0), 1) == (0,)

    def test_inconsistent_rule_detected(self):
        # Parity of the free-set size is not expressible as a fixed order.
        flipper = PriorityRule(
            id="flipper",
            decide=lambda r, free: min(free) if len(free) % 2 == 0 else max(free),
        )
        with pytest.raises(RuleError):
            derive_priority_order(flipper, Fraction(1), 4)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_split_rule_is_priority_consistent(self, data):
        layout = data.draw(instances(max_k=6, cap_max=1)).layout
        r = Fraction(data.draw(st.integers(-8, 120)), 8)
        derive_priority_order(ptcp_rule(layout), r, layout.k, consistency_trials=200)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_greedy_is_priority_consistent(self, data):
        layout = data.draw(instances(max_k=6, cap_max=1)).layout
        r = Fraction(data.draw(st.integers(-8, 120)), 8)
        derive_priority_order(greedy_rule(layout), r, layout.k, consistency_trials=200)
