"""The free servers reach a rule as one strictly increasing tuple: the
servers with capacity left, from every producer.

A recording rule wraps ptcp or greedy, asserts the tuple's form on each
call and logs ``(request, free, choice)``; a recording batch does the
same for each call of a rule's ``picks`` and logs ``(free, picks)``.
The log is replayed against capacities kept here, independently of the
producer: ``simulate`` in sequence order, ``grid_search_max_rate`` in its
depth-first order (a node asks for all of its children's picks, then
each child sees its parent's servers minus any that ran out), and
``derive_priority_order``'s ranking phase and its seeded subsets.
``guard_rule``'s slice of the free tuple is pinned against the frozenset
filter it replaced.  The three producers refuse a pick that is not a free
server with one message, and a trace's free sets are the same increasing
tuples.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.adversary import candidate_points
from ofal.algorithms import greedy_rule, guard_rule, ptcp_rule
from ofal.core import Instance, RuleError
from ofal.engine import PriorityRule, simulate
from ofal.hybrid import free_before
from ofal.verify import grid_search_max_rate

from conftest import derive_priority_order, instances, layout_of, layouts, rand_requests, seq_of

BUILDERS = (ptcp_rule, greedy_rule)


def recording(rule):
    calls = []

    def decide(r, free):
        assert type(free) is tuple
        assert all(a < b for a, b in zip(free, free[1:])), free
        j = rule.decide(r, free)
        calls.append((r, free, j))
        return j

    return PriorityRule(rule.id, decide), calls


def recording_batch(rule):
    calls = []

    def batch(points):
        picks = rule.picks(points)

        def recorded(free):
            assert type(free) is tuple
            assert all(a < b for a, b in zip(free, free[1:])), free
            js = picks(free)
            calls.append((free, js))
            return js

        return recorded

    return PriorityRule(rule.id, rule.decide, batch), calls


def with_capacity(remaining):
    return tuple(j for j, c in enumerate(remaining) if c > 0)


@given(instances(max_k=7), st.integers(0, 2**31))
@settings(max_examples=80, deadline=None)
def test_simulate_hands_the_servers_with_capacity_left(inst, seed):
    seq = rand_requests(random.Random(seed), inst, inst.total_capacity)
    for builder in BUILDERS:
        rule, calls = recording(builder(inst.layout))
        simulate(rule, inst, seq)
        remaining = list(inst.capacities)
        assert [r for r, _, _ in calls] == list(seq)
        for _, free, j in calls:
            assert free == with_capacity(remaining)
            remaining[j] -= 1


@given(instances(max_k=4, cap_max=2), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_grid_search_hands_each_node_its_servers(inst, n_max):
    points = candidate_points(inst.layout, include_offsets=False)
    depth_cap = min(n_max, inst.total_capacity)
    for builder in BUILDERS:
        # ``recording`` has no batch, so the walk calls its decide once per
        # point; ``recording_batch`` keeps the rule's own batch.
        rule, calls = recording(builder(inst.layout))
        batched, batch_calls = recording_batch(builder(inst.layout))
        result = grid_search_max_rate(rule, inst, points, n_max)
        assert grid_search_max_rate(batched, inst, points, n_max) == result
        log, batch_log = iter(calls), iter(batch_calls)

        def walk(depth, remaining):
            if depth == depth_cap:
                return
            picks = []
            for p in points:
                r, free, j = next(log)
                assert r == p
                assert free == with_capacity(remaining)
                picks.append(j)
            assert next(batch_log) == (with_capacity(remaining), picks)
            for j in picks:
                remaining[j] -= 1
                walk(depth + 1, remaining)
                remaining[j] += 1

        walk(0, list(inst.capacities))
        assert next(log, None) is None and next(batch_log, None) is None
        assert len(calls) == result.nodes - 1


@given(layouts(min_k=1, max_k=8), st.integers(0, 2**31), st.data())
@settings(max_examples=60, deadline=None)
def test_priority_order_hands_increasing_subsets(layout, seed, data):
    r = data.draw(st.sampled_from(candidate_points(layout)))
    k = layout.k
    for builder in BUILDERS:
        rule, calls = recording(builder(layout))
        order = derive_priority_order(rule, r, k, consistency_trials=40, seed=seed)
        # Ranking: each call sees the servers not ranked yet.
        for t, (_, free, j) in enumerate(calls[:k]):
            assert free == tuple(s for s in range(k) if s not in order[:t])
            assert j == order[t]
        # Consistency: the seeded subsets, unchanged, in increasing order.
        rng = random.Random(seed)
        for _, free, _ in calls[k:]:
            size = rng.randint(1, k)
            assert free == tuple(sorted(rng.sample(range(k), size)))
        assert len(calls) == k + 40


def reference_guard_decide(base, k, threshold, r, free):
    """The guard's decision with the base set as the frozenset filter it
    used to be; the base rule gets that set in increasing order."""
    base_free = frozenset(j for j in free if j < k)
    if r <= threshold:
        if base_free:
            return base.decide(r, tuple(sorted(base_free)))
        return k
    if k in free:
        return k
    return base.decide(r, tuple(sorted(base_free)))


@given(layouts(min_k=1, max_k=8), st.data())
@settings(max_examples=150, deadline=None)
def test_guard_slice_matches_the_frozenset_filter(layout, data):
    k = layout.k
    d = Fraction(data.draw(st.integers(2, 8)), 2)
    x = d * Fraction(data.draw(st.integers(1, 9)), 10)
    base = ptcp_rule(layout)
    recorded, base_calls = recording(base)
    rule, extended = guard_rule(recorded, layout, d, x)
    threshold = layout.positions[-1] + x
    requests = (*candidate_points(extended), threshold)
    for _ in range(5):
        free = tuple(sorted(data.draw(st.sets(st.integers(0, k), min_size=1))))
        for r in requests:
            del base_calls[:]
            got = rule.decide(r, free)
            assert got == reference_guard_decide(base, k, threshold, r, free)
            for _, base_free, _ in base_calls:
                assert base_free == tuple(sorted(frozenset(j for j in free if j < k)))


# Each producer asks for server 0 at request 1 first, which fills it, and
# then for the pick at request 1 again, when only server 1 is free.
PRODUCERS = {
    "simulate": lambda rule, inst: simulate(rule, inst, seq_of(1, 1)),
    "grid_search_max_rate": lambda rule, inst: grid_search_max_rate(rule, inst, (Fraction(1),), 2),
    "derive_priority_order": lambda rule, inst: derive_priority_order(rule, Fraction(1), inst.k),
}


@pytest.mark.parametrize("producer", PRODUCERS)
@pytest.mark.parametrize("pick", [0, 2, -1, None, "0", "1", 0.5, Fraction(1, 2), [1], 1.0, Fraction(1)])
def test_every_producer_refuses_a_non_free_pick_alike(producer, pick):
    inst = Instance(layout_of(0, 2), (1, 1))
    picks = iter((0, pick))
    rule = PriorityRule(id="bad", decide=lambda r, free: next(picks))
    message = f"rule 'bad' chose non-free server {pick} for request 1"
    with pytest.raises(RuleError, match=f"^{re.escape(message)}$"):
        PRODUCERS[producer](rule, inst)


@given(instances(max_k=7, cap_max=3), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_trace_free_sets_are_the_increasing_tuples(inst, seed):
    seq = rand_requests(random.Random(seed), inst, inst.total_capacity)
    for builder in BUILDERS:
        trace = simulate(builder(inst.layout), inst, seq)
        rows = [inst.capacities, *trace.remaining_after]
        for t, row in enumerate(rows):
            free = free_before(trace, inst, t)
            assert type(free) is tuple and free == with_capacity(row)
            if t:
                assert trace.free_after(t - 1) == free
