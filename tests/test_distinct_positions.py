"""Differential check: on distinct positions, index-based decisions agree
with the position-based formulas they replaced.

Server positions are strictly increasing, so index order is position
order.  The formulas below compare and key by position, as the code did
while layouts could hold co-located servers; ``surrounding_servers``,
greedy's ``decide``, ``check_surrounding_oriented`` and ``check_faithful``
must give the same answers on every layout, with requests both exactly on
servers and between them.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from ofal.algorithms import greedy_rule, ptcp_rule
from ofal.core import Instance, RequestSequence, ServerLayout
from ofal.engine import PriorityRule, simulate, surrounding_servers
from ofal.verify import check_faithful, check_surrounding_oriented, closer_variant

from conftest import layouts


def requests_near(layout: ServerLayout):
    """Server positions, midpoints of two servers (distance ties), or
    points on an eighth grid around the hull."""
    positions = layout.positions
    midpoints = [(a + b) / 2 for a, b in combinations(positions, 2)] or list(positions)
    grid = st.integers(-8, 8 * 12 + 8).map(lambda t: Fraction(t, 8))
    return st.one_of(st.sampled_from(positions), st.sampled_from(midpoints), grid)


@st.composite
def pairs(draw, cap_max: int):
    layout = draw(layouts(max_k=6))
    caps = draw(st.lists(st.integers(1, cap_max), min_size=layout.k, max_size=layout.k))
    inst = Instance(layout, tuple(caps))
    n = draw(st.integers(0, inst.total_capacity))
    requests = draw(st.lists(requests_near(layout), min_size=n, max_size=n))
    return inst, RequestSequence(tuple(requests))


def position_surrounding(r, free, layout):
    positions = layout.positions
    exact = [j for j in free if positions[j] == r]
    if exact:
        j = min(exact)
        return (j, j)
    left = right = None
    for j in sorted(free):
        p = positions[j]
        if p < r and (left is None or p > positions[left]):
            left = j
        elif p > r and (right is None or p < positions[right]):
            right = j
    return (left, right)


def position_greedy(r, free, layout):
    positions = layout.positions
    return min(free, key=lambda j: (abs(r - positions[j]), positions[j], j))


def position_oriented_steps(trace, seq, inst):
    """Steps whose matched position is not a surrounding server's position."""
    positions = inst.layout.positions
    remaining = list(inst.capacities)
    bad = []
    for t, r in enumerate(seq):
        free = tuple(j for j, c in enumerate(remaining) if c > 0)
        left, right = position_surrounding(r, free, inst.layout)
        allowed = {positions[j] for j in (left, right) if j is not None}
        j = trace.assignment[t]
        if positions[j] not in allowed:
            bad.append(t)
        remaining[j] -= 1
    return bad


def position_faithful_divergences(rule, inst, seq, trials, seed):
    """First diverging step of each closer variant, comparing positions."""
    positions = inst.layout.positions
    base = simulate(rule, inst, seq)
    base_positions = tuple(positions[j] for j in base.assignment)
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        variant = closer_variant(seq, base, inst.layout, rng)
        again = tuple(positions[j] for j in simulate(rule, inst, variant).assignment)
        if again != base_positions:
            out.append(next(t for t, (a, b) in enumerate(zip(base_positions, again)) if a != b))
    return out


def random_rule(seed: int) -> PriorityRule:
    """Any free server, drawn from a seeded stream: breaks orientation."""
    rng = random.Random(seed)
    return PriorityRule("random", lambda r, free: rng.choice(sorted(free)))


def farthest_rule(layout: ServerLayout) -> PriorityRule:
    """Farthest free server: not faithful, so variants do diverge."""
    positions = layout.positions
    return PriorityRule("farthest", lambda r, free: max(free, key=lambda j: (abs(r - positions[j]), j)))


@given(layouts(max_k=30), st.data())
@settings(max_examples=300, deadline=None)
def test_surrounding_and_greedy(layout, data):
    # Sparse free sets make greedy's walk out from the bisection point
    # cross used servers on both sides.
    index = st.integers(0, layout.k - 1)
    free = tuple(
        sorted(data.draw(st.one_of(st.sets(index, min_size=1, max_size=3), st.sets(index, min_size=1))))
    )
    r = data.draw(requests_near(layout))
    assert surrounding_servers(r, free, layout) == position_surrounding(r, free, layout)
    assert greedy_rule(layout).decide(r, free) == position_greedy(r, free, layout)


@given(pairs(cap_max=3), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_surrounding_oriented_verdicts(pair, seed):
    inst, seq = pair
    for rule in (greedy_rule(inst.layout), ptcp_rule(inst.layout), random_rule(seed)):
        trace = simulate(rule, inst, seq)
        report = check_surrounding_oriented(trace, seq, inst)
        assert report.trials == len(seq)
        expected = position_oriented_steps(trace, seq, inst)
        assert [v["step"] for v in report.violations] == expected


@given(pairs(cap_max=1), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_faithful_verdicts(pair, seed):
    inst, seq = pair
    for builder in (greedy_rule, ptcp_rule, farthest_rule):
        report = check_faithful(builder, inst, seq, trials=8, seed=seed)
        expected = position_faithful_divergences(builder(inst.layout), inst, seq, 8, seed)
        assert [v["first_divergence"] for v in report.violations] == expected
