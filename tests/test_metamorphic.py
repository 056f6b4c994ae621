"""Metamorphic check: a positive affine map of the line changes no decision.

Mapping every server and request by x -> a*x + b with rational a > 0 keeps
every order and every tie, so each online rule and the optimum must pick
the same servers, and every cost must be multiplied by a.  Requests on a
quarter grid over half-integer servers land exactly on servers, midpoints
and critical points, so the tie-breaks are exercised, not just the
generic case.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ofal.algorithms import greedy_rule, ptcp_rule
from ofal.core import Instance, RequestSequence, ServerLayout
from ofal.engine import simulate
from ofal.offline import noncrossing_dp_cost, optimal_cost
from ofal.permutation import permutation_run


@st.composite
def tie_heavy_pairs(draw):
    """Half-integer servers in [0, 8] and quarter-grid requests around them."""
    ticks = sorted(draw(st.lists(st.integers(0, 16), min_size=1, max_size=5, unique=True)))
    caps = draw(st.lists(st.integers(1, 3), min_size=len(ticks), max_size=len(ticks)))
    inst = Instance(ServerLayout(tuple(Fraction(t, 2) for t in ticks)), tuple(caps))
    n = draw(st.integers(0, min(inst.total_capacity, 8)))
    quarters = st.integers(2 * ticks[0] - 4, 2 * ticks[-1] + 4)
    requests = draw(st.lists(quarters, min_size=n, max_size=n))
    return inst, RequestSequence(tuple(Fraction(q, 4) for q in requests))


def affine(inst: Instance, seq: RequestSequence, a: Fraction, b: Fraction):
    layout = ServerLayout(tuple(a * s + b for s in inst.layout.positions))
    return Instance(layout, inst.capacities), RequestSequence(tuple(a * r + b for r in seq))


def run_ptcp(inst, seq):
    return simulate(ptcp_rule(inst.layout), inst, seq)


def run_greedy(inst, seq):
    return simulate(greedy_rule(inst.layout), inst, seq)


@given(
    tie_heavy_pairs(),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)),
)
@settings(max_examples=300, deadline=None)
def test_positive_affine_map(pair, a, b):
    inst, seq = pair
    moved, moved_seq = affine(inst, seq, a, b)
    for run in (run_ptcp, run_greedy, permutation_run):
        before, after = run(inst, seq), run(moved, moved_seq)
        assert after.assignment == before.assignment, run.__name__
        assert after.total_cost == a * before.total_cost, run.__name__
    opt, moved_opt = optimal_cost(inst, seq), optimal_cost(moved, moved_seq)
    assert moved_opt.assignment == opt.assignment
    assert moved_opt.cost == a * opt.cost
    assert noncrossing_dp_cost(moved, moved_seq) == a * noncrossing_dp_cost(inst, seq)
