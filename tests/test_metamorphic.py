"""Metamorphic checks.

A positive affine map of the line changes no decision: mapping every
server and request by x -> a*x + b with rational a > 0 keeps every order
and every tie, so each online rule and the optimum must pick the same
servers, and every cost must be multiplied by a.  Requests on a quarter
grid over half-integer servers land exactly on servers, midpoints and
critical points, so the tie-breaks are exercised, not just the generic
case.

The mirror x -> -x, with the server order and the capacities reversed,
maps each matching to one of equal cost, so it keeps the optimum and
every multiset optimum of the grid memo.  It keeps alpha, and it also
keeps the split blocks bounded by strictly larger gaps, and so, when no
two gaps are equal, every block's (span, D).  Equal maximum gaps split
leftmost, which is not mirror-symmetric.  The permutation rule's pick
mirrors too, j to k - 1 - j, unless two spare servers tie on the fill
cost and the leftmost one wins.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from hypothesis import given, settings, strategies as st

from ofal.algorithms import greedy_rule, ptcp_rule
from ofal.alpha import alpha_fast
from ofal.core import Instance, RequestSequence, ServerLayout, scale_to_ints, scaled_pair
from ofal.engine import simulate
from ofal.offline import dp_cost_ints, multiset_optima, noncrossing_dp_cost, optimal_cost
from ofal.permutation import permutation_run

from conftest import internal_blocks, layout_of


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


def mirror(layout: ServerLayout) -> ServerLayout:
    return ServerLayout(tuple(-p for p in reversed(layout.positions)))


def block_shapes(layout: ServerLayout) -> Counter:
    """The multiset of (span, D) over the internal blocks."""
    s = layout.positions
    return Counter((s[hi] - s[lo], s[a + 1] - s[a]) for lo, hi, a in internal_blocks(layout))


def bounded_blocks(layout: ServerLayout) -> set[tuple[int, int]]:
    """The internal blocks whose outer gaps are ends or strictly larger
    than their split gap D."""
    s, k = layout.positions, layout.k
    out = set()
    for lo, hi, a in internal_blocks(layout):
        d = s[a + 1] - s[a]
        if (lo == 0 or s[lo] - s[lo - 1] > d) and (hi == k - 1 or s[hi + 1] - s[hi] > d):
            out.add((lo, hi))
    return out


def test_mirror_keeps_alpha_and_blocks():
    rng = random.Random(12)
    distinct = 0
    for c in range(600):
        k = rng.randint(1, 12)
        if c % 2:
            points = [0]
            for _ in range(k - 1):
                points.append(points[-1] + rng.choice((1, 2, 3)))
            layout = ServerLayout(tuple(Fraction(p) for p in points))
        else:
            points = {Fraction(rng.randint(-90, 90), rng.randint(1, 9)) for _ in range(k)}
            layout = ServerLayout(tuple(sorted(points)))
        k, flipped = layout.k, mirror(layout)
        assert alpha_fast(flipped).alpha == alpha_fast(layout).alpha
        assert bounded_blocks(flipped) == {(k - 1 - hi, k - 1 - lo) for lo, hi in bounded_blocks(layout)}
        gaps = layout.gaps()
        if len(set(gaps)) == len(gaps):
            assert block_shapes(flipped) == block_shapes(layout)
            distinct += 1
    assert distinct > 200


def test_mirror_of_tied_maximum_gaps():
    # Gaps 1, 10, 10 split at the first 10, leaving the block (11, 21);
    # mirrored, the gaps are 10, 10, 1 and the split leaves (-11, 0).
    layout = layout_of(0, 1, 11, 21)
    assert block_shapes(layout) == Counter({(21, 10): 1, (10, 10): 1, (1, 1): 1})
    assert block_shapes(mirror(layout)) == Counter({(21, 10): 1, (11, 10): 1, (1, 1): 1})
    assert alpha_fast(mirror(layout)).alpha == alpha_fast(layout).alpha == Fraction(21, 10)


@given(tie_heavy_pairs())
@settings(max_examples=100, deadline=None)
def test_mirror_keeps_the_optimum(pair):
    inst, seq = pair
    flipped = Instance(mirror(inst.layout), inst.capacities[::-1])
    flipped_seq = RequestSequence(tuple(-r for r in seq))
    assert noncrossing_dp_cost(flipped, flipped_seq) == noncrossing_dp_cost(inst, seq)
    assert optimal_cost(flipped, flipped_seq).cost == optimal_cost(inst, seq).cost
    # The memo over the distinct requests: the x-th point by position is
    # the (last - x)-th once mirrored, in each child row and in each key.
    servers, requests, _ = scale_to_ints(inst.layout.positions, seq.requests)
    points = sorted(set(requests))
    depth, last = min(3, inst.total_capacity), len(points) - 1
    rows, weight, _ = multiset_optima(servers, inst.capacities, points, depth)
    mirrored, mirrored_weight, _ = multiset_optima(
        [-s for s in reversed(servers)], inst.capacities[::-1], [-p for p in reversed(points)], depth
    )
    assert len(mirrored) == len(rows)
    for d in range(depth):
        for combo in combinations_with_replacement(range(len(points)), d):
            row = rows[sum(weight[x] for x in combo)]
            mirrored_row = mirrored[sum(mirrored_weight[last - x] for x in combo)]
            assert mirrored_row[::-1] == row


def fill_tie(inst: Instance, seq: RequestSequence, assignment: tuple[int, ...]) -> bool:
    """Whether some pick of a permutation run had two spare servers j at
    the same optimum of its prefix under capacities loads + e_j (the DP)."""
    servers, requests, _ = scaled_pair(inst, seq)
    loads = [0] * inst.k
    for t, pick in enumerate(assignment):
        costs = []
        for j in range(inst.k):
            if loads[j] < inst.capacities[j]:
                loads[j] += 1
                costs.append(dp_cost_ints(servers, loads, requests[: t + 1]))
                loads[j] -= 1
        if costs.count(min(costs)) > 1:
            return True
        loads[pick] += 1
    return False


def test_mirror_maps_each_permutation_pick():
    # Denominators up to 10**6 leave no tie; those up to 4 give some, and
    # a tied run may pick differently in the mirror, so it is skipped.
    rng = random.Random(47)
    checked = skipped = 0
    for c in range(400):
        big = 4 if c % 2 else 10**6
        points = {Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(rng.randint(1, 7))}
        caps = tuple(rng.randint(1, 3) for _ in points)
        inst = Instance(ServerLayout(tuple(sorted(points))), caps)
        n = rng.randint(1, sum(caps))
        seq = RequestSequence(tuple(Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(n)))
        trace = permutation_run(inst, seq)
        if fill_tie(inst, seq, trace.assignment):
            skipped += 1
            continue
        flipped = Instance(mirror(inst.layout), caps[::-1])
        mirrored = permutation_run(flipped, RequestSequence(tuple(-r for r in seq)))
        assert mirrored.assignment == tuple(inst.k - 1 - j for j in trace.assignment)
        assert mirrored.total_cost == trace.total_cost
        checked += 1
    assert checked > 300 and skipped > 0
