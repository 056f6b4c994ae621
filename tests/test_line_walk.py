"""Differential check: the split tree, the threshold-check candidates and
the monotone-chain check agree with the code they replaced.

``gap_table`` keeps one critical point and one reach per gap, and
``tree_to_dict`` nests the blocks of ``split_blocks``, smallest first;
``c3_candidates`` falls back to the surrounding servers of the rule's
choice with that server taken out; ``check_chain_monotone`` compares
server indices.  The reference functions below are the earlier code,
inlined: a recursion that recomputes every gap of a block at each level
and derives each block's geometry by Fractions, left/right lists of free
indices around the choice (after three scans of the free set for the
surrounding servers), and comparisons of server positions.  Layouts are
drawn on an integer grid so that equal maximum gaps occur, and the free
sets thin out step by step so that the walks cross used servers.

``test_distinct_positions.test_surrounding_and_greedy`` pins the walk in
``surrounding_servers`` and greedy's ``decide`` against position formulas.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from ofal.algorithms import greedy_rule, ptcp_rule, tree_to_dict
from ofal.core import RequestSequence, ServerLayout, ValidationError, fraction_str, unit_instance
from ofal.engine import PriorityRule, simulate
from ofal.hybrid import CheckResult, c3_candidates, check_chain_monotone, free_before, run_hybrid

from conftest import gap_table_by_split, layouts, rows_by_split


def reference_build_split_tree(layout, lo=0, hi=None, i=0):
    """The rescanning build, as preorder rows
    (lo, hi, a, right, D, Delta1, Delta2, x, critical point); this
    block's row is row i of the whole tree."""
    if hi is None:
        hi = layout.k - 1
    if lo == hi:
        return [(lo, hi, None, None, None, None, None, None, None)]
    positions = layout.positions
    a = lo
    d = positions[lo + 1] - positions[lo]
    for u in range(lo + 1, hi):
        gap = positions[u + 1] - positions[u]
        if gap > d:
            a, d = u, gap
    delta1 = positions[a] - positions[lo]
    delta2 = positions[hi] - positions[a + 1]
    x = d * (delta2 + d) / ((delta1 + d) + (delta2 + d))
    left = reference_build_split_tree(layout, lo, a, i + 1)
    right = reference_build_split_tree(layout, a + 1, hi, i + 1 + len(left))
    return [(lo, hi, a, i + 1 + len(left), d, delta1, delta2, x, positions[a] + x)] + left + right


def rows_to_dict(rows, layout, i=0):
    """``tree_to_dict``'s nested dump, built from reference rows."""
    lo, hi, a, right, d, delta1, delta2, x, critical = rows[i]
    if a is None:
        return {"server": lo, "position": fraction_str(layout.positions[lo])}
    return {
        "lo": lo,
        "hi": hi,
        "split_after": a,
        "gap": fraction_str(d),
        "delta1": fraction_str(delta1),
        "delta2": fraction_str(delta2),
        "x": fraction_str(x),
        "critical": fraction_str(critical),
        "left": rows_to_dict(rows, layout, i + 1),
        "right": rows_to_dict(rows, layout, right),
    }


def reference_surrounding_servers(r, free, layout):
    positions = layout.positions
    for j in free:
        if positions[j] == r:
            return (j, j)
    left = max((j for j in free if positions[j] < r), default=None)
    right = min((j for j in free if positions[j] > r), default=None)
    return (left, right)


def reference_c3_candidates(layout, base, seq, i):
    inst = unit_instance(layout)
    free = free_before(base, inst, i)
    chosen = base.assignment[i]
    left, right = reference_surrounding_servers(seq[i], free, layout)
    candidates = {j for j in (left, right) if j is not None and j != chosen}
    if not candidates:
        lefts = [j for j in free if j < chosen]
        rights = [j for j in free if j > chosen]
        if lefts:
            candidates.add(max(lefts))
        if rights:
            candidates.add(min(rights))
    return sorted(candidates)


def reference_check_chain_monotone(ht, layout):
    pos = layout.positions
    inst = unit_instance(layout)
    lo0, hi0 = sorted((pos[ht.s], pos[ht.base.assignment[ht.i]]))
    initial_free = free_before(ht.base, inst, ht.i)
    between = [j for j in initial_free if lo0 < pos[j] < hi0]
    if between:
        return CheckResult(ok=True, precondition_met=False)

    violations = []
    a_pos = [pos[j] for j in ht.a_chain]
    h_pos = [pos[j] for j in ht.h_chain]

    if a_pos[0] <= h_pos[0]:
        lo_chain, hi_chain, lo_name = a_pos, h_pos, "a"
    else:
        lo_chain, hi_chain, lo_name = h_pos, a_pos, "h"
    for t in range(len(a_pos) - 1):
        if lo_chain[t + 1] > lo_chain[t]:
            violations.append(f"chain {lo_name} moved inward at offset {t + 1}")
        if hi_chain[t + 1] < hi_chain[t]:
            violations.append(f"upper chain moved inward at offset {t + 1}")

    for off, t in enumerate(range(ht.i, ht.t_star + 1)):
        lo, hi = sorted((a_pos[off], h_pos[off]))
        common_free = set(ht.base.free_after(t)) & set(ht.hybrid.free_after(t))
        stuck = sorted(j for j in common_free if lo < pos[j] < hi)
        if stuck:
            violations.append(f"free servers {stuck} between the chains at step {t}")
    return CheckResult(ok=not violations, violations=tuple(violations))


@st.composite
def grid_layouts(draw, max_k=10, hull=16):
    """Integer positions, often equally spaced in places, shifted by a
    drawn rational so that Fraction arithmetic is exercised."""
    ticks = draw(st.lists(st.integers(0, hull), min_size=1, max_size=max_k, unique=True))
    shift = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
    return ServerLayout(tuple(shift + t for t in sorted(ticks)))


any_layout = st.one_of(grid_layouts(), layouts(max_k=10))


def requests_on(layout):
    """Server positions, midpoints of two servers, or a quarter grid."""
    positions = layout.positions
    midpoints = [(a + b) / 2 for a, b in combinations(positions, 2)] or list(positions)
    lo = positions[0] - 2
    grid = st.integers(0, 4 * int(positions[-1] - lo + 2)).map(lambda t: lo + Fraction(t, 4))
    return st.one_of(st.sampled_from(positions), st.sampled_from(midpoints), grid)


def farthest_rule(layout):
    """Farthest free server: neither surrounding-oriented nor monotone, so
    the fallback and the violation messages are reached."""
    positions = layout.positions
    return PriorityRule("farthest", lambda r, free: max(free, key=lambda j: (abs(r - positions[j]), j)))


def seeded_rule(seed):
    """Any free server, from a seeded stream: the rule's choice need not
    be a surrounding server, so the c3 fallback is taken often."""
    rng = random.Random(seed)
    return PriorityRule("seeded", lambda r, free: rng.choice(sorted(free)))


def hashed_rule(seed):
    """A free server picked by a hash of (seed, request, free set): pure,
    so hybrids replay it, yet arbitrary enough to leave common free
    servers between the chains."""
    return PriorityRule(
        "hashed", lambda r, free: sorted(free)[hash((seed, r, tuple(sorted(free)))) % len(free)]
    )


@st.composite
def runs(draw, kinds=("ptcp", "greedy", "farthest", "seeded", "hashed")):
    layout = draw(any_layout)
    seq = RequestSequence(tuple(draw(st.lists(requests_on(layout), min_size=layout.k, max_size=layout.k))))
    kind = draw(st.sampled_from(kinds))
    if kind in ("seeded", "hashed"):
        rule = {"seeded": seeded_rule, "hashed": hashed_rule}[kind](draw(st.integers(0, 10**6)))
    else:
        rule = {"ptcp": ptcp_rule, "greedy": greedy_rule, "farthest": farthest_rule}[kind](layout)
    return layout, seq, rule


@given(any_layout)
@settings(max_examples=300, deadline=None)
def test_split_tree_matches_the_rescanning_build(layout):
    reference = reference_build_split_tree(layout)
    # Every gap's critical point and reach, against the block it splits.
    assert gap_table_by_split(layout) == rows_by_split(reference)
    assert tree_to_dict(layout) == rows_to_dict(reference, layout)


@given(runs())
@settings(max_examples=300, deadline=None)
def test_c3_candidates_match_the_list_fallback(run):
    layout, seq, rule = run
    base = simulate(rule, unit_instance(layout), seq)
    # Every step: the free set loses one server per step, down to one.
    for i in range(layout.k):
        assert c3_candidates(layout, base, seq, i) == reference_c3_candidates(layout, base, seq, i)


# Hybrids need a pure rule: run_hybrid replays it once more.
@given(runs(kinds=("ptcp", "greedy", "farthest", "hashed")))
@settings(max_examples=300, deadline=None)
def test_chain_monotone_matches_the_position_check(run):
    layout, seq, rule = run
    inst = unit_instance(layout)
    base = simulate(rule, inst, seq)
    # Every deviation step and every other free server to deviate to.
    for i in range(layout.k):
        for s in sorted(set(free_before(base, inst, i)) - {base.assignment[i]}):
            try:
                ht = run_hybrid(rule, inst, seq, i, s)
            except ValidationError:
                continue  # not a singleton-pair hybrid; nothing to check
            assert check_chain_monotone(ht, layout) == reference_check_chain_monotone(ht, layout)
