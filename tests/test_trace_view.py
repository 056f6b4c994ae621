"""Differential tests: ``simulate``'s derived snapshots and integer costs
against the eager simulation loop that stored one capacity tuple and one
Fraction cost per step (inlined below as the reference).

A trace from ``simulate`` keeps only its assignment, capacities, integer
costs and their scale; its ``remaining_after`` derives rows, and its
``per_step_cost`` Fractions, on read.  Every observable -- rows, costs,
indexing, iteration, free sets, ``trace_to_dict``, equality and hash --
must match the eager trace, and a trace rebuilt from plain tuples must
compare and hash equal to it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import pytest

from ofal.algorithms import greedy_rule, ptcp_rule
from ofal.core import (
    AssignmentTrace,
    Instance,
    RequestSequence,
    RuleError,
    ServerLayout,
    ValidationError,
    scaled_pair,
    trace_to_dict,
    unit_instance,
    validate_pair,
)
from ofal.engine import PriorityRule, simulate
from ofal.hybrid import HybridTrace, check_chain_monotone, run_hybrid
from ofal.offline import AugmentingPathEngine
from ofal.permutation import permutation_run


def eager_simulate(rule: PriorityRule, inst: Instance, seq: RequestSequence) -> AssignmentTrace:
    """The simulation loop as it was: one stored tuple per step, Fraction costs."""
    violation = validate_pair(inst, seq)
    if violation is not None:
        raise ValidationError(violation)
    remaining = list(inst.capacities)
    free = tuple(range(inst.k))
    assignment, snapshots, costs = [], [], []
    total = Fraction(0)
    positions = inst.layout.positions
    for r in seq:
        j = rule.decide(r, free)
        if j not in free:
            raise RuleError(f"rule {rule.id!r} chose non-free server {j} for request {r}")
        remaining[j] -= 1
        if remaining[j] == 0:
            i = bisect_left(free, j)
            free = free[:i] + free[i + 1:]
        cost = abs(r - positions[j])
        total += cost
        assignment.append(j)
        snapshots.append(tuple(remaining))
        costs.append(cost)
    return AssignmentTrace(tuple(assignment), tuple(snapshots), tuple(costs), total)


def permutation_rule(inst: Instance, seq: RequestSequence) -> PriorityRule:
    servers, requests, _ = scaled_pair(inst, seq)
    engine = AugmentingPathEngine(servers, list(inst.capacities))
    scaled = iter(requests)
    return PriorityRule("permutation", lambda r, free: engine.push(next(scaled)))


def forced_rule(rule: PriorityRule, i: int, s: int) -> PriorityRule:
    steps = itertools.count()
    return PriorityRule(f"{rule.id}-hybrid", lambda r, free: s if next(steps) == i else rule.decide(r, free))


DENOMINATORS = (1, 2, 3, 5, 7, 12)


def mixed_case(rng: random.Random, size: str) -> tuple[Instance, RequestSequence]:
    """A capacitated instance and a sequence, on negative and positive
    coordinates with mixed denominators.  ``size`` is "empty", "full" (n =
    total capacity) or "random"."""
    k = rng.randint(1, 6)
    points: set[Fraction] = set()
    while len(points) < k:
        points.add(Fraction(rng.randint(-40, 40), rng.choice(DENOMINATORS)))
    inst = Instance(ServerLayout(tuple(sorted(points))), tuple(rng.randint(1, 3) for _ in range(k)))
    n = {"empty": 0, "full": inst.total_capacity}.get(size, rng.randint(0, inst.total_capacity))
    seq = RequestSequence(tuple(Fraction(rng.randint(-50, 50), rng.choice(DENOMINATORS)) for _ in range(n)))
    return inst, seq


def cases(seed: int, count: int = 45):
    rng = random.Random(seed)
    for c in range(count):
        yield mixed_case(rng, ("empty", "full", "random")[c % 3])


def assert_same_trace(view: AssignmentTrace, eager: AssignmentTrace) -> None:
    rows, ref = view.remaining_after, eager.remaining_after
    n = len(ref)
    assert view.assignment == eager.assignment
    assert len(rows) == n
    for t in range(n):
        assert rows[t] == ref[t] and type(rows[t]) is tuple
        assert rows[t - n] == ref[t - n]
        assert view.free_after(t) == eager.free_after(t)
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[bad]
    assert list(rows) == list(ref)
    costs, ref_costs = view.per_step_cost, eager.per_step_cost
    assert len(costs) == n
    for t in range(n):
        assert costs[t] == ref_costs[t] and type(costs[t]) is Fraction
        assert costs[t - n] == ref_costs[t - n]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            costs[bad]
    assert all(type(c) is Fraction for c in costs)
    assert list(costs) == list(ref_costs)
    assert costs == ref_costs and ref_costs == costs and not costs != ref_costs
    assert hash(costs) == hash(ref_costs) and repr(costs) == repr(ref_costs)
    assert view.total_cost == eager.total_cost and type(view.total_cost) is Fraction
    assert json.dumps(trace_to_dict(view)) == json.dumps(trace_to_dict(eager))
    # Equality and hash are those of the tuple of rows, in both directions.
    assert rows == ref and ref == rows and not rows != ref
    assert hash(rows) == hash(ref)
    assert view == eager and eager == view and hash(view) == hash(eager)
    rebuilt = AssignmentTrace(view.assignment, tuple(view.remaining_after), tuple(costs), view.total_cost)
    assert rebuilt == view and hash(rebuilt) == hash(view)
    assert rows != list(ref)
    if n:
        assert rows != ref[:-1] and rows != ref + ref[-1:]
        changed = ref[:-1] + (tuple(c + 1 for c in ref[-1]),)
        assert rows != changed and changed != rows


RULES = {
    "ptcp": lambda inst, seq: ptcp_rule(inst.layout),
    "greedy": lambda inst, seq: greedy_rule(inst.layout),
}


@pytest.mark.parametrize("name", sorted(RULES))
def test_priority_rules_match_the_eager_loop(name):
    for inst, seq in cases(seed=11):
        rule = RULES[name](inst, seq)
        assert_same_trace(simulate(rule, inst, seq), eager_simulate(rule, inst, seq))


def test_permutation_matches_the_eager_loop():
    for inst, seq in cases(seed=13):
        assert_same_trace(permutation_run(inst, seq), eager_simulate(permutation_rule(inst, seq), inst, seq))


def test_forced_deviation_matches_the_eager_loop():
    rng = random.Random(14)
    checked = 0
    for inst, seq in cases(seed=14):
        rule = ptcp_rule(inst.layout)
        base = eager_simulate(rule, inst, seq)
        if not seq:
            continue
        i = rng.randrange(len(seq))
        free = sorted(base.free_after(i - 1)) if i else list(range(inst.k))
        s = rng.choice(free)
        view = simulate(forced_rule(rule, i, s), inst, seq)
        assert_same_trace(view, eager_simulate(forced_rule(rule, i, s), inst, seq))
        checked += 1
    assert checked > 20


def test_empty_sequence():
    inst = Instance(ServerLayout((Fraction(-3, 2), Fraction(0), Fraction(7, 3))), (2, 1, 3))
    trace = simulate(ptcp_rule(inst.layout), inst, RequestSequence(()))
    assert_same_trace(trace, eager_simulate(ptcp_rule(inst.layout), inst, RequestSequence(())))
    assert trace.remaining_after == () and list(trace.remaining_after) == []
    assert trace.total_cost == 0 and trace.per_step_cost == ()


def test_over_capacity_message_unchanged():
    inst = Instance(ServerLayout((Fraction(0), Fraction(1))), (1, 1))
    seq = RequestSequence((Fraction(0),) * 3)
    with pytest.raises(ValidationError) as excinfo:
        simulate(greedy_rule(inst.layout), inst, seq)
    assert str(excinfo.value) == validate_pair(inst, seq)


def test_costs_are_a_view_that_compares_as_a_tuple():
    # Costs 1/2 and 3/2 over scale 2: the view holds the ints 1 and 3.
    inst = Instance(ServerLayout((Fraction(0), Fraction(2))), (1, 1))
    trace = simulate(greedy_rule(inst.layout), inst, RequestSequence((Fraction(1, 2), Fraction(1, 2))))
    costs = trace.per_step_cost
    assert not isinstance(costs, tuple)
    assert costs == (Fraction(1, 2), Fraction(3, 2)) and costs != (Fraction(1, 2),)
    assert costs != [Fraction(1, 2), Fraction(3, 2)] and costs != trace.remaining_after
    assert trace_to_dict(trace)["per_step_cost"] == ["1/2", "3/2"]


def test_equal_rows_from_different_capacities():
    # Capacities (2, 1) with server 0 taken and (1, 2) with server 1 taken
    # both leave the row (1, 1): the views are equal as tuples of rows are.
    layout = ServerLayout((Fraction(0), Fraction(1)))
    seq = RequestSequence((Fraction(1, 2),))
    left = simulate(PriorityRule("left", lambda r, free: 0), Instance(layout, (2, 1)), seq)
    right = simulate(PriorityRule("right", lambda r, free: 1), Instance(layout, (1, 2)), seq)
    assert left.remaining_after == right.remaining_after == ((1, 1),)
    assert hash(left.remaining_after) == hash(right.remaining_after)
    assert left != right


def eager_chains(rule, inst, seq, i, s):
    """The chain extraction as it was, on eager traces: (a, h, t_star, merged),
    or None where run_hybrid must refuse the hybrid."""
    base = eager_simulate(rule, inst, seq)
    hybrid = eager_simulate(forced_rule(rule, i, s), inst, seq)
    a_chain, h_chain = [], []
    for t in range(i, len(seq)):
        only_base = set(base.free_after(t)) - set(hybrid.free_after(t))
        only_hyb = set(hybrid.free_after(t)) - set(base.free_after(t))
        if not only_base and not only_hyb:
            if any(base.free_after(u) != hybrid.free_after(u) for u in range(t, len(seq))):
                return None
            return (tuple(a_chain), tuple(h_chain), t - 1, True) if a_chain else None
        if len(only_base) != 1 or len(only_hyb) != 1:
            return None
        a_chain.extend(only_base)
        h_chain.extend(only_hyb)
    return (tuple(a_chain), tuple(h_chain), len(seq) - 1, False) if a_chain else None


def eager_stuck(ht: HybridTrace) -> list[str]:
    """The gap-emptiness violations as they were, from per-step free sets."""
    out = []
    for off, t in enumerate(range(ht.i, ht.t_star + 1)):
        lo, hi = sorted((ht.a_chain[off], ht.h_chain[off]))
        common_free = set(ht.base.free_after(t)) & set(ht.hybrid.free_after(t))
        stuck = sorted(j for j in common_free if lo < j < hi)
        if stuck:
            out.append(f"free servers {stuck} between the chains at step {t}")
    return out


def modular_rule(layout: ServerLayout) -> PriorityRule:
    """Not a priority rule (the free server at r's numerator modulo the free
    count), so some of its hybrids break the pair shape and are refused."""
    return PriorityRule("modular", lambda r, free: free[r.numerator % len(free)])


@pytest.mark.parametrize("builder", [ptcp_rule, greedy_rule, modular_rule], ids=["ptcp", "greedy", "modular"])
def test_hybrid_chains_match_the_eager_extraction(builder):
    rng = random.Random(15)
    checked = 0
    for _ in range(200):
        # Past 8 servers a set no longer iterates in index order; the gap
        # check's messages list stuck servers in index order.
        k = rng.randint(2, 12)
        points = sorted({Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS)) for _ in range(k)})
        inst = unit_instance(ServerLayout(tuple(points)))
        lo, hi = points[0] - 1, points[-1] + 1
        seq = RequestSequence(tuple(lo + Fraction(rng.randint(0, 96), 96) * (hi - lo) for _ in range(inst.k)))
        rule = builder(inst.layout)
        base = simulate(rule, inst, seq)
        i = rng.randrange(inst.k)
        free = sorted(base.free_after(i - 1)) if i else list(range(inst.k))
        candidates = [s for s in free if s != base.assignment[i]]
        if not candidates:
            continue
        s = rng.choice(candidates)
        expected = eager_chains(rule, inst, seq, i, s)
        if expected is None:
            with pytest.raises(ValidationError):
                run_hybrid(rule, inst, seq, i, s)
            continue
        ht = run_hybrid(rule, inst, seq, i, s)
        assert (ht.a_chain, ht.h_chain, ht.t_star, ht.merged) == expected
        mono = check_chain_monotone(ht, inst.layout)
        if mono.precondition_met:
            assert [v for v in mono.violations if v.startswith("free servers")] == eager_stuck(ht)
        # Chains pinned to the ends leave every common free server between
        # them, so the gap check must report exactly what the sets say.
        span = len(ht.a_chain)
        wide = dataclasses.replace(ht, a_chain=(0,) * span, h_chain=(inst.k - 1,) * span)
        got = [v for v in check_chain_monotone(wide, inst.layout).violations if v.startswith("free servers")]
        if check_chain_monotone(wide, inst.layout).precondition_met:
            assert got == eager_stuck(wide)
        tuple_built = dataclasses.replace(
            wide,
            base=eager_simulate(rule, inst, seq),
            hybrid=eager_simulate(forced_rule(rule, i, s), inst, seq),
        )
        assert check_chain_monotone(tuple_built, inst.layout) == check_chain_monotone(wide, inst.layout)
        checked += 1
    assert checked > 100


def test_unit_capacity_trace_memory_is_linear():
    # The eager loop stored k*n snapshot entries: at k = n = 3000 that is
    # 9e6 references, 72 MB before tuple headers.  The derived rows need
    # O(n + k); the pin is one byte per entry the eager loop kept.
    k = n = 3000
    rng = random.Random(16)
    layout = ServerLayout(tuple(Fraction(p) for p in sorted(rng.sample(range(10 * k), k))))
    inst = unit_instance(layout)
    seq = RequestSequence(tuple(Fraction(rng.randint(0, 80 * k), 8) for _ in range(n)))
    rule = ptcp_rule(layout)
    tracemalloc.start()
    try:
        trace = simulate(rule, inst, seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < k * n
    assert trace.remaining_after[-1] == (0,) * k
    assert sorted(trace.assignment) == list(range(k))
