"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every comparison is exact rational arithmetic at
the stated tolerance; nothing is calibrated after the fact.
"""

import random
import time
from fractions import Fraction

from ofal.adversary import (
    candidate_points,
    greedy_adversary,
    greedy_params,
    permutation_adversary,
    permutation_params,
    random_layout,
    random_sequences,
)
from ofal.algorithms import greedy_rule, ptcp_rule
from ofal.alpha import alpha_bruteforce, alpha_fast
from ofal.core import (
    Instance,
    ServerLayout,
    compute_rate,
    unit_instance,
)
from ofal.engine import PriorityRule, simulate
from ofal.hybrid import check_chain_monotone, check_transition_rules, free_before, run_hybrid
from ofal.offline import noncrossing_dp_cost, optimal_bruteforce, optimal_cost
from ofal.permutation import permutation_run
from ofal.verify import (
    capacity_insensitivity_probe,
    check_faithful,
    check_surrounding_oriented,
    grid_search_max_rate,
    sweep_adx,
)

from conftest import rand_requests

EPS = Fraction(1, 10)


def per_point(builder):
    """``builder`` with ``decide`` as the rule's only path: the grid search
    then asks it once per point instead of through the rule's batch.  The
    criteria that walk a grid require the same result both ways, since
    the paper's rule is the one ``decide`` defines."""

    def build(layout):
        rule = builder(layout)
        return PriorityRule(rule.id, rule.decide)

    return build


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_exponential_layout_reproduction():
    details = []
    ok = True
    for k in range(3, 9):
        start = time.perf_counter()
        inst, seq = greedy_adversary(greedy_params(k, EPS))
        opt = noncrossing_dp_cost(inst, seq)
        greedy_rate = compute_rate(simulate(greedy_rule(inst.layout), inst, seq).total_cost, opt)
        split_rate = compute_rate(simulate(ptcp_rule(inst.layout), inst, seq).total_cost, opt)
        elapsed = time.perf_counter() - start
        k_ok = greedy_rate >= 2**k - 1 - EPS and split_rate <= 5 and elapsed < 1.0
        ok = ok and k_ok
        details.append(f"k={k}: greedy={float(greedy_rate):.2f} ptcp={float(split_rate):.2f} {elapsed:.2f}s")
    _report(1, "exponential-layout comparison", ok, "; ".join(details))


def test_criterion_2_geometric_layout_reproduction():
    details = []
    ok = True
    for k in range(1, 6):
        start = time.perf_counter()
        inst, seq = permutation_adversary(permutation_params(k, EPS))
        opt = noncrossing_dp_cost(inst, seq)
        perm_rate = compute_rate(permutation_run(inst, seq).total_cost, opt)
        split_rate = compute_rate(simulate(ptcp_rule(inst.layout), inst, seq).total_cost, opt)
        elapsed = time.perf_counter() - start
        k_ok = perm_rate >= 4 * k - 1 - EPS and split_rate <= 3 + EPS and elapsed < 5.0
        ok = ok and k_ok
        details.append(f"k={k}: perm={float(perm_rate):.2f} ptcp={float(split_rate):.3f} {elapsed:.2f}s")
    _report(2, "geometric-layout comparison", ok, "; ".join(details))


def test_criterion_3_upper_bound_suite():
    # (a) 10^4 seeded random (layout, capacity, sequence) triples.
    violations = 0
    for trial in range(10_000):
        rng = random.Random(31_000_000 + trial)
        k = rng.randint(1, 10)
        layout = random_layout(rng, k, coord_den=8, hull=16)
        caps = tuple(rng.randint(1, 5) for _ in range(k))
        inst = Instance(layout, caps)
        n = rng.randint(0, min(40, inst.total_capacity))
        dist = ("uniform", "mixture", "opposite")[trial % 3]
        seq = next(random_sequences(inst, n, seed=trial, distribution=dist, count=1))
        trace = simulate(ptcp_rule(layout), inst, seq)
        opt = noncrossing_dp_cost(inst, seq)
        bound = 2 * alpha_fast(layout).alpha + 1
        if opt == 0:
            if trace.total_cost != 0:
                violations += 1
        elif trace.total_cost > bound * opt:
            violations += 1

    # (b) exhaustive grid search, k <= 4, n <= 6.
    combos = [
        (ServerLayout((Fraction(0), Fraction(1))), (3, 3), True),
        (ServerLayout((Fraction(0), Fraction(1), Fraction(3))), (2, 2, 2), False),
        (ServerLayout((Fraction(0), Fraction(2), Fraction(4), Fraction(8))), (2, 1, 1, 2), False),
    ]
    grid_notes = []
    for layout, caps, offsets in combos:
        inst = Instance(layout, caps)
        grid = candidate_points(layout, include_offsets=offsets)
        result = grid_search_max_rate(ptcp_rule(layout), inst, grid, n_max=6)
        bound = 2 * alpha_fast(layout).alpha + 1
        if result.best_rate > bound or result.zero_opt_anomalies:
            violations += 1
        grid_notes.append(f"k={layout.k}: worst={float(result.best_rate):.3f} bound={float(bound):.0f} ({result.nodes} states)")
    _report(3, "ptcp upper bound", violations == 0, f"10^4 random triples + grids [{'; '.join(grid_notes)}]")


def test_criterion_4_tightness_at_k2():
    layout = ServerLayout((Fraction(0), Fraction(1)))
    result, reference = (
        grid_search_max_rate(builder(layout), unit_instance(layout), candidate_points(layout), n_max=2)
        for builder in (ptcp_rule, per_point(ptcp_rule))
    )
    lo = Fraction(3) - Fraction(1, 100)
    ok = lo <= result.best_rate <= 3 and result == reference
    _report(
        4,
        "tightness at k=2",
        ok,
        f"worst rate {result.best_rate} via {[str(q) for q in result.best_sequence]}"
        + ("" if result == reference else "; batch picks differ from decide"),
    )


def test_criterion_5_hybrid_invariant_suite():
    target = 10_000
    checked = 0
    monotone_checked = 0
    violations = 0
    trial = 0
    while checked < target and trial < 40 * target:
        rng = random.Random(52_000_000 + trial)
        trial += 1
        k = rng.randint(2, 8)
        layout = random_layout(rng, k, coord_den=4, hull=20)
        inst = unit_instance(layout)
        rule = ptcp_rule(layout)
        seq = rand_requests(rng, inst, k)
        base = simulate(rule, inst, seq)
        i = rng.randrange(k)
        candidates = [s for s in free_before(base, inst, i) if s != base.assignment[i]]
        if not candidates:
            continue
        s = rng.choice(candidates)
        ht = run_hybrid(rule, inst, seq, i, s)  # raises if the pair shape breaks
        checked += 1
        if not check_transition_rules(ht).ok:
            violations += 1
        mono = check_chain_monotone(ht, layout)
        if mono.precondition_met:
            monotone_checked += 1
            if not mono.ok:
                violations += 1
    ok = checked == target and violations == 0
    _report(
        5,
        "hybrid invariants",
        ok,
        f"{checked} hybrids, {monotone_checked} under the monotone precondition, {violations} violations",
    )


def test_criterion_6_oracle_equivalence():
    mismatches = 0

    # Flow solver vs exhaustive enumeration, n <= 8.
    for trial in range(1000):
        rng = random.Random(61_000_000 + trial)
        k = rng.randint(1, 4)
        layout = random_layout(rng, k, coord_den=4, hull=12)
        caps = tuple(rng.randint(1, 3) for _ in range(k))
        inst = Instance(layout, caps)
        n = rng.randint(0, min(8, inst.total_capacity))
        seq = rand_requests(rng, inst, n)
        if optimal_cost(inst, seq).cost != optimal_bruteforce(inst, seq).cost:
            mismatches += 1

    # Line-structure DP vs flow solver, n <= 200.
    for trial in range(1000):
        rng = random.Random(62_000_000 + trial)
        k = rng.randint(1, 10)
        layout = random_layout(rng, k, coord_den=8, hull=24)
        n_target = rng.randint(0, 60) if trial % 5 else rng.randint(100, 200)
        caps = [1] * k
        while sum(caps) < n_target:
            caps[rng.randrange(k)] += 1
        inst = Instance(layout, tuple(caps))
        seq = rand_requests(rng, inst, n_target)
        if noncrossing_dp_cost(inst, seq) != optimal_cost(inst, seq).cost:
            mismatches += 1

    # Interval evaluator vs subset oracle: random layouts to k = 14 ...
    for trial in range(1000):
        rng = random.Random(63_000_000 + trial)
        k = rng.randint(1, 14)
        layout = random_layout(rng, k, coord_den=4, hull=30)
        if alpha_fast(layout).alpha != alpha_bruteforce(layout).alpha:
            mismatches += 1
    # ... plus every layout on the integer grid {0..7}.
    for mask in range(1, 1 << 8):
        positions = tuple(Fraction(i) for i in range(8) if mask >> i & 1)
        layout = ServerLayout(positions)
        if alpha_fast(layout).alpha != alpha_bruteforce(layout).alpha:
            mismatches += 1
    _report(6, "oracle equivalence", mismatches == 0, f"{mismatches} discrepancies")


def test_criterion_7_definitional_checkers():
    failures = []

    # Faithfulness: 10^4 perturbation trials across 100 random bases.
    faithful_trials = 0
    for case in range(100):
        rng = random.Random(71_000_000 + case)
        layout = random_layout(rng, rng.randint(1, 8))
        inst = unit_instance(layout)
        seq = rand_requests(rng, inst, layout.k)
        report = check_faithful(ptcp_rule, inst, seq, trials=100, seed=case)
        faithful_trials += report.trials
        if not report.ok:
            failures.append(f"faithful case {case}")
    if faithful_trials != 10_000:
        failures.append("faithful trial count")

    # Surrounding-orientation: 10^4 full traces.
    for case in range(10_000):
        rng = random.Random(72_000_000 + case)
        k = rng.randint(1, 8)
        layout = random_layout(rng, k)
        caps = tuple(rng.randint(1, 3) for _ in range(k))
        inst = Instance(layout, caps)
        seq = rand_requests(rng, inst, rng.randint(0, min(10, inst.total_capacity)))
        trace = simulate(ptcp_rule(layout), inst, seq)
        if not check_surrounding_oriented(trace, seq, inst).ok:
            failures.append(f"surrounding case {case}")
            break

    # Guarded composition over a 5x5 (d, x) parameter grid, 10^3 each.
    layout = ServerLayout((Fraction(0), Fraction(1), Fraction(3)))
    for d_int in range(1, 6):
        d = Fraction(d_int)
        for j in range(1, 6):
            x = d * Fraction(j, 6)
            report = sweep_adx(ptcp_rule, layout, d=d, x=x, trials=1000, seed=d_int * 10 + j)
            if not report.ok:
                failures.append(f"adx d={d} x={x}")
    _report(7, "definitional checkers", not failures, "; ".join(failures) or "faithful 10^4, surrounding 10^4, adx 25x10^3")


def test_criterion_8_capacity_insensitivity():
    failures = []
    worst_unit_greedy_k2 = None
    for layout in (
        ServerLayout((Fraction(0), Fraction(1))),
        ServerLayout((Fraction(0), Fraction(1), Fraction(3))),
    ):
        for builder, name in ((greedy_rule, "greedy"), (ptcp_rule, "ptcp")):
            for capacity in (2, 3):
                report, reference = (
                    capacity_insensitivity_probe(b, layout, max_capacity=capacity, n_max=4)
                    for b in (builder, per_point(builder))
                )
                if not report.ok:
                    failures.append(f"{name} k={layout.k} c={capacity}")
                if report != reference:
                    failures.append(f"{name} k={layout.k} c={capacity}: batch picks differ from decide")
                if name == "greedy" and layout.k == 2:
                    worst_unit_greedy_k2 = Fraction(report.details["unit_worst_rate"])
    if worst_unit_greedy_k2 is None or worst_unit_greedy_k2 < 3 - Fraction(1, 100):
        failures.append(f"greedy unit worst at k=2 was {worst_unit_greedy_k2}")
    _report(
        8,
        "capacity insensitivity",
        not failures,
        "; ".join(failures) or f"greedy k=2 unit worst rate {worst_unit_greedy_k2}",
    )
