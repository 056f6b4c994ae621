"""Executable checkers for the definitional properties and cost bounds.

Every checker is deterministic given its seed, and every recorded
violation carries a reproducer (instance, sequence, and context) that
replays to the same violation.  Checkers report; they do not decide what
counts as a test failure -- that is the caller's job.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable

from .alpha import alpha_fast
from .adversary import candidate_points, random_rational
from .algorithms import guard_rule
from .core import (
    INF,
    AssignmentTrace,
    Instance,
    RequestSequence,
    RuleError,
    ServerLayout,
    SizeGuardError,
    ValidationError,
    compute_rate,
    instance_to_dict,
    scale_to_ints,
    sequence_to_dict,
    unit_instance,
)
from .engine import PriorityRule, simulate, surrounding_servers
from .offline import OptResult, multiset_optima, optimal_cost

RuleBuilder = Callable[[ServerLayout], PriorityRule]


@dataclass
class PropertyReport:
    """Outcome of a property sweep: trials run and reproducible violations."""

    name: str
    trials: int = 0
    violations: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "ok" if not self.violations else "violation"

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "trials": self.trials,
            "violations": self.violations,
            "details": self.details,
            "verdict": self.verdict,
        }


def _reproducer(inst: Instance, seq: RequestSequence, **extra) -> dict:
    data = {"instance": instance_to_dict(inst), "sequence": sequence_to_dict(seq)}
    data.update(extra)
    return data


# ---------------------------------------------------------------------------
# Definitional checkers
# ---------------------------------------------------------------------------


def check_surrounding_oriented(
    trace: AssignmentTrace,
    seq: RequestSequence,
    inst: Instance,
) -> PropertyReport:
    """Each match must hit the nearest free server on one side of the request."""
    report = PropertyReport(name="surrounding-oriented")
    remaining = list(inst.capacities)
    free = tuple(range(inst.k))  # servers with remaining > 0
    for t, r in enumerate(seq):
        left, right = surrounding_servers(r, free, inst.layout)
        j = trace.assignment[t]
        report.trials += 1
        if j not in (left, right):
            report.violations.append(
                _reproducer(
                    inst,
                    seq,
                    step=t,
                    matched=j,
                    surrounding=[x for x in (left, right) if x is not None],
                )
            )
        remaining[j] -= 1
        if remaining[j] == 0:
            i = bisect_left(free, j)
            free = free[:i] + free[i + 1:]
    return report


def closer_variant(
    seq: RequestSequence,
    trace: AssignmentTrace,
    layout: ServerLayout,
    rng: random.Random,
) -> RequestSequence:
    """A random sequence obtained by sliding requests toward their matches.

    Each request moves a random fraction of the way to the server the
    trace matched it with (possibly not at all), which by construction
    never moves a request past its matched server.
    """
    requests = []
    for t, r in enumerate(seq):
        target = layout.positions[trace.assignment[t]]
        theta = Fraction(rng.randint(0, 4), 4)
        requests.append(r + theta * (target - r))
    return RequestSequence(tuple(requests))


def check_faithful(
    builder: RuleBuilder,
    inst: Instance,
    seq: RequestSequence,
    trials: int = 100,
    seed: int = 0,
) -> PropertyReport:
    """Perturb requests toward their matched servers; assignments must not move.

    The definition is stated for unit capacities, so a capacitated instance
    raises ValidationError.  ``builder`` builds the rule over the layout.
    """
    if any(c != 1 for c in inst.capacities):
        raise ValidationError("faithfulness is defined for unit capacities")
    layout = inst.layout
    rule = builder(layout)
    report = PropertyReport(name="faithful")
    base = simulate(rule, inst, seq)
    rng = random.Random(seed)
    for _ in range(trials):
        variant = closer_variant(seq, base, layout, rng)
        again = simulate(rule, inst, variant)
        report.trials += 1
        if again.assignment != base.assignment:
            first = next(t for t, (a, b) in enumerate(zip(base.assignment, again.assignment)) if a != b)
            report.violations.append(
                _reproducer(inst, seq, closer=sequence_to_dict(variant), first_divergence=first)
            )
    return report


@dataclass(frozen=True)
class OppositeReport:
    """Per-request classification of a sequence against an optimal map."""

    opposite: bool
    failing_indices: tuple[int, ...]


def check_opposite(
    trace: AssignmentTrace,
    opt: OptResult,
    seq: RequestSequence,
    layout: ServerLayout,
) -> OppositeReport:
    """A sequence is opposite when every request lies (inclusively) between
    its online server and its offline-optimal server."""
    failing = []
    positions = layout.positions
    for t, r in enumerate(seq):
        a = positions[trace.assignment[t]]
        b = positions[opt.assignment[t]]
        lo, hi = (a, b) if a <= b else (b, a)
        if not (lo <= r <= hi):
            failing.append(t)
    return OppositeReport(opposite=not failing, failing_indices=tuple(failing))


# ---------------------------------------------------------------------------
# Guarded-composition checks
# ---------------------------------------------------------------------------


def adx_bound(alpha: Fraction, span: Fraction, d: Fraction, x: Fraction) -> Fraction:
    """max{2*alpha(S)+1, (2d-x)/x, (2*span+d+x)/(d-x)} for the guarded rule,
    given alpha(S) and span(S) of the base layout S."""
    return max(2 * alpha + 1, (2 * d - x) / x, (2 * span + d + x) / (d - x))


def sweep_adx(
    builder: RuleBuilder,
    layout: ServerLayout,
    d: Fraction,
    x: Fraction,
    trials: int = 1000,
    seed: int = 0,
) -> PropertyReport:
    """Random unit-capacity sweeps of the guarded composition.

    Besides the cost bound, opposite-classified runs are checked for the
    structural facts the bound's derivation leans on: at most two requests
    ever land in the guarded zone (s_k + x, s_k + d], and runs with exactly
    one such request stay within 2*alpha(S)+1.
    """
    rule, extended = guard_rule(builder(layout), layout, d, x)
    inst = unit_instance(extended)
    alpha = alpha_fast(layout).alpha
    bound = adx_bound(alpha, layout.span, d, x)
    zone_lo = layout.positions[-1] + x
    zone_hi = layout.positions[-1] + d
    rng = random.Random(seed)
    report = PropertyReport(name="adx-bound")
    report.details["bound"] = str(bound)
    lo = extended.positions[0]
    for _ in range(trials):
        n = extended.k
        seq = RequestSequence(
            tuple(random_rational(rng, lo, zone_hi) for _ in range(n))
        )
        trace = simulate(rule, inst, seq)
        opt = optimal_cost(inst, seq)
        rate = compute_rate(trace.total_cost, opt.cost)
        report.trials += 1
        if rate == INF or rate > bound:
            report.violations.append(
                _reproducer(inst, seq, rate=str(rate), bound=str(bound))
            )
            continue
        classification = check_opposite(trace, opt, seq, extended)
        if classification.opposite:
            m = sum(1 for r in seq if zone_lo < r <= zone_hi)
            if m > 2:
                report.violations.append(
                    _reproducer(inst, seq, zone_count=m, reason="opposite with m > 2")
                )
            if m == 1 and rate != INF and rate > 2 * alpha + 1:
                report.violations.append(
                    _reproducer(
                        inst, seq, rate=str(rate), reason="m = 1 exceeded 2*alpha+1"
                    )
                )
    return report


# ---------------------------------------------------------------------------
# Exhaustive grid search
# ---------------------------------------------------------------------------


#: Most DFS nodes one grid search may visit: every tuple of up to
#: ``min(n_max, total capacity)`` grid points is a node.  Criterion 3(b) at
#: k=4 visits 597,871 (9 points, depth 6) and ``ofal verify capacity`` at
#: its defaults at most 637,421 (28 points, depth 4).  On a 2-core x86
#: VM with CPython 3.11 (best of five, five runs) the k=4 search takes
#: 0.2-0.35 s, and ``verify capacity``'s two default walks (813,802 nodes
#: together) 0.3-0.55 s with either rule.
GRID_SEARCH_MAX_NODES = 700_000
#: Most levels one grid search may descend: the walk recurses once per
#: level.  Two or more points hit the node guard before level 20, so
#: only a one-point grid can go deeper.
GRID_SEARCH_MAX_DEPTH = 256
#: Most points x slots x scale digits one grid search's memo fill may
#: hold, the scale's digits counted from its bit length: the fill holds
#: a distance per point and slot, each with about as many digits as the
#: grid's common scale.  ``ofal verify capacity
#: --instance --n-max 1`` on 300 random integer servers in [0, 10^6)
#: measures 2392 x 300 x 442 = 3.2e8 and peaks at 183 MB RSS; on 450 it
#: measures 3598 x 450 x 585 = 9.5e8 and peaked at 488 MB before this
#: guard, so the limit allows about 270 MB.  Criterion 8's defaults stay
#: under 2,400 and the benchmark's grids under 600.
GRID_FILL_MAX_SIZE = 500_000_000


@dataclass
class GridSearchResult:
    """Worst measured ratio over all grid sequences up to a length cap."""

    best_rate: Fraction
    best_sequence: tuple[Fraction, ...]
    nodes: int
    zero_opt_anomalies: list[dict] = field(default_factory=list)


def grid_search_max_rate(
    rule: PriorityRule,
    inst: Instance,
    points: tuple[Fraction, ...],
    n_max: int,
) -> GridSearchResult:
    """Exhaustively walk all request tuples over the grid (depth-first, so
    every prefix is also evaluated) and return the maximum exact rate.

    A state where the optimum is zero but the algorithm paid is recorded
    as an anomaly: for the rules in this package it must never happen.

    The walk runs on the scaled integers of ``core.scale_to_ints``.  The
    optimum depends only on the multiset of chosen points, so
    ``offline.multiset_optima`` fills, before the walk, one child row per
    multiset below the last level: the optima of that multiset plus each
    point, in the caller's point order.  It also returns each point's key
    weight, so callers may pass the points unsorted or repeated, and each
    point's distances to the servers.  A node reads its row once, at its
    multiset's key, and asks the rule for all of its children's picks in
    one call of ``rule.picks(points)``, the rule's batch or one ``decide``
    per point, before any child recurses.  It rates its children in its
    own loop over the points, their picks and its row, so a leaf costs
    its share of its parent's batch, one pick check and one distance
    read; only children above the last level recurse, with key + weight.
    Rates are compared as integer cross products, keeping the first
    maximiser, and only the result is a Fraction.  Rule decisions are
    never cached: this search is the exhaustive check of a rule, and a
    cache would hide a rule that is not pure, so every node decides every
    child against its own free tuple.  The rule gets ``simulate``'s
    increasing free tuple and O(1) pick check.  Raises ValidationError
    for a negative ``n_max``, SizeGuardError above GRID_SEARCH_MAX_NODES,
    GRID_SEARCH_MAX_DEPTH or GRID_FILL_MAX_SIZE, and RuleError, as
    ``simulate`` does, for a pick that is not a free server.
    """
    if n_max < 0:
        raise ValidationError(f"grid search depth n_max={n_max} is negative")
    n_points = len(points)
    depth_cap = min(n_max, inst.total_capacity) if n_points else 0
    if depth_cap > GRID_SEARCH_MAX_DEPTH:
        raise SizeGuardError(
            f"grid search guard: depth {depth_cap} exceeds {GRID_SEARCH_MAX_DEPTH} levels"
        )
    total = level = 1  # nodes to the current depth; an empty grid has one
    for _ in range(depth_cap):
        level *= n_points
        total += level
        if total > GRID_SEARCH_MAX_NODES:
            raise SizeGuardError(
                f"grid search guard: {n_points} points to depth {depth_cap} "
                f"exceed {GRID_SEARCH_MAX_NODES} nodes"
            )
    # The fill is sized from the common scale before any point is scaled.
    scale = lcm(*{v.denominator for v in (*inst.layout.positions, *points)})
    slots = sum(min(c, depth_cap) for c in inst.capacities)
    digits = scale.bit_length() * 30103 // 100000 + 1
    if n_points * slots * digits > GRID_FILL_MAX_SIZE:
        raise SizeGuardError(
            f"grid search guard: {n_points} points x {slots} slots x {digits} scale digits "
            f"exceed {GRID_FILL_MAX_SIZE}"
        )
    servers_int, points_int, _ = scale_to_ints(inst.layout.positions, points)
    k = inst.k
    rows, weight, dist = multiset_optima(servers_int, inst.capacities, points_int, depth_cap)
    steps = tuple(zip(points, weight, dist))
    remaining = list(inst.capacities)
    chosen: list[Fraction] = []
    anomalies: list[dict] = []
    best_alg, best_opt, best_sequence = 0, 1, ()  # the best rate is alg / opt
    nodes = 1
    last = depth_cap - 1
    picks = rule.picks(points)

    def dfs(depth: int, key: int, alg_int: int, free: tuple[int, ...]) -> None:
        nonlocal best_alg, best_opt, best_sequence, nodes
        inner = depth < last
        nodes += n_points
        for (p, w, to_server), j, opt in zip(steps, picks(free), rows[key]):
            if not (type(j) is int and 0 <= j < k and remaining[j] > 0):
                raise RuleError(f"rule {rule.id!r} chose non-free server {j} for request {p}")
            alg = alg_int + to_server[j]
            if opt:
                if alg * best_opt > best_alg * opt:
                    best_alg, best_opt, best_sequence = alg, opt, (*chosen, p)
            elif alg:
                anomalies.append(
                    {"sequence": [str(q) for q in chosen] + [str(p)], "alg_cost": str(Fraction(alg, scale))}
                )
            elif best_opt > best_alg:  # rate 1: both costs are zero
                best_alg, best_opt, best_sequence = 1, 1, (*chosen, p)
            if inner:
                remaining[j] -= 1
                child = free
                if remaining[j] == 0:
                    c = bisect_left(free, j)
                    child = free[:c] + free[c + 1:]
                chosen.append(p)
                dfs(depth + 1, key + w, alg, child)
                chosen.pop()
                remaining[j] += 1

    if depth_cap:
        dfs(0, 0, 0, tuple(range(k)))
    # dfs refers to itself; breaking that cycle frees the memo here, not
    # at the next full garbage collection.
    del dfs
    return GridSearchResult(
        best_rate=Fraction(best_alg, best_opt),
        best_sequence=best_sequence,
        nodes=nodes,
        zero_opt_anomalies=anomalies,
    )


def capacity_insensitivity_probe(
    builder: RuleBuilder,
    layout: ServerLayout,
    max_capacity: int,
    grid: tuple[Fraction, ...] | None = None,
    n_max: int = 4,
) -> PropertyReport:
    """One-sided probe: the worst grid-search rate with uniform capacity
    ``max_capacity`` must not exceed the worst rate with unit capacities
    over the same candidate grid and length cap."""
    if grid is None:
        grid = candidate_points(layout)
    rule = builder(layout)
    unit = grid_search_max_rate(rule, unit_instance(layout), grid, n_max)
    heavy_inst = Instance(layout, (max_capacity,) * layout.k)
    heavy = grid_search_max_rate(rule, heavy_inst, grid, n_max)
    report = PropertyReport(name="capacity-insensitivity")
    report.trials = unit.nodes + heavy.nodes
    report.details = {
        "unit_worst_rate": str(unit.best_rate),
        "unit_worst_sequence": [str(q) for q in unit.best_sequence],
        "capacity": max_capacity,
        "heavy_worst_rate": str(heavy.best_rate),
        "heavy_worst_sequence": [str(q) for q in heavy.best_sequence],
    }
    for anomaly in unit.zero_opt_anomalies + heavy.zero_opt_anomalies:
        report.violations.append({"zero_opt": anomaly})
    if heavy.best_rate > unit.best_rate:
        report.violations.append(
            {
                "reason": "capacity increased the worst rate",
                "unit": str(unit.best_rate),
                "heavy": str(heavy.best_rate),
            }
        )
    return report
