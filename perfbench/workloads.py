"""The four benchmark workloads: seeded inputs and self-checking items.

Each workload builds one *round*, a fixed list of items, from the seed.
An item calls into the program through the tracer and returns its
correctness problems (empty when every check passed) and a canonical text
of its exact outputs, which feeds the output digest.

The benchmark owns its inputs: layouts, capacities and uniform / mixture
request sequences come from the stdlib generators below, not from
``ofal.adversary``, so a change to the program's generators cannot change
a workload.  The opposite-biased distribution and the named adversary
constructions are measured layers and stay program calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ofal.adversary import candidate_points, random_sequences
from ofal.algorithms import greedy_rule, ptcp_rule
from ofal.alpha import alpha_bruteforce, alpha_fast
from ofal.core import Instance, RequestSequence, ServerLayout, unit_instance
from ofal.engine import simulate
from ofal.harness import ExperimentConfig, reproduce, run_experiment
from ofal.hybrid import check_chain_monotone, check_transition_rules, run_hybrid
from ofal.offline import noncrossing_dp_cost, optimal_bruteforce, optimal_cost
from ofal.permutation import permutation_run
from ofal.verify import capacity_insensitivity_probe, grid_search_max_rate


@dataclass(frozen=True)
class Item:
    """One unit of work: ``run(tracer, *args)`` -> (problems, output text)."""

    id: str
    run: Callable
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Item]]
    #: Fixed per workload so that every run and commit reports the same
    #: percentile, one that leaves at least ten items beyond it: p99 of
    #: sweep-small's 2460 items (the highest of p90/p99/p99.9 that does),
    #: p76 of oracle-prefix's 42 (the highest that does), and p50 where a
    #: round has too few items for any.
    tail_percentile: float


# ---------------------------------------------------------------------------
# Input generators (stdlib only)
# ---------------------------------------------------------------------------


def gen_layout(rng: random.Random, k: int, den: int, hull: int) -> ServerLayout:
    """k distinct sorted rationals with denominator ``den`` in [0, hull]."""
    ticks = sorted(rng.sample(range(hull * den + 1), k))
    return ServerLayout(tuple(Fraction(t, den) for t in ticks))


def gen_caps(rng: random.Random, k: int, cap_max: int, at_least: int = 0) -> tuple[int, ...]:
    """Capacities in [1, cap_max], raised one unit at a time until they sum
    to ``at_least``; past cap_max only once every server is at it."""
    caps = [rng.randint(1, cap_max) for _ in range(k)]
    while sum(caps) < at_least:
        open_ = [j for j in range(k) if caps[j] < cap_max] or range(k)
        caps[rng.choice(open_)] += 1
    return tuple(caps)


def gen_requests(rng: random.Random, layout: ServerLayout, n: int, dist: str) -> RequestSequence:
    """``uniform``: 1/1024-grid points over the server hull.
    ``mixture``: a random server plus noise within half the smallest gap."""
    positions = layout.positions
    lo, hi = positions[0], positions[-1]
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    if dist == "uniform":
        return RequestSequence(
            tuple(lo + Fraction(rng.randint(0, 1024), 1024) * (hi - lo) for _ in range(n))
        )
    spread = min((b - a for a, b in zip(positions, positions[1:])), default=Fraction(1))
    return RequestSequence(
        tuple(
            rng.choice(positions) + (Fraction(rng.randint(0, 64), 64) - Fraction(1, 2)) * spread
            for _ in range(n)
        )
    )


# ---------------------------------------------------------------------------
# Independent checks
# ---------------------------------------------------------------------------


def assignment_problems(
    inst: Instance, seq: RequestSequence, assignment: tuple[int, ...], cost: Fraction, who: str
) -> list[str]:
    """Recheck a request -> server map: complete, within capacity, and
    its distances summing exactly to the reported cost."""
    if len(assignment) != len(seq):
        return [f"{who}: {len(assignment)} matches for {len(seq)} requests"]
    used = [0] * inst.k
    total = Fraction(0)
    positions = inst.layout.positions
    for r, j in zip(seq.requests, assignment):
        if not 0 <= j < inst.k:
            return [f"{who}: server index {j} out of range"]
        used[j] += 1
        total += abs(r - positions[j])
    problems = []
    if any(u > c for u, c in zip(used, inst.capacities)):
        problems.append(f"{who}: a server is over capacity")
    if total != cost:
        problems.append(f"{who}: reported cost {cost} but distances sum to {total}")
    return problems


def bound_problems(alg: Fraction, opt: Fraction, alpha: Fraction, who: str) -> list[str]:
    """ptcp <= (2*alpha+1)*OPT, no zero-OPT anomaly, and OPT <= alg."""
    if opt == 0:
        return [f"{who}: zero-OPT anomaly, paid {alg}"] if alg != 0 else []
    problems = []
    if alg > (2 * alpha + 1) * opt:
        problems.append(f"{who}: cost {alg} exceeds (2*{alpha}+1)*{opt}")
    if alg < opt:
        problems.append(f"{who}: cost {alg} below the optimum {opt}")
    return problems


def span_over_max_gap(points: list[Fraction]) -> Fraction:
    if len(points) <= 1:
        return Fraction(0)
    gap = max(b - a for a, b in zip(points, points[1:]))
    return (points[-1] - points[0]) / gap if gap else Fraction(0)


def reproduce_item(t, table: str, k: int | None):
    result = t.call(f"harness.reproduce.{table}", reproduce, table, k)
    problems = [f"reproduce {table}: row {row['algorithm']} not ok" for row in result["rows"] if not row["ok"]]
    return problems, repr(result)


# ---------------------------------------------------------------------------
# sweep-small
# ---------------------------------------------------------------------------


def _first_opposite(inst: Instance, n: int, seed: int) -> RequestSequence:
    return next(random_sequences(inst, n, seed, "opposite", 1))


def ratio_triple(t, inst: Instance, seq: RequestSequence | None, n: int, seed: int):
    """Criterion 3(a): one (layout, capacities, sequence) through ptcp."""
    if seq is None:
        seq = t.call("adversary.random_sequences.opposite", _first_opposite, inst, n, seed)
    rule = t.call("algorithms.ptcp_rule", ptcp_rule, inst.layout)
    trace = t.call("engine.simulate.ptcp", simulate, rule, inst, seq, work=len(seq))
    opt = t.call("offline.noncrossing_dp_cost", noncrossing_dp_cost, inst, seq)
    alpha = t.call("alpha.alpha_fast", alpha_fast, inst.layout).alpha
    problems = assignment_problems(inst, seq, trace.assignment, trace.total_cost, "ptcp")
    problems += bound_problems(trace.total_cost, opt, alpha, "ptcp")
    return problems, f"{seq.requests} {alpha} {opt} {trace.total_cost} {trace.assignment}"


def hybrid_draw(t, inst: Instance, seq: RequestSequence, i: int, pick: int):
    """Criterion 5: force a different free server at step i and check the chains."""
    rule = t.call("algorithms.ptcp_rule", ptcp_rule, inst.layout)
    base = t.call("engine.simulate.ptcp", simulate, rule, inst, seq, work=len(seq))
    problems = assignment_problems(inst, seq, base.assignment, base.total_cost, "ptcp")
    t.count("hybrid.drawn")
    free = set(range(inst.k)) - set(base.assignment[:i])
    candidates = sorted(free - {base.assignment[i]})
    if problems or not candidates:
        return problems, f"{base.assignment} -"
    s = candidates[pick % len(candidates)]
    ht = t.call("hybrid.run_hybrid", run_hybrid, rule, inst, seq, i, s)
    t.count("hybrid.checked")
    rules = t.call("hybrid.check_transition_rules", check_transition_rules, ht)
    mono = t.call("hybrid.check_chain_monotone", check_chain_monotone, ht, inst.layout)
    problems += [f"hybrid transition: {v}" for v in rules.violations]
    if mono.precondition_met:
        t.count("hybrid.monotone_precondition")
        problems += [f"hybrid monotone: {v}" for v in mono.violations]
    return problems, (
        f"{base.assignment} {s} {ht.hybrid.assignment} {ht.a_chain} {ht.h_chain} "
        f"{ht.t_star} {ht.merged} {mono.precondition_met}"
    )


EXPERIMENT_ALGORITHMS = ("greedy", "permutation", "ptcp")


def experiment(t, config: ExperimentConfig):
    """One ``ofal run`` trial with a random source and no output files."""
    result = t.call("harness.run_experiment", run_experiment, config)
    problems = [] if result.ok else ["run_experiment reported a bound violation"]
    if tuple(row["algorithm"] for row in result.rows) != EXPERIMENT_ALGORITHMS:
        problems.append("run_experiment rows do not cover every algorithm once")
    for row in result.rows:
        if row["alg_cost"] < row["opt_cost"]:
            problems.append(f"run_experiment: {row['algorithm']} below the optimum")
    return problems, result.csv_text


SWEEP_DISTRIBUTIONS = ("uniform", "mixture", "opposite")
#: 2460 items: p99 leaves 25 beyond it, so the tail is not one seed's few
#: heaviest opposite-biased triples.  A triple's k and its requested n
#: (0-40, clamped to capacity) follow its number, not the seed, which
#: halves the tail's spread across seeds.
SWEEP_BLOCKS = 600


def build_sweep_small(seed: int) -> list[Item]:
    rng = random.Random(f"sweep-small/{seed}")
    items: list[Item] = []
    for block in range(SWEEP_BLOCKS):
        for d, dist in enumerate(SWEEP_DISTRIBUTIONS):
            number = 3 * block + d
            k = number % 10 + 1
            layout = gen_layout(rng, k, den=8, hull=16)
            inst = Instance(layout, gen_caps(rng, k, 5))
            n = min(number * 7 % 41, inst.total_capacity)
            seq = None if dist == "opposite" else gen_requests(rng, layout, n, dist)
            seq_seed = rng.randrange(2**31)
            items.append(Item(f"ratio{number}-{dist}", ratio_triple, (inst, seq, n, seq_seed)))
        k = block % 7 + 2
        layout = gen_layout(rng, k, den=4, hull=20)
        seq = gen_requests(rng, layout, k, "uniform")
        items.append(
            Item(
                f"hybrid{block}",
                hybrid_draw,
                (unit_instance(layout), seq, rng.randrange(k), rng.randrange(2**31)),
            )
        )
        if block % 10 == 9:
            config = ExperimentConfig(
                algorithms=("ptcp", "greedy", "permutation"),
                instance_source={"kind": "random", "k_max": 6, "cap_max": 3},
                sequence_source={
                    "kind": "random",
                    "n_max": 10,
                    "distribution": SWEEP_DISTRIBUTIONS[block // 10 % 3],
                },
                seed=rng.randrange(2**31),
                jobs=1,
            )
            items.append(Item(f"run{block // 10}", experiment, (config,)))
    return items


# ---------------------------------------------------------------------------
# grid-exhaustive
# ---------------------------------------------------------------------------


def grid_case(t, inst: Instance, points: tuple[Fraction, ...], n_max: int, nodes: int, worst: Fraction):
    """Criterion 3(b): exhaustive grid search with pinned state count and worst rate."""
    rule = t.call("algorithms.ptcp_rule", ptcp_rule, inst.layout)
    result = t.call(
        "verify.grid_search_max_rate",
        grid_search_max_rate,
        rule,
        inst,
        points,
        n_max,
        work=lambda r: r.nodes,
    )
    alpha = t.call("alpha.alpha_fast", alpha_fast, inst.layout).alpha
    problems = []
    if result.nodes != nodes:
        problems.append(f"grid k={inst.k}: {result.nodes} states, pinned {nodes}")
    if result.best_rate != worst:
        problems.append(f"grid k={inst.k}: worst rate {result.best_rate}, pinned {worst}")
    if result.best_rate > 2 * alpha + 1:
        problems.append(f"grid k={inst.k}: worst rate {result.best_rate} above 2*{alpha}+1")
    if result.zero_opt_anomalies:
        problems.append(f"grid k={inst.k}: zero-OPT anomalies")
    return problems, f"{result.nodes} {result.best_rate} {result.best_sequence}"


PROBE_RULES = {"greedy": greedy_rule, "ptcp": ptcp_rule}


def capacity_probe(t, rule_name: str, layout: ServerLayout, capacity: int):
    """Criterion 8: a larger uniform capacity must not raise the worst rate."""
    report = t.call(
        "verify.capacity_insensitivity_probe",
        capacity_insensitivity_probe,
        PROBE_RULES[rule_name],
        layout,
        capacity,
        None,
        4,
    )
    problems = [f"capacity probe {rule_name} k={layout.k} c={capacity}: {v}" for v in report.violations]
    if rule_name == "greedy" and layout.k == 2:
        if Fraction(report.details["unit_worst_rate"]) < 3 - Fraction(1, 100):
            problems.append("greedy unit worst rate at k=2 below 299/100")
    return problems, repr(report.to_dict())


#: Criterion 3(b) cases: positions, capacities, offsets, pinned states, worst rate.
GRID_CASES = (
    ((0, 1), (3, 3), True, 137257, Fraction(3)),
    ((0, 1, 3), (2, 2, 2), False, 55987, Fraction(4)),
)
PROBE_LAYOUTS = ((0, 1), (0, 1, 3))


def build_grid_exhaustive(seed: int) -> list[Item]:
    """The seed picks a positive affine map of the coordinates.  State
    counts and worst rates are invariant under it, so the pinned values
    hold for every seed while the exact inputs differ."""
    rng = random.Random(f"grid-exhaustive/{seed}")
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    shift = Fraction(rng.randint(-99, 99), rng.randint(1, 9))

    def mapped(base) -> ServerLayout:
        return ServerLayout(tuple(scale * p + shift for p in base))

    items = []
    for base, caps, offsets, nodes, worst in GRID_CASES:
        layout = mapped(base)
        points = candidate_points(layout, include_offsets=offsets)
        items.append(
            Item(f"grid-k{len(base)}", grid_case, (Instance(layout, caps), points, 6, nodes, worst))
        )
    for rule_name in PROBE_RULES:
        for base in PROBE_LAYOUTS:
            for capacity in (2, 3):
                items.append(
                    Item(
                        f"probe-{rule_name}-k{len(base)}-c{capacity}",
                        capacity_probe,
                        (rule_name, mapped(base), capacity),
                    )
                )
    items.append(Item("reproduce-tightness-k2", reproduce_item, ("tightness-k2", None)))
    return items


# ---------------------------------------------------------------------------
# online-large
# ---------------------------------------------------------------------------


def large_instance(t, inst: Instance, seq: RequestSequence):
    """ptcp and greedy on one large instance against the DP optimum."""
    n = len(seq)
    alpha = t.call("alpha.alpha_fast", alpha_fast, inst.layout).alpha
    rule = t.call("algorithms.ptcp_rule", ptcp_rule, inst.layout)
    ptcp = t.call("engine.simulate.ptcp", simulate, rule, inst, seq, work=n)
    greedy = t.call("engine.simulate.greedy", simulate, greedy_rule(inst.layout), inst, seq, work=n)
    opt = t.call("offline.noncrossing_dp_cost", noncrossing_dp_cost, inst, seq)
    problems = assignment_problems(inst, seq, ptcp.assignment, ptcp.total_cost, "ptcp")
    problems += assignment_problems(inst, seq, greedy.assignment, greedy.total_cost, "greedy")
    problems += bound_problems(ptcp.total_cost, opt, alpha, "ptcp")
    if greedy.total_cost < opt:
        problems.append(f"greedy: cost {greedy.total_cost} below the optimum {opt}")
    return problems, (
        f"{alpha} {opt} {ptcp.total_cost} {greedy.total_cost} {ptcp.assignment} {greedy.assignment}"
    )


LARGE_K = 200
LARGE_N = 1100
#: One instance per distribution keeps a round near 4 s, so a run repeats
#: each instance several times.
LARGE_PER_DISTRIBUTION = 1


def build_online_large(seed: int) -> list[Item]:
    rng = random.Random(f"online-large/{seed}")
    items = []
    for number in range(LARGE_PER_DISTRIBUTION):
        for dist in ("uniform", "mixture"):
            layout = gen_layout(rng, LARGE_K, den=64, hull=1000)
            inst = Instance(layout, gen_caps(rng, LARGE_K, 10, at_least=LARGE_N))
            seq = gen_requests(rng, layout, LARGE_N, dist)
            items.append(Item(f"large{number}-{dist}", large_instance, (inst, seq)))
    items.append(Item("reproduce-thm46-k8", reproduce_item, ("thm46", 8)))
    return items


# ---------------------------------------------------------------------------
# oracle-prefix
# ---------------------------------------------------------------------------


def permutation_case(t, inst: Instance, seq: RequestSequence):
    """The prefix-optimum follower against the DP optimum."""
    trace = t.call(
        "permutation.permutation_run", permutation_run, inst, seq, work=len(seq)
    )
    opt = t.call("offline.noncrossing_dp_cost", noncrossing_dp_cost, inst, seq)
    problems = assignment_problems(inst, seq, trace.assignment, trace.total_cost, "permutation")
    if trace.total_cost < opt:
        problems.append(f"permutation: cost {trace.total_cost} below the optimum {opt}")
    return problems, f"{opt} {trace.total_cost} {trace.assignment}"


def flow_vs_dp(t, inst: Instance, seq: RequestSequence):
    """Min-cost flow against the non-crossing DP."""
    flow = t.call("offline.optimal_cost", optimal_cost, inst, seq)
    dp = t.call("offline.noncrossing_dp_cost", noncrossing_dp_cost, inst, seq)
    problems = assignment_problems(inst, seq, flow.assignment, flow.cost, "flow")
    if flow.cost != dp:
        problems.append(f"flow {flow.cost} != dp {dp}")
    return problems, f"{flow.cost} {flow.assignment}"


def flow_vs_bruteforce(t, inst: Instance, seq: RequestSequence):
    """Min-cost flow against exhaustive enumeration."""
    flow = t.call("offline.optimal_cost", optimal_cost, inst, seq)
    brute = t.call("offline.optimal_bruteforce", optimal_bruteforce, inst, seq)
    problems = assignment_problems(inst, seq, flow.assignment, flow.cost, "flow")
    problems += assignment_problems(inst, seq, brute.assignment, brute.cost, "bruteforce")
    if flow.cost != brute.cost:
        problems.append(f"flow {flow.cost} != bruteforce {brute.cost}")
    return problems, f"{flow.cost} {flow.assignment} {brute.assignment}"


def alpha_pair(t, layout: ServerLayout):
    """Interval scan against the subset oracle; both witnesses must attain alpha."""
    fast = t.call("alpha.alpha_fast", alpha_fast, layout)
    brute = t.call(
        "alpha.alpha_bruteforce", alpha_bruteforce, layout, work=2**layout.k - 1
    )
    problems = []
    if fast.alpha != brute.alpha:
        problems.append(f"alpha_fast {fast.alpha} != alpha_bruteforce {brute.alpha}")
    for name, metrics in (("fast", fast), ("bruteforce", brute)):
        if span_over_max_gap([layout.positions[j] for j in metrics.witness]) != metrics.alpha:
            problems.append(f"alpha_{name} witness does not attain {metrics.alpha}")
    return problems, f"{fast.alpha} {fast.witness} {brute.witness}"


#: 27 instances of one size, k=20 (the middle of 16-24) and n=30:
#: permutation_run's work varies by 10-25% between instances of a size and
#: by ~15% per step of k, so with sizes mixed the p50 and tail items sat on
#: those steps and moved by 15% between seeds.  With one size both ranks
#: fall inside the permutation group and read its quantiles.
ORACLE_PERMUTATION_KS = (20,) * 27
ORACLE_FLOW_DP_SIZES = ((2, 100), (4, 125), (6, 150), (8, 175), (10, 200))
ORACLE_FLOW_BRUTE_KS = (1, 2, 3, 4)
ORACLE_ALPHA_KS = tuple(range(10, 15))


def build_oracle_prefix(seed: int) -> list[Item]:
    rng = random.Random(f"oracle-prefix/{seed}")
    items = []
    for number, k in enumerate(ORACLE_PERMUTATION_KS):
        layout = gen_layout(rng, k, den=64, hull=1000)
        n = 3 * k // 2
        inst = Instance(layout, gen_caps(rng, k, 4, at_least=n))
        seq = gen_requests(rng, layout, n, "uniform")
        items.append(Item(f"permutation{number}-k{k}", permutation_case, (inst, seq)))
    for number, (k, n) in enumerate(ORACLE_FLOW_DP_SIZES):
        layout = gen_layout(rng, k, den=8, hull=24)
        inst = Instance(layout, gen_caps(rng, k, 1, at_least=n))
        items.append(Item(f"flow-dp{number}", flow_vs_dp, (inst, gen_requests(rng, layout, n, "uniform"))))
    for k in ORACLE_FLOW_BRUTE_KS:
        layout = gen_layout(rng, k, den=4, hull=12)
        inst = Instance(layout, gen_caps(rng, k, 3))
        n = min(8, inst.total_capacity)
        items.append(
            Item(f"flow-brute-k{k}", flow_vs_bruteforce, (inst, gen_requests(rng, layout, n, "uniform")))
        )
    for k in ORACLE_ALPHA_KS:
        items.append(Item(f"alpha-k{k}", alpha_pair, (gen_layout(rng, k, den=4, hull=30),)))
    items.append(Item("reproduce-thm47-k5", reproduce_item, ("thm47", 5)))
    return items


#: Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-small", build_sweep_small, 99.0),
        Workload("grid-exhaustive", build_grid_exhaustive, 50.0),
        Workload("online-large", build_online_large, 50.0),
        Workload("oracle-prefix", build_oracle_prefix, 76.0),
    )
}
