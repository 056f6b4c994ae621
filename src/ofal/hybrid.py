"""One-shot deviation ("hybrid") runs and their structural checks.

A hybrid of a rule copies its run but matches one chosen request i to a
different free server s, then resumes the rule.  For unit capacities the
free sets of the two runs afterwards differ by exactly one server each --
the chain a_t free only for the base run and h_t free only for the hybrid
-- until they merge at some step t*.  The chains are extracted here from
free-set snapshots; the case analysis that predicts how they move is
implemented as checks on the extracted chains, never as the extraction
itself, so construction and verification stay independent.

All step indices are 0-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .adversary import random_rational
from .alpha import alpha_fast
from .core import (
    AssignmentTrace,
    Instance,
    RequestSequence,
    ServerLayout,
    ValidationError,
    unit_instance,
)
from .engine import PriorityRule, simulate, surrounding_servers


@dataclass(frozen=True)
class HybridTrace:
    """Base and deviated runs plus the extracted free-set difference chains.

    ``a_chain[t - i]`` is free only for the base run at step t, and
    ``h_chain[t - i]`` free only for the hybrid, for i <= t <= t_star.
    ``merged`` is False when the sequence ended before the free sets
    coincided (then t_star is the last step).
    """

    base: AssignmentTrace
    hybrid: AssignmentTrace
    i: int
    s: int
    a_chain: tuple[int, ...]
    h_chain: tuple[int, ...]
    t_star: int
    merged: bool

    def a_at(self, t: int) -> int:
        return self.a_chain[t - self.i]

    def h_at(self, t: int) -> int:
        return self.h_chain[t - self.i]


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    violations: tuple[str, ...] = ()
    precondition_met: bool = True


def free_before(trace: AssignmentTrace, inst: Instance, t: int) -> tuple[int, ...]:
    """Free servers just before step t of a trace, as an increasing tuple."""
    if t == 0:
        return tuple(range(inst.k))
    return trace.free_after(t - 1)


def run_hybrid(
    rule: PriorityRule,
    inst: Instance,
    seq: RequestSequence,
    i: int,
    s: int,
) -> HybridTrace:
    """Run base and deviated traces and extract the difference chains.

    Requires unit capacities, a forced server s that is free just before
    step i, and s different from the base run's choice.  Raises if the free-set differences ever stop
    being singletons before merging -- for a priority rule that would
    falsify the expected hybrid shape, so it is surfaced loudly.
    """
    if any(c != 1 for c in inst.capacities):
        raise ValidationError("hybrid analysis requires unit capacities")
    n = len(seq)
    if not (0 <= i < n):
        raise ValidationError(f"deviation step {i} outside sequence of length {n}")
    base = simulate(rule, inst, seq)
    if s == base.assignment[i]:
        raise ValidationError("forced server equals the base run's choice; hybrid is degenerate")
    if s not in free_before(base, inst, i):
        raise ValidationError(f"server {s} is not free at step {i}")

    steps = iter(range(n))
    forced = PriorityRule(
        f"{rule.id}-hybrid", lambda r, free: s if next(steps) == i else rule.decide(r, free)
    )
    hybrid = simulate(forced, inst, seq)

    a_chain: list[int] = []
    h_chain: list[int] = []
    t_star = n - 1
    merged = False
    # One walk over both runs' rows; with unit capacities a row is 1
    # exactly where its server is free.
    rows = islice(zip(base.remaining_after, hybrid.remaining_after), i, None)
    for t, (b_row, h_row) in enumerate(rows, i):
        if merged:  # once merged the runs coincide; verify it stays that way
            if b_row != h_row:
                raise ValidationError(f"free sets diverged again at step {t}")
            continue
        only_base = [j for j, (b, h) in enumerate(zip(b_row, h_row)) if b > h]
        only_hyb = [j for j, (b, h) in enumerate(zip(b_row, h_row)) if h > b]
        if not only_base and not only_hyb:
            t_star = t - 1
            merged = True
            continue
        if len(only_base) != 1 or len(only_hyb) != 1:
            raise ValidationError(
                f"free-set difference at step {t} is not a singleton pair: "
                f"{only_base} vs {only_hyb}"
            )
        a_chain.append(only_base[0])
        h_chain.append(only_hyb[0])
    if not a_chain:
        raise ValidationError("difference vanished at the deviation step itself")
    return HybridTrace(
        base=base,
        hybrid=hybrid,
        i=i,
        s=s,
        a_chain=tuple(a_chain),
        h_chain=tuple(h_chain),
        t_star=t_star,
        merged=merged,
    )


def check_transition_rules(ht: HybridTrace) -> CheckResult:
    """Check the step-to-step chain transitions against the predicted cases.

    P1: at most one chain changes per step.  P2: when the base-only chain
    changes at t+1, the base run matched r_{t+1} with the old a_t and the
    hybrid with the new a_{t+1} (symmetrically for the hybrid-only chain).
    P3: at the merging step both runs match r_{t*+1} with their own chain
    heads.
    """
    violations: list[str] = []
    i, t_star = ht.i, ht.t_star
    for t in range(i, t_star):
        a_same = ht.a_at(t) == ht.a_at(t + 1)
        h_same = ht.h_at(t) == ht.h_at(t + 1)
        if not a_same and not h_same:
            violations.append(f"P1: both chains changed at step {t + 1}")
            continue
        if not a_same:
            if ht.base.assignment[t + 1] != ht.a_at(t):
                violations.append(f"P2: base run did not match step {t + 1} with a_t")
            if ht.hybrid.assignment[t + 1] != ht.a_at(t + 1):
                violations.append(f"P2: hybrid did not match step {t + 1} with a_(t+1)")
        if not h_same:
            if ht.base.assignment[t + 1] != ht.h_at(t + 1):
                violations.append(f"P2: base run did not match step {t + 1} with h_(t+1)")
            if ht.hybrid.assignment[t + 1] != ht.h_at(t):
                violations.append(f"P2: hybrid did not match step {t + 1} with h_t")
    if ht.merged:
        t1 = t_star + 1
        if ht.base.assignment[t1] != ht.a_at(t_star):
            violations.append("P3: base run did not match the merging request with a_t*")
        if ht.hybrid.assignment[t1] != ht.h_at(t_star):
            violations.append("P3: hybrid did not match the merging request with h_t*")
    return CheckResult(ok=not violations, violations=tuple(violations))


def check_chain_monotone(ht: HybridTrace, layout: ServerLayout) -> CheckResult:
    """Check outward-monotone chains and gap emptiness between them.

    Applies only when no server strictly between the two step-i choices
    was free just before step i; otherwise the precondition is unmet and
    the result says so without counting a violation.  Under the
    precondition the chains must move monotonically apart (base-only chain
    one way, hybrid-only chain the other) and no common free server may
    ever sit strictly between them.  Index order is position order, so
    the checks compare server indices; the gap check lists stuck servers
    in index order.
    """
    lo0, hi0 = sorted((ht.s, ht.base.assignment[ht.i]))
    if any(lo0 < j < hi0 for j in free_before(ht.base, unit_instance(layout), ht.i)):
        return CheckResult(ok=True, precondition_met=False)

    violations: list[str] = []
    a_chain, h_chain = ht.a_chain, ht.h_chain
    if a_chain[0] <= h_chain[0]:
        lo_chain, hi_chain, lo_name = a_chain, h_chain, "a"
    else:
        lo_chain, hi_chain, lo_name = h_chain, a_chain, "h"
    for t in range(len(a_chain) - 1):
        if lo_chain[t + 1] > lo_chain[t]:
            violations.append(f"chain {lo_name} moved inward at offset {t + 1}")
        if hi_chain[t + 1] < hi_chain[t]:
            violations.append(f"upper chain moved inward at offset {t + 1}")

    rows = islice(zip(ht.base.remaining_after, ht.hybrid.remaining_after), ht.i, ht.t_star + 1)
    for t, (b_row, h_row) in enumerate(rows, ht.i):
        lo, hi = sorted((a_chain[t - ht.i], h_chain[t - ht.i]))
        stuck = [j for j in range(lo + 1, hi) if b_row[j] and h_row[j]]
        if stuck:
            violations.append(f"free servers {stuck} between the chains at step {t}")
    return CheckResult(ok=not violations, violations=tuple(violations))


@dataclass
class HybridSweepReport:
    """Aggregate over many generated hybrids."""

    trials: int = 0
    checked: int = 0
    precondition_unmet: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "checked": self.checked,
            "precondition_unmet": self.precondition_unmet,
            "violations": self.violations,
            "verdict": "ok" if self.ok else "violation",
        }


def c3_candidates(
    layout: ServerLayout,
    base: AssignmentTrace,
    seq: RequestSequence,
    i: int,
) -> list[int]:
    """Deviation servers to test at step i for the threshold condition.

    Normally the surrounding server of r_i other than the rule's own
    choice.  When r_i has a single surrounding server the fallback is the
    nearest other free server on each side of the rule's choice (its
    surrounding servers once it is taken out); both are tested when both
    exist.  Each call is one or two ``surrounding_servers`` calls.
    """
    free = free_before(base, unit_instance(layout), i)
    chosen = base.assignment[i]
    left, right = surrounding_servers(seq[i], free, layout)
    candidates = {j for j in (left, right) if j is not None and j != chosen}
    if not candidates and len(free) > 1:
        c = free.index(chosen)
        candidates = set(surrounding_servers(layout[chosen], free[:c] + free[c + 1:], layout)) - {None}
    return sorted(candidates)


def sweep_hybrid_invariants(
    rule: PriorityRule,
    layout: ServerLayout,
    trials: int = 1000,
    seed: int = 0,
) -> HybridSweepReport:
    """Random hybrids of one rule on one layout, run through the pair-shape,
    transition, and monotone-chain checks."""
    report = HybridSweepReport()
    if layout.k < 2:
        return report
    inst = unit_instance(layout)
    rng = random.Random(seed)
    pos = layout.positions
    lo, hi = pos[0] - 1, pos[-1] + 1
    for _ in range(trials):
        report.trials += 1
        seq = RequestSequence(tuple(random_rational(rng, lo, hi, den=128) for _ in range(layout.k)))
        base = simulate(rule, inst, seq)
        i = rng.randrange(layout.k)
        candidates = [s for s in free_before(base, inst, i) if s != base.assignment[i]]
        if not candidates:
            continue
        s = rng.choice(candidates)
        reproducer = {
            "layout": [str(p) for p in pos],
            "sequence": [str(r) for r in seq],
            "step": i,
            "forced": s,
        }
        try:
            ht = run_hybrid(rule, inst, seq, i, s)
        except ValidationError as exc:
            report.violations.append(dict(reproducer, check="pair-shape", error=str(exc)))
            continue
        report.checked += 1
        trans = check_transition_rules(ht)
        if not trans.ok:
            report.violations.append(dict(reproducer, check="transitions", details=list(trans.violations)))
        mono = check_chain_monotone(ht, layout)
        if not mono.precondition_met:
            report.precondition_unmet += 1
        elif not mono.ok:
            report.violations.append(dict(reproducer, check="monotone", details=list(mono.violations)))
    return report


def check_c3(
    rule: PriorityRule,
    layout: ServerLayout,
    trials: int = 1000,
    seed: int = 0,
) -> HybridSweepReport:
    """Sample full-length unit-capacity runs and check the threshold bound
    |h_t* - r_i| <= alpha * |r_i - a_i| on every admissible hybrid."""
    report = HybridSweepReport()
    if layout.k < 2:
        return report
    inst = unit_instance(layout)
    alpha = alpha_fast(layout).alpha
    rng = random.Random(seed)
    pos = layout.positions
    lo, hi = pos[0], pos[-1]
    pad = (hi - lo) / 2 if hi > lo else Fraction(1)
    for _ in range(trials):
        report.trials += 1
        requests = tuple(random_rational(rng, lo - pad, hi + pad, den=64) for _ in range(layout.k))
        seq = RequestSequence(requests)
        base = simulate(rule, inst, seq)
        i = rng.randrange(layout.k)
        for s in c3_candidates(layout, base, seq, i):
            ht = run_hybrid(rule, inst, seq, i, s)
            lhs = abs(pos[ht.h_at(ht.t_star)] - seq[i])
            rhs = alpha * abs(seq[i] - pos[ht.a_at(ht.i)])
            report.checked += 1
            if lhs > rhs:
                report.violations.append(
                    {
                        "sequence": [str(r) for r in requests],
                        "step": i,
                        "forced": s,
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                        "layout": [str(p) for p in pos],
                    }
                )
    return report
