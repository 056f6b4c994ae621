"""The one simulation loop for online assignment rules.

A rule sees the request position and the current free-server set and
must name a free server.  The simulator owns all capacity bookkeeping; a
rule that names a non-free server is a hard error, not a recoverable one.
Priority rules decide from those two inputs alone; the permutation rule
and hybrid runs use stateful deciders that also depend on the history.
Whether a rule really is of the fixed-priority kind (one total order per
request position) is checked empirically by ``derive_priority_order``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    AssignmentTrace,
    Instance,
    RequestSequence,
    RuleError,
    ServerLayout,
    ValidationError,
    validate_pair,
)

DecideFn = Callable[[Fraction, frozenset[int]], int]


@dataclass(frozen=True)
class PriorityRule:
    """A pure decision function plus a name for reports."""

    id: str
    decide: DecideFn


def simulate(rule: PriorityRule, inst: Instance, seq: RequestSequence) -> AssignmentTrace:
    """Run a rule over a sequence, recording matches, costs and free sets."""
    violation = validate_pair(inst, seq)
    if violation is not None:
        raise ValidationError(violation)
    remaining = list(inst.capacities)
    free = set(range(inst.k))
    assignment: list[int] = []
    snapshots: list[tuple[int, ...]] = []
    costs: list[Fraction] = []
    total = Fraction(0)
    positions = inst.layout.positions
    for r in seq:
        j = rule.decide(r, frozenset(free))
        if j not in free:
            raise RuleError(f"rule {rule.id!r} chose non-free server {j} for request {r}")
        remaining[j] -= 1
        if remaining[j] == 0:
            free.remove(j)
        cost = abs(r - positions[j])
        total += cost
        assignment.append(j)
        snapshots.append(tuple(remaining))
        costs.append(cost)
    return AssignmentTrace(
        assignment=tuple(assignment),
        remaining_after=tuple(snapshots),
        per_step_cost=tuple(costs),
        total_cost=total,
    )


def surrounding_servers(
    r: Fraction, free: frozenset[int], layout: ServerLayout
) -> tuple[int | None, int | None]:
    """Closest free server on each side of a request position.

    When the request sits exactly on a free server, that server is the
    only surrounding server and is returned on both sides.  Index order is
    position order, so one bisection of the positions finds where r falls
    and a walk outward to the nearest free index on each side finds the
    two servers.  The bisection runs on ``layout.scaled``: with r = rn/rd,
    the first position >= r is the first scaled int >= ceil(rn*scale/rd),
    and r is on it iff int*rd == rn*scale.  A call costs one integer
    ceiling division, O(log k) int comparisons, at most one exact-hit
    product and one set lookup per server walked past; it scans no free
    set and does no Fraction arithmetic.
    """
    if not free:
        raise ValidationError("surrounding servers undefined for an empty free set")
    ints, scale = layout.scaled
    k = len(ints)
    rs, rd = r.numerator * scale, r.denominator
    right = bisect_left(ints, -(-rs // rd))
    if right < k and right in free and ints[right] * rd == rs:
        return (right, right)
    left = right - 1
    while left >= 0 and left not in free:
        left -= 1
    while right < k and right not in free:
        right += 1
    return (left if left >= 0 else None, right if right < k else None)


def derive_priority_order(
    rule: PriorityRule,
    r: Fraction,
    k: int,
    consistency_trials: int = 1000,
    seed: int = 0,
) -> tuple[int, ...]:
    """Extract the total server order a rule induces at one position.

    Repeatedly asks the rule to pick from the not-yet-ranked servers; the
    pick order is the candidate priority order.  The order is then checked
    on random free sets: the rule must always pick the order-maximum.  An
    inconsistency means the rule's choice depends on more than (position,
    free set restricted through one order) and it is reported as RuleError.
    """
    remaining = set(range(k))
    order: list[int] = []
    while remaining:
        j = rule.decide(r, frozenset(remaining))
        if j not in remaining:
            raise RuleError(f"rule {rule.id!r} chose non-free server {j}")
        order.append(j)
        remaining.remove(j)
    rank = {j: pos for pos, j in enumerate(order)}
    rng = random.Random(seed)
    for _ in range(consistency_trials):
        size = rng.randint(1, k)
        subset = frozenset(rng.sample(range(k), size))
        picked = rule.decide(r, subset)
        expected = min(subset, key=rank.__getitem__)
        if picked != expected:
            raise RuleError(
                f"rule {rule.id!r} is not priority-consistent at r={r}: "
                f"picked {picked} from {sorted(subset)}, order says {expected}"
            )
    return tuple(order)
