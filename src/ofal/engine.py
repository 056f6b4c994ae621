"""The one simulation loop for online assignment rules.

A rule sees the request position and the current free servers, as the
tuple of their indices in increasing order, and must name a free server.
The simulator owns all capacity bookkeeping; a rule that names a
non-free server is a hard error, not a recoverable one.  Priority rules
decide from those two inputs alone; the permutation rule and hybrid
runs use stateful deciders that also depend on the history.  A priority
rule may also give its picks for a fixed list of positions against any
free tuple in one call (``PriorityRule.picks``), which the exhaustive
grid search asks once per node; a rule without such a batch gets one
derived from ``decide`` here.  Whether a
rule really is of the fixed-priority kind (one total order per request
position) is checked empirically, by a helper of the test suite.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Sequence
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
    scaled_pair,
)

DecideFn = Callable[[Fraction, tuple[int, ...]], int]
#: A free tuple to one pick per position of a fixed list, in its order.
PicksFn = Callable[[tuple[int, ...]], list[int]]


@dataclass(frozen=True)
class PriorityRule:
    """A pure decision function plus a name for reports.

    ``batch``, if given, takes a list of strictly increasing request
    positions and returns a ``PicksFn``: for any free tuple, the servers
    ``decide`` picks for those positions, in the list's order.  It
    may prepare once what depends only on the layout and the positions;
    every call still decides every position against its own free tuple.
    """

    id: str
    decide: DecideFn
    batch: Callable[[Sequence[Fraction]], PicksFn] | None = None

    def picks(self, points: Sequence[Fraction]) -> PicksFn:
        """The rule's ``batch`` for ``points``, or else one ``decide`` call
        per point."""
        if self.batch is not None:
            return self.batch(points)
        decide = self.decide
        return lambda free: [decide(p, free) for p in points]


class _TupleView(Sequence):
    """A read-only sequence whose items are derived on read.  Equality,
    hash and repr are those of the tuple of its items, so a view equals
    the eager tuple it stands for, in either operand order."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _TupleView)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _RemainingRows(_TupleView):
    """``AssignmentTrace.remaining_after`` kept as its capacities and
    assignment.  Row t, the capacities less the matches ``assignment[:t + 1]``,
    is derived on read in O(k + t); iteration walks the rows in O(k) each."""

    __slots__ = ("_capacities", "_assignment")

    def __init__(self, capacities: tuple[int, ...], assignment: tuple[int, ...]) -> None:
        self._capacities, self._assignment = capacities, assignment

    def __len__(self) -> int:
        return len(self._assignment)

    def __getitem__(self, t: int) -> tuple[int, ...]:
        row = list(self._capacities)
        for j in self._assignment[: range(len(self))[operator.index(t)] + 1]:
            row[j] -= 1
        return tuple(row)

    def __iter__(self):
        row = list(self._capacities)
        for j in self._assignment:
            row[j] -= 1
            yield tuple(row)


class _StepCosts(_TupleView):
    """``AssignmentTrace.per_step_cost`` kept as integer costs over one
    scale.  Cost t is the Fraction ``costs[t] / scale``, built on read."""

    __slots__ = ("_costs", "_scale")

    def __init__(self, costs: tuple[int, ...], scale: int) -> None:
        self._costs, self._scale = costs, scale

    def __len__(self) -> int:
        return len(self._costs)

    def __getitem__(self, t: int) -> Fraction:
        return Fraction(self._costs[operator.index(t)], self._scale)

    def __iter__(self):
        return (Fraction(c, self._scale) for c in self._costs)


def simulate(rule: PriorityRule, inst: Instance, seq: RequestSequence) -> AssignmentTrace:
    """Run a rule over a sequence, recording matches, costs and free sets.

    The rule sees the free servers as one increasing tuple, rebuilt only
    when a server runs out.  A pick must be an int j, 0 <= j < k, with
    capacity left, else RuleError: one O(1) check, repeated inline by the
    grid search.  Costs are summed on
    ``scaled_pair``'s integers and divided by its scale once, for the
    total.  The trace stores O(n + k): ``remaining_after`` derives its
    rows, and ``per_step_cost`` its Fractions, on read.
    """
    servers, requests, scale = scaled_pair(inst, seq)
    k, remaining = inst.k, list(inst.capacities)
    free = tuple(range(k))
    assignment: list[int] = []
    costs: list[int] = []
    for r, rs in zip(seq, requests):
        j = rule.decide(r, free)
        if not (type(j) is int and 0 <= j < k and remaining[j] > 0):
            raise RuleError(f"rule {rule.id!r} chose non-free server {j} for request {r}")
        remaining[j] -= 1
        if remaining[j] == 0:
            i = bisect_left(free, j)
            free = free[:i] + free[i + 1:]
        assignment.append(j)
        costs.append(abs(rs - servers[j]))
    matched = tuple(assignment)
    return AssignmentTrace(
        assignment=matched,
        remaining_after=_RemainingRows(inst.capacities, matched),
        per_step_cost=_StepCosts(tuple(costs), scale),
        total_cost=Fraction(sum(costs), scale),
    )


def surrounding_servers(
    r: Fraction, free: tuple[int, ...], layout: ServerLayout
) -> tuple[int | None, int | None]:
    """Closest free server on each side of a request position; ptcp and
    greedy (``algorithms.surrounding_rule``) each pick one of the two.

    When the request sits exactly on a free server, that server is the
    only surrounding server and is returned on both sides.  Index order is
    position order: one bisection of ``layout.scaled`` finds the first
    server p at or right of r = rn/rd (the first int >= ceil(rn*scale/rd);
    r is on it iff int*rd == rn*scale), and one bisection of the free
    tuple at p gives both answers, free[i - 1] and free[i].  A call costs
    one integer ceiling division, O(log k + log f) int comparisons for f
    free servers and at most one exact-hit product; it walks no used
    server and does no Fraction arithmetic.
    """
    if not free:
        raise ValidationError("surrounding servers undefined for an empty free set")
    ints, scale = layout.scaled
    rs, rd = r.numerator * scale, r.denominator
    p = bisect_left(ints, -(-rs // rd))
    i = bisect_left(free, p)
    right = free[i] if i < len(free) else None
    if right == p and ints[p] * rd == rs:
        return (p, p)
    return (free[i - 1] if i else None, right)

