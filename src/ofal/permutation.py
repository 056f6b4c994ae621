"""The prefix-optimum follower: match each request to the unique server
slot that enters the optimal matching of the prefix seen so far.

Each arrival raises exactly one server's load by one, and that server is
the irrevocable online match for the request, even though the hindsight
optimum of the prefix may place the request itself elsewhere.  It is the
leftmost spare server j that minimises the optimum of the prefix, new
request included, under capacities loads + e_j, where ``loads`` counts
the rule's earlier picks.  So the pick depends on the loads alone, and it
has a closed form on the line, in three steps:

1. The capacities loads + e_j sum to the number of requests, so every
   server is exactly full in every feasible assignment.
2. With the loads fixed, a non-crossing assignment is optimal on a line:
   the sorted requests fill the sorted slots, server x owning loads[x]
   (plus one for j) slots at its position.
3. Let ``held`` be the sorted requests and ``slots`` the slot positions
   of the fill by ``loads``, one fewer.  Server j's extra slot goes in at
   T_j = loads[0] + ... + loads[j], so the requests before T_j keep their
   slot, request T_j takes s_j and every later one moves up by one.  With
   W[t] the cost of held[0..t-1] on slots[0..t-1] less that of
   held[1..t] on the same slots, the fill under loads + e_j costs
   W[T_j] + |held[T_j] - s_j| plus the cost of all of held[1..] on
   ``slots``, a term shared by every j.

The rule runs through ``engine.simulate`` with a history-dependent
decider: its choice depends on the whole history, not just (position,
free set), so it has no fixed priority order to check.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import accumulate, islice
from operator import sub

from .core import AssignmentTrace, Instance, RequestSequence, scaled_pair
from .engine import PriorityRule, simulate


def permutation_run(inst: Instance, seq: RequestSequence) -> AssignmentTrace:
    """Run the algorithm over a whole sequence.

    Scales the pair once.  Each request is inserted into the sorted
    ``held``, W comes from two C-level passes over ``held`` and ``slots``,
    and the free servers are walked in increasing order, keeping the
    first minimum of W[T_j] + |held[T_j] - s_j|; the pick's slot then
    joins ``slots``.  ``ends[j]`` is T_j.  A request costs O(n + k),
    with no flow search.
    """
    servers, requests, _ = scaled_pair(inst, seq)
    loads = [0] * inst.k
    held: list[int] = []   # the requests so far, sorted
    slots: list[int] = []  # server x's position loads[x] times, increasing
    scaled = iter(requests)

    def decide(r: Fraction, free: tuple[int, ...]) -> int:
        insort(held, next(scaled))
        own = accumulate(map(abs, map(sub, held, slots)), initial=0)
        moved = accumulate(map(abs, map(sub, islice(held, 1, None), slots)), initial=0)
        W = list(map(sub, own, moved))
        ends = list(accumulate(loads))
        best = pick = None
        for j in free:
            t = ends[j]
            cost = W[t] + abs(held[t] - servers[j])
            if best is None or cost < best:
                best, pick = cost, j
        slots.insert(ends[pick], servers[pick])
        loads[pick] += 1
        return pick

    return simulate(PriorityRule("permutation", decide), inst, seq)
