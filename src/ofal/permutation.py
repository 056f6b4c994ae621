"""The prefix-optimum follower: match each request to the unique server
slot that enters the optimal matching of the prefix seen so far.

The state is a minimum-cost assignment of all requests so far (the
hindsight optimum of the prefix), kept by the shared shortest augmenting
path engine of ``offline.AugmentingPathEngine``.  Each arrival augments
along one shortest path, which increases exactly one server's used
capacity by one unit; that server is the irrevocable online match for the
request, even though the hindsight optimum may place the request itself
elsewhere.  It is the leftmost spare server j that minimises the
optimum of the prefix, new request included, under capacities
loads + e_j; so it depends on the loads alone, not on which optimal map
the engine holds.  A push is one Dijkstra over the k servers, O(k^2).

The rule runs through ``engine.simulate`` with a history-dependent
decider: its choice depends on the whole history, not just (position,
free set), so it has no fixed priority order to check.
"""

from __future__ import annotations

from fractions import Fraction

from .core import AssignmentTrace, Instance, RequestSequence, scaled_pair
from .engine import PriorityRule, simulate
from .offline import AugmentingPathEngine


def permutation_run(inst: Instance, seq: RequestSequence) -> AssignmentTrace:
    """Run the algorithm over a whole sequence.

    Scales the pair once and pushes each request into one engine; the
    server whose load a push raises is that request's match.
    """
    servers, requests, _ = scaled_pair(inst, seq)
    engine = AugmentingPathEngine(servers, list(inst.capacities))
    scaled = iter(requests)

    def decide(r: Fraction, free: tuple[int, ...]) -> int:
        return engine.push(next(scaled))

    return simulate(PriorityRule("permutation", decide), inst, seq)
