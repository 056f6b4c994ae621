"""The prefix-optimum follower: match each request to the unique server
slot that enters the optimal matching of the prefix seen so far.

The state is a minimum-cost assignment of all requests so far (the
hindsight optimum of the prefix), kept by the shared shortest augmenting
path engine of ``offline.AugmentingPathEngine``.  Each arrival augments
along one shortest path, which increases exactly one server's used
capacity by one unit; that server is the irrevocable online match for the
request, even though the hindsight optimum may place the request itself
elsewhere.

The rule runs through ``engine.simulate`` with a history-dependent
decider: its choice depends on the whole history, not just (position,
free set), so ``derive_priority_order`` does not apply to it.
"""

from __future__ import annotations

from fractions import Fraction

from .core import AssignmentTrace, Instance, RequestSequence, ValidationError, validate_pair
from .engine import PriorityRule, simulate
from .offline import AugmentingPathEngine, _scaled_problem, noncrossing_dp_cost


def permutation_run(
    inst: Instance,
    seq: RequestSequence,
    check_prefix_optimal: bool = False,
) -> AssignmentTrace:
    """Run the algorithm over a whole sequence.

    With ``check_prefix_optimal`` every prefix's stored optimum cost is
    compared with the independent non-crossing DP; meant for tests, not
    production sweeps.
    """
    violation = validate_pair(inst, seq)
    if violation is not None:
        raise ValidationError(violation)
    servers, requests, scale = _scaled_problem(inst, seq)
    engine = AugmentingPathEngine(servers, list(inst.capacities))
    scaled = iter(requests)

    def decide(r: Fraction, free: frozenset[int]) -> int:
        j = engine.push(next(scaled))
        if check_prefix_optimal:
            t = len(engine.assigned)
            stored = Fraction(engine.cost, scale)
            expect = noncrossing_dp_cost(inst, seq.prefix(t))
            if stored != expect:
                raise AssertionError(f"prefix {t}: stored cost {stored} != optimal {expect}")
        return j

    return simulate(PriorityRule("permutation", decide), inst, seq)
