"""Online facility assignment on a line with server capacities.

Exact-rational simulators for online assignment rules (the split-tree
rule, greedy, the prefix-optimum follower), exact offline optima, hybrid
deviation analysis, adversarial generators, and verification sweeps for
the 2*alpha+1 performance bound.
"""

from .core import (
    AssignmentTrace,
    Instance,
    OfalError,
    ParseError,
    RatioReport,
    RequestSequence,
    RuleError,
    ServerLayout,
    SizeGuardError,
    ValidationError,
    compute_rate,
    load_instance,
    load_sequence,
    unit_instance,
    validate_pair,
)
from .alpha import Metrics, alpha_bruteforce, alpha_fast, gap_ratio
from .engine import PriorityRule, derive_priority_order, simulate, surrounding_servers
from .algorithms import (
    SplitTree,
    build_rule,
    build_split_tree,
    greedy_decide,
    greedy_rule,
    guard_rule,
    ptcp_decide,
    ptcp_rule,
)
from .offline import OptResult, noncrossing_dp_cost, optimal_bruteforce, optimal_cost
from .permutation import permutation_run

__version__ = "0.1.0"

__all__ = [
    "AssignmentTrace",
    "Instance",
    "Metrics",
    "OfalError",
    "OptResult",
    "ParseError",
    "PriorityRule",
    "RatioReport",
    "RequestSequence",
    "RuleError",
    "ServerLayout",
    "SizeGuardError",
    "SplitTree",
    "ValidationError",
    "alpha_bruteforce",
    "alpha_fast",
    "build_rule",
    "build_split_tree",
    "compute_rate",
    "derive_priority_order",
    "gap_ratio",
    "greedy_decide",
    "greedy_rule",
    "guard_rule",
    "load_instance",
    "load_sequence",
    "noncrossing_dp_cost",
    "optimal_bruteforce",
    "optimal_cost",
    "permutation_run",
    "ptcp_decide",
    "ptcp_rule",
    "simulate",
    "surrounding_servers",
    "unit_instance",
    "validate_pair",
]
