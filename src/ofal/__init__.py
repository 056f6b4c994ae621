"""Online facility assignment on a line with server capacities.

Exact-rational simulators for online assignment rules (the split-tree
rule, greedy, the prefix-optimum follower), exact offline optima, hybrid
deviation analysis, adversarial generators, and verification sweeps for
the 2*alpha+1 performance bound.  Names are imported from their modules
(``ofal.core``, ``ofal.engine``, ...); the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
