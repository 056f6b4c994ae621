"""Differential check: a rule's batch picks equal its per-point ``decide``.

The exhaustive grid search takes every pick from ``PriorityRule.picks``,
so criteria 3(b), 4 and 8 run ptcp's and greedy's batch code, while
``decide`` stays each rule's definition.  The seeded cases below tie the
two together on the inputs where a tie-break decides: layouts with equal
maximum gaps, points exactly at critical points, at exact midpoints
between any two servers and on servers, free tuples that leave one side
of a block empty or hold a single server.  The point lists are
strictly increasing, as the grid search passes them.
"""

import random
from fractions import Fraction

import pytest

from ofal.algorithms import gap_table, greedy_rule, ptcp_rule
from ofal.core import Instance, ServerLayout, ValidationError
from ofal.engine import PriorityRule

BUILDERS = (ptcp_rule, greedy_rule)


def seeded_layout(rng):
    """Up to 7 servers; half the layouts draw their gaps from {1, 2}, so
    equal maximum gaps are common, and some positions are not integers."""
    k = rng.randint(1, 7)
    steps = (1, 2) if rng.random() < 0.5 else (1, 2, 3, 5, 8)
    den = rng.choice((1, 1, 2, 3))
    positions = [Fraction(rng.randint(-9, 9), den)]
    for _ in range(k - 1):
        positions.append(positions[-1] + Fraction(rng.choice(steps), den))
    return ServerLayout(tuple(positions))


def tie_points(layout):
    """Servers, critical points, every pairwise midpoint and a point past
    each end of the line."""
    s = layout.positions
    points = list(s)
    points += [Fraction(*c) for c in gap_table(layout)[0]]
    points += [(a + b) / 2 for i, a in enumerate(s) for b in s[i + 1:]]
    points += [s[0] - 1, s[-1] + Fraction(1, 3)]
    return points


def free_tuples(rng, inst):
    """The free tuples of seeded remaining capacities, every single server,
    and every prefix and suffix of the servers (one side of each block
    empty)."""
    k = inst.k
    for _ in range(4):
        remaining = [rng.randint(0, c) for c in inst.capacities]
        free = tuple(j for j, c in enumerate(remaining) if c > 0)
        if free:
            yield free
    for j in range(k):
        yield (j,)
        yield tuple(range(j + 1))
        yield tuple(range(j, k))


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
def test_batch_matches_decide(builder):
    rng = random.Random(f"batch/{builder.__name__}")
    for _ in range(300):
        layout = seeded_layout(rng)
        inst = Instance(layout, tuple(rng.randint(1, 2) for _ in range(layout.k)))
        points = sorted(set(tie_points(layout)))
        rule = builder(layout)
        picks = rule.picks(points)
        for free in free_tuples(rng, inst):
            assert picks(free) == [rule.decide(p, free) for p in points], (layout, free)


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
def test_batch_edge_lists(builder):
    rule = builder(ServerLayout((Fraction(0), Fraction(1), Fraction(3))))
    assert rule.picks([])((0, 1, 2)) == []
    with pytest.raises(ValidationError):
        rule.picks([Fraction(1)])(())


def test_default_batch_is_decide_per_point():
    calls = []

    def decide(r, free):
        calls.append((r, free))
        return free[-1]

    rule = PriorityRule("last", decide)
    points = [Fraction(3), Fraction(1), Fraction(3)]
    assert rule.picks(points)((0, 2)) == [2, 2, 2]
    assert calls == [(p, (0, 2)) for p in points]
