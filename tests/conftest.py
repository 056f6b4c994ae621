"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ofal.algorithms import gap_table, split_blocks
from ofal.core import AssignmentTrace, Instance, RequestSequence, RuleError, ServerLayout
from ofal.engine import PriorityRule


def F(x) -> Fraction:
    return Fraction(x)


def layout_of(*positions) -> ServerLayout:
    return ServerLayout(tuple(Fraction(p) for p in positions))


def seq_of(*requests) -> RequestSequence:
    return RequestSequence(tuple(Fraction(r) for r in requests))


def reference_split_rows(layout: ServerLayout) -> list[tuple]:
    """The split tree by the Fraction formula, each block scanned for its
    leftmost maximum gap: preorder rows (lo, hi, a, D, Delta1, Delta2, x,
    critical point), the last six None for a leaf.  O(k * depth)."""
    positions, gaps = layout.positions, layout.gaps()
    rows: list[tuple] = []
    stack = [(0, layout.k - 1)]
    while stack:
        lo, hi = stack.pop()
        if lo == hi:
            rows.append((lo, hi) + (None,) * 6)
            continue
        a = max(range(lo, hi), key=gaps.__getitem__)
        d = gaps[a]
        delta1 = positions[a] - positions[lo]
        delta2 = positions[hi] - positions[a + 1]
        x = d * (delta2 + d) / ((delta1 + d) + (delta2 + d))
        rows.append((lo, hi, a, d, delta1, delta2, x, positions[a] + x))
        stack += ((a + 1, hi), (lo, a))
    return rows


def internal_blocks(layout: ServerLayout) -> list[tuple[int, int, int]]:
    """(lo, hi, a) for each gap a: the block lo..hi of ``split_blocks`` on
    ``layout.scaled`` that splits at gap a, in gap order."""
    lo, hi = split_blocks(layout.scaled[0])
    return list(zip(lo, hi, range(len(hi))))


def rows_by_split(rows) -> dict[int, tuple[tuple[int, int], int]]:
    """{a: ((num, den) of the critical point, hi)} over the internal rows
    of a reference tree whose row starts (lo, hi, a) and ends with the
    critical point: what ``gap_table`` holds for gap a."""
    return {
        row[2]: ((row[-1].numerator, row[-1].denominator), row[1]) for row in rows if row[2] is not None
    }


def gap_table_by_split(layout: ServerLayout) -> dict[int, tuple[tuple[int, int], int]]:
    """``gap_table`` as {a: (critical[a], reach[a])}."""
    critical, reach = gap_table(layout)
    assert len(critical) == len(reach) == layout.k - 1
    return dict(enumerate(zip(critical, reach)))


def check_trace(trace: AssignmentTrace, inst: Instance, seq: RequestSequence) -> None:
    """Replay a trace against inst and seq and assert its bookkeeping."""
    n = len(seq)
    assert len(trace.assignment) == len(trace.remaining_after) == len(trace.per_step_cost) == n
    remaining = list(inst.capacities)
    total = Fraction(0)
    for t, j in enumerate(trace.assignment):
        assert remaining[j] > 0, f"server {j} over capacity at step {t}"
        remaining[j] -= 1
        assert tuple(remaining) == trace.remaining_after[t], f"free snapshot inconsistent at step {t}"
        cost = abs(seq[t] - inst.layout[j])
        assert cost == trace.per_step_cost[t], f"per-step cost wrong at step {t}"
        total += cost
    assert total == trace.total_cost, "total cost does not equal the sum of step costs"


def derive_priority_order(
    rule: PriorityRule,
    r: Fraction,
    k: int,
    consistency_trials: int = 1000,
    seed: int = 0,
) -> tuple[int, ...]:
    """Extract the total server order a rule induces at one position.

    Repeatedly asks the rule to pick from the not-yet-ranked servers (a
    pick is checked as in ``simulate``); the pick order is the candidate
    priority order.  The order is then checked on random free sets: the
    rule must always pick the order-maximum.  An inconsistency means the
    rule's choice depends on more than (position, free set restricted
    through one order) and it is reported as RuleError.
    """
    free, remaining = tuple(range(k)), [1] * k
    order: list[int] = []
    while free:
        j = rule.decide(r, free)
        if not (type(j) is int and 0 <= j < k and remaining[j] > 0):
            raise RuleError(f"rule {rule.id!r} chose non-free server {j} for request {r}")
        remaining[j] = 0
        order.append(j)
        i = bisect_left(free, j)
        free = free[:i] + free[i + 1:]
    rank = {j: pos for pos, j in enumerate(order)}
    rng = random.Random(seed)
    for _ in range(consistency_trials):
        size = rng.randint(1, k)
        subset = tuple(sorted(rng.sample(range(k), size)))
        picked = rule.decide(r, subset)
        expected = min(subset, key=rank.__getitem__)
        if picked != expected:
            raise RuleError(
                f"rule {rule.id!r} is not priority-consistent at r={r}: "
                f"picked {picked} from {list(subset)}, order says {expected}"
            )
    return tuple(order)


@st.composite
def layouts(draw, min_k: int = 1, max_k: int = 8, den: int = 4, hull: int = 12):
    """Strictly increasing rational layouts on a den-step grid."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    ticks = draw(
        st.lists(
            st.integers(min_value=0, max_value=hull * den),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return ServerLayout(tuple(Fraction(t, den) for t in sorted(ticks)))


@st.composite
def instances(draw, min_k: int = 1, max_k: int = 6, cap_max: int = 3):
    layout = draw(layouts(min_k=min_k, max_k=max_k))
    caps = draw(
        st.lists(
            st.integers(min_value=1, max_value=cap_max),
            min_size=layout.k,
            max_size=layout.k,
        )
    )
    return Instance(layout, tuple(caps))


def rand_requests(rng: random.Random, inst: Instance, n: int, den: int = 16) -> RequestSequence:
    lo = inst.layout.positions[0] - 1
    hi = inst.layout.positions[-1] + 1
    return RequestSequence(
        tuple(lo + Fraction(rng.randint(0, den * 32), den * 32) * (hi - lo) for _ in range(n))
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
