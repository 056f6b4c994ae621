"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ofal.core import AssignmentTrace, Instance, RequestSequence, ServerLayout


def F(x) -> Fraction:
    return Fraction(x)


def layout_of(*positions) -> ServerLayout:
    return ServerLayout(tuple(Fraction(p) for p in positions))


def seq_of(*requests) -> RequestSequence:
    return RequestSequence(tuple(Fraction(r) for r in requests))


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
