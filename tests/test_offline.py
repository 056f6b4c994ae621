import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.adversary import (
    AdversaryParams,
    greedy_adversary,
    permutation_adversary,
    permutation_params,
)
from ofal.core import Instance, RequestSequence, SizeGuardError, ValidationError
from ofal.offline import (
    lexmin_assignment,
    noncrossing_dp_cost,
    optimal_bruteforce,
    optimal_cost,
)

from conftest import instances, layout_of, rand_requests, seq_of


class TestBruteforce:
    def test_single_request(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        res = optimal_bruteforce(inst, seq_of("1/2"))
        assert res.cost == Fraction(1, 2)
        assert res.assignment == (0,)

    def test_forced_split(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        res = optimal_bruteforce(inst, seq_of(1, 1))
        assert res.cost == 2

    def test_empty(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        assert optimal_bruteforce(inst, RequestSequence(())).cost == 0

    def test_guard(self):
        inst = Instance(layout_of(*range(10)), (2,) * 10)
        with pytest.raises(SizeGuardError):
            optimal_bruteforce(inst, seq_of(*([1] * 9)))

    def test_capacity_respected(self):
        inst = Instance(layout_of(0, 10), (2, 1))
        res = optimal_bruteforce(inst, seq_of(0, 0, 0))
        assert res.assignment.count(0) == 2 and res.assignment.count(1) == 1
        assert res.cost == 10


class TestFlowSolver:
    def test_exponential_adversary_optimum(self):
        params = AdversaryParams(k=4, delta=Fraction(1, 100), capacities=(1,) * 4)
        inst, seq = greedy_adversary(params)
        res = optimal_cost(inst, seq)
        # Identity assignment: 1 + k*delta (verified against enumeration).
        assert res.cost == Fraction(26, 25)
        assert res.cost == optimal_bruteforce(inst, seq).cost

    @given(instances(max_k=4, cap_max=2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, inst, data):
        n = data.draw(st.integers(0, min(inst.total_capacity, 6)))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        seq = rand_requests(rng, inst, n)
        assert optimal_cost(inst, seq).cost == optimal_bruteforce(inst, seq).cost

    def test_assignment_is_feasible_and_optimal(self):
        inst = Instance(layout_of(0, 1, 5), (1, 2, 1))
        seq = seq_of("1/2", "1/2", 4, 6)
        res = optimal_cost(inst, seq)
        counts = [res.assignment.count(j) for j in range(inst.k)]
        assert all(c <= cap for c, cap in zip(counts, inst.capacities))
        cost = sum(abs(r - inst.layout[j]) for r, j in zip(seq, res.assignment))
        assert cost == res.cost

    def test_capacity_exhausted(self):
        inst = Instance(layout_of(0), (1,))
        with pytest.raises(ValidationError):
            optimal_cost(inst, seq_of(0, 0))


class TestNoncrossingDP:
    @given(instances(max_k=5, cap_max=3), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_flow(self, inst, data):
        n = data.draw(st.integers(0, min(inst.total_capacity, 10)))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        seq = rand_requests(rng, inst, n)
        assert noncrossing_dp_cost(inst, seq) == optimal_cost(inst, seq).cost

    def test_order_independent(self, rng):
        inst = Instance(layout_of(0, 1, 5), (2, 2, 2))
        seq = rand_requests(rng, inst, 6)
        shuffled = list(seq.requests)
        rng.shuffle(shuffled)
        assert noncrossing_dp_cost(inst, seq) == noncrossing_dp_cost(
            inst, RequestSequence(tuple(shuffled))
        )

    def test_single_server_sum(self):
        inst = Instance(layout_of(3), (4,))
        seq = seq_of(0, 3, 5, 7)
        assert noncrossing_dp_cost(inst, seq) == 3 + 0 + 2 + 4

    def test_flow_order_independent_too(self, rng):
        inst = Instance(layout_of(0, 2, 3), (1, 2, 1))
        seq = rand_requests(rng, inst, 4)
        shuffled = list(seq.requests)
        rng.shuffle(shuffled)
        assert (
            optimal_cost(inst, seq).cost
            == optimal_cost(inst, RequestSequence(tuple(shuffled))).cost
        )


class TestZeroCostCharacterization:
    @given(instances(max_k=4, cap_max=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_zero_iff_placeable(self, inst, data):
        # Build a sequence that provably fits on the servers.
        slots = [j for j, c in enumerate(inst.capacities) for _ in range(c)]
        n = data.draw(st.integers(0, len(slots)))
        chosen = data.draw(
            st.lists(st.integers(0, len(slots) - 1), min_size=n, max_size=n, unique=True)
        )
        seq = RequestSequence(tuple(inst.layout[slots[i]] for i in chosen))
        assert noncrossing_dp_cost(inst, seq) == 0

    def test_nonzero_when_overloaded(self):
        inst = Instance(layout_of(0, 1), (1, 1))
        assert noncrossing_dp_cost(inst, seq_of(0, 0)) > 0


class TestLexminAssignment:
    @given(instances(max_k=4, cap_max=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_vector(self, inst, data):
        # The enumerator visits assignments in lexicographic order and only
        # replaces on strict improvement, so its result is the lexmin
        # optimum; lexmin_assignment must reproduce it exactly.
        n = data.draw(st.integers(0, min(inst.total_capacity, 5)))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        seq = rand_requests(rng, inst, n)
        expect = optimal_bruteforce(inst, seq)
        got = lexmin_assignment(inst, seq)
        assert got.cost == expect.cost
        assert got.assignment == expect.assignment

    @pytest.mark.parametrize("k", [2, 3])
    def test_permutation_adversary_matches_bruteforce(self, k):
        inst, seq = permutation_adversary(permutation_params(k, Fraction(1, 10)))
        assert lexmin_assignment(inst, seq) == optimal_bruteforce(inst, seq)

    def test_tie_broken_to_smaller_index(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        res = lexmin_assignment(inst, seq_of(1, 1))
        assert res.assignment == (0, 1)
