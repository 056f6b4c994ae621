"""The prefix-optimum follower, checked against the augmenting-path engine.

``permutation_run`` picks its server from the sorted fill of the prefix;
the engine's pushes pick the same server by a shortest-path search, so
the engine is the independent slow oracle here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.adversary import permutation_adversary, permutation_params
from ofal.core import Instance, RequestSequence, ValidationError, compute_rate, scaled_pair
from ofal.offline import AugmentingPathEngine, noncrossing_dp_cost, optimal_cost
from ofal.permutation import permutation_run

from conftest import instances, layout_of, rand_requests, seq_of


def check_prefix_optimal(inst, seq):
    """Push the requests one by one: every prefix cost must equal the
    independent DP, and permutation_run must return the pushed servers."""
    servers, requests, scale = scaled_pair(inst, seq)
    engine = AugmentingPathEngine(servers, list(inst.capacities))
    pushed = []
    for t, r in enumerate(requests, 1):
        pushed.append(engine.push(r))
        prefix = RequestSequence(seq.requests[:t])
        assert Fraction(engine.cost, scale) == noncrossing_dp_cost(inst, prefix), t
    trace = permutation_run(inst, seq)
    assert trace.assignment == tuple(pushed)
    return trace


def engine_run(inst, seq):
    """The engine's pushes and the online cost of matching each request
    to the server its push returned."""
    servers, requests, scale = scaled_pair(inst, seq)
    engine = AugmentingPathEngine(servers, list(inst.capacities))
    pushed = tuple(engine.push(r) for r in requests)
    return pushed, Fraction(sum(abs(r - servers[j]) for r, j in zip(requests, pushed)), scale)


def tie_heavy_case(rng):
    """Up to 8 integer servers with capacities up to 3, and requests on
    servers, at midpoints of neighbours and on the 1/8 grid around them."""
    ticks = sorted(rng.sample(range(-12, 13), rng.randint(1, 8)))
    caps = tuple(rng.randint(1, 3) for _ in ticks)
    mids = [Fraction(a + b, 2) for a, b in zip(ticks, ticks[1:])] or [Fraction(ticks[0])]
    eighths = range(8 * ticks[0] - 16, 8 * ticks[-1] + 17)
    requests = []
    for _ in range(rng.randint(1, sum(caps))):
        kind = rng.randrange(3)
        if kind == 0:
            requests.append(Fraction(rng.choice(ticks)))
        elif kind == 1:
            requests.append(rng.choice(mids))
        else:
            requests.append(Fraction(rng.choice(eighths), 8))
    return Instance(layout_of(*ticks), caps), RequestSequence(tuple(requests))


class TestAgainstTheEngine:
    def test_tie_heavy_cases(self):
        rng = random.Random(20)
        for _ in range(3000):
            inst, seq = tie_heavy_case(rng)
            trace = permutation_run(inst, seq)
            assert (trace.assignment, trace.total_cost) == engine_run(inst, seq), (inst, seq)

    def test_one_large_case(self):
        rng = random.Random(300)
        positions = sorted(rng.sample(range(-10**4, 10**4), 300))
        inst = Instance(layout_of(*(Fraction(p, 7) for p in positions)), (1,) * 300)
        seq = RequestSequence(
            tuple(Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 9)) for _ in range(300))
        )
        trace = permutation_run(inst, seq)
        assert (trace.assignment, trace.total_cost) == engine_run(inst, seq)


class TestSingleSteps:
    def test_prefix_optimum_drives_choice(self):
        # 19/10 alone goes right; the next request at 1 then takes the
        # left server even though the prefix optimum would swap them.
        inst = Instance(layout_of(0, 2), (1, 1))
        assert permutation_run(inst, seq_of("19/10", 1)).assignment == (1, 0)

    def test_request_on_free_server(self):
        inst = Instance(layout_of(0, 2, 5), (1, 1, 1))
        assert permutation_run(inst, seq_of(2, 2, 2)).assignment == (1, 0, 2)

    def test_geometric_construction_first_step(self):
        # k=2 mirrored layout: the first request, just left of center, is
        # matched with the left-center server.
        params = permutation_params(2, Fraction(1, 10))
        inst, seq = permutation_adversary(params)
        assert len(seq) == 2 * params.k
        assert permutation_run(inst, RequestSequence(seq.requests[:1])).assignment == (params.k - 1,)

    def test_capacity_exhaustion(self):
        # Server 0 takes two units, then the third request must move on.
        inst = Instance(layout_of(0, 1), (2, 1))
        assert permutation_run(inst, seq_of(0, 0, 0)).assignment == (0, 0, 1)
        engine = AugmentingPathEngine([0], [1])
        engine.push(0)
        with pytest.raises(ValidationError):
            engine.push(0)


class TestFullRuns:
    @given(instances(max_k=4, cap_max=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_costs_are_optimal(self, inst, data):
        n = data.draw(st.integers(0, min(inst.total_capacity, 6)))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        seq = rand_requests(rng, inst, n)
        check_prefix_optimal(inst, seq)

    def test_zero_cost_on_distinct_servers(self):
        inst = Instance(layout_of(0, 3, 7), (1, 1, 1))
        trace = permutation_run(inst, seq_of(3, 0, 7))
        assert trace.total_cost == 0

    def test_long_run_prefix_optimal(self):
        inst = Instance(layout_of(0, 2, 5, 11, 17), (50, 50, 50, 50, 50))
        rng = random.Random(5)
        seq = rand_requests(rng, inst, 200)
        servers, requests, scale = scaled_pair(inst, seq)
        engine = AugmentingPathEngine(servers, list(inst.capacities))
        for r in requests:
            engine.push(r)
        assert Fraction(engine.cost, scale) == noncrossing_dp_cost(inst, seq)

    def test_one_unit_per_step(self):
        inst = Instance(layout_of(0, 1, 4), (2, 1, 2))
        rng = random.Random(1)
        servers, requests, _ = scaled_pair(inst, rand_requests(rng, inst, 5))
        engine = AugmentingPathEngine(servers, list(inst.capacities))
        previous = list(engine.loads)
        for r in requests:
            j = engine.push(r)
            grew = [b - a for a, b in zip(previous, engine.loads)]
            assert grew == [int(i == j) for i in range(inst.k)]
            previous = list(engine.loads)

    def test_geometric_construction_full_pattern(self):
        # Walking outward: odd requests burn the left servers inward-out,
        # even requests the right servers.
        params = permutation_params(3, Fraction(1, 10))
        inst, seq = permutation_adversary(params)
        trace = check_prefix_optimal(inst, seq)
        k = params.k
        expected = []
        for i in range(1, k + 1):
            expected.extend([k - i, k + i - 1])
        assert list(trace.assignment) == expected

    def test_geometric_construction_rate(self):
        params = permutation_params(2, Fraction(1, 10))
        inst, seq = permutation_adversary(params)
        trace = permutation_run(inst, seq)
        opt = noncrossing_dp_cost(inst, seq)
        assert compute_rate(trace.total_cost, opt) >= Fraction(4 * 2 - 1) - Fraction(1, 10)

    def test_overflow_rejected(self):
        inst = Instance(layout_of(0), (1,))
        with pytest.raises(ValidationError):
            permutation_run(inst, seq_of(0, 0))

    def test_capacitated_prefix_optimal(self):
        inst = Instance(layout_of(0, 1), (3, 2))
        seq = seq_of("1/2", "1/2", "1/2", 0, 1)
        check_prefix_optimal(inst, seq)


#: Tie-heavy inputs with the online and offline assignments of the
#: Fraction-SPFA follower and the separate flow solver this engine
#: replaced: (servers, capacities, requests, permutation_run assignment,
#: optimal_cost assignment, optimal cost).
GOLDEN = [
    ((0, 2), (1, 1), (1, 1), (0, 1), (0, 1), 2),
    ((0, 2, 4), (1, 1, 1), (1, 3, 2), (0, 1, 2), (0, 2, 1), 2),
    (
        (0, 1, 2, 3),
        (2, 1, 1, 2),
        ("1/2", "3/2", "5/2", "1/2", "5/2", "3/2"),
        (0, 1, 2, 0, 3, 3),
        (0, 1, 3, 0, 3, 2),
        3,
    ),
    ((-2, 0, 2), (1, 2, 1), (-1, 1, 0, 0), (0, 1, 1, 2), (0, 2, 1, 1), 2),
    ((0, 4), (3, 3), (2, 2, 2, 2, 2, 2), (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 1), 12),
    ((0, 1, 3, 6), (1, 1, 1, 1), (2, 2, "9/2", "1/2"), (1, 2, 3, 0), (1, 2, 3, 0), 4),
    ((0, 2, 4, 6), (2, 1, 1, 2), (3, 1, 5, 3, 3, 1), (1, 0, 2, 3, 0, 3), (1, 0, 3, 2, 3, 0), 8),
    (
        (0, 3, 6),
        (2, 2, 2),
        ("3/2", "9/2", "3/2", "9/2", 3, 3),
        (0, 1, 0, 1, 2, 2),
        (0, 2, 0, 2, 1, 1),
        6,
    ),
]


@pytest.mark.parametrize("servers, caps, requests, online, offline, cost", GOLDEN)
def test_golden_tie_breaks(servers, caps, requests, online, offline, cost):
    inst = Instance(layout_of(*servers), caps)
    seq = seq_of(*requests)
    assert permutation_run(inst, seq).assignment == online
    opt = optimal_cost(inst, seq)
    assert opt.assignment == offline
    assert opt.cost == cost
