import heapq
import random
from bisect import bisect_left, insort
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
    AugmentingPathEngine,
    dp_cost_ints,
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


class ReferenceEngine:
    """The engine before per-server held-request lists, inlined: a popped
    server scans every request for the ones it serves."""

    def __init__(self, servers, caps):
        self.servers = servers
        self.caps = caps
        self.loads = [0] * len(servers)
        self.assigned = []
        self.cost = 0
        self._rows = []
        self._pot_req = []
        self._pot_srv = [0] * len(servers)

    def push(self, r):
        servers, caps, loads, assigned = self.servers, self.caps, self.loads, self.assigned
        rows, pot_req, pot_srv = self._rows, self._pot_req, self._pot_srv
        if len(assigned) >= sum(caps):
            raise ValidationError("no augmenting path; capacity exhausted")
        k = len(servers)
        source = len(assigned)
        rows.append([abs(r - s) for s in servers])
        pot_req.append(0)
        assigned.append(-1)
        n = source + 1
        INF = float("inf")
        dist_req = [INF] * n
        dist_srv = [INF] * k
        par_srv = [-1] * k
        dist_req[source] = 0
        heap = [(0, 0, source)]
        while heap:
            dval, kind, idx = heapq.heappop(heap)
            if kind == 0:
                if dval > dist_req[idx]:
                    continue
                base = dval + pot_req[idx]
                row = rows[idx]
                own = assigned[idx]
                for j in range(k):
                    if j == own:
                        continue
                    nd = base + row[j] - pot_srv[j]
                    if nd < dist_srv[j]:
                        dist_srv[j] = nd
                        par_srv[j] = idx
                        heapq.heappush(heap, (nd, 1, j))
            else:
                if dval > dist_srv[idx]:
                    continue
                base = dval + pot_srv[idx]
                for i in range(n):
                    if assigned[i] == idx:
                        nd = base - rows[i][idx] - pot_req[i]
                        if nd < dist_req[i]:
                            dist_req[i] = nd
                            heapq.heappush(heap, (nd, 0, i))
        best = -1
        for j in range(k):
            if loads[j] < caps[j] and (best < 0 or dist_srv[j] < dist_srv[best]):
                best = j
        d_target = dist_srv[best]
        for i in range(n):
            pot_req[i] += min(dist_req[i], d_target)
        for j in range(k):
            pot_srv[j] += min(dist_srv[j], d_target)
        j = best
        while True:
            i = par_srv[j]
            prev = assigned[i]
            assigned[i] = j
            self.cost += rows[i][j]
            if prev == -1:
                break
            self.cost -= rows[i][prev]
            j = prev
        loads[best] += 1
        return best


class SettleAllEngine(AugmentingPathEngine):
    """The push before O(settled) bookkeeping, verbatim: it raises every
    potential by min(distance, target distance), keeps a parent for every
    server and scans all k labels for the target."""

    def push(self, r: int) -> int:
        """Absorb one request; return the server whose load grew."""
        servers, caps, loads, held, pot = self.servers, self.caps, self.loads, self._held, self._pot
        if len(self.assigned) >= sum(caps):
            raise ValidationError("no augmenting path; capacity exhausted")
        dist = [abs(r - s) - p for s, p in zip(servers, pot)]
        par = [-1] * len(servers)           # previous server; -1 is the new request
        todo = list(range(len(servers)))    # unsettled servers, increasing
        reach = None                        # distance of the first spare server settled
        while todo:
            j = min(todo, key=dist.__getitem__)
            dj = dist[j]
            if reach is not None and dj > reach:
                break
            i = bisect_left(todo, j)
            del todo[i]
            if reach is None and loads[j] < caps[j]:
                reach = dj
            hold = held[j]
            if not hold:
                continue
            # todo[:i] lies left of j and todo[i:] right of it.
            for xs, (q, _) in ((todo[:i], hold[0]), (todo[i:], hold[-1])):
                base = dj + pot[j] - abs(q - servers[j])
                for x in xs:
                    nd = base + abs(q - servers[x]) - pot[x]
                    if nd < dist[x]:
                        dist[x], par[x] = nd, j
        target = next(j for j, d in enumerate(dist) if d == reach and loads[j] < caps[j])
        self.cost += reach + pot[target]   # the path's true cost
        self._pot = [p + min(d, reach) for p, d in zip(pot, dist)]
        # Augment from the target back: each server gives up its extreme
        # request before it receives one, so the hop moves the pair the
        # search priced.
        x = target
        while par[x] >= 0:
            j = par[x]
            pair = held[j].pop() if x > j else held[j].pop(0)
            insort(held[x], pair)
            self.assigned[pair[1]] = x
            x = j
        insort(held[x], (r, len(self.assigned)))
        self.assigned.append(x)
        loads[target] += 1
        return target


def check_engine_invariants(engine, requests):
    """The map is complete and optimal, the held lists mirror it, every
    server-to-server hop has a non-negative reduced cost, and all spare
    servers share one potential."""
    servers, held, pot = engine.servers, engine._held, engine._pot
    assert len(engine.assigned) == len(requests)
    assert [engine.assigned.count(j) for j in range(len(servers))] == engine.loads
    assert sum(abs(r - servers[j]) for r, j in zip(requests, engine.assigned)) == engine.cost
    assert engine.cost == dp_cost_ints(servers, engine.caps, requests)
    assert held == [sorted((r, i) for i, r in enumerate(requests) if engine.assigned[i] == j)
                    for j in range(len(servers))]
    for j, hold in enumerate(held):
        for x in range(len(servers)):
            if hold and x != j:
                q = hold[-1][0] if x > j else hold[0][0]
                assert abs(q - servers[x]) - abs(q - servers[j]) + pot[j] - pot[x] >= 0, (j, x)
    assert len({p for p, load, cap in zip(pot, engine.loads, engine.caps) if load < cap}) <= 1


def certifies(servers, caps, requests, assigned, cost, u, w):
    """Whether ``assigned`` is a feasible map of total ``cost`` and (u, w) a
    dual of the same value, which proves ``cost`` optimal.  The assignment
    LP, min sum |r_i - s_j| x_ij over x >= 0 with sum_j x_ij = 1 and
    sum_i x_ij <= c_j, has the dual max sum u_i - sum c_j w_j over w >= 0
    with u_i - w_j <= |r_i - s_j|; by weak duality no map costs less than
    a feasible dual's value."""
    loads = [assigned.count(j) for j in range(len(servers))]
    return (
        all(load <= c for load, c in zip(loads, caps))
        and sum(abs(r - servers[j]) for r, j in zip(requests, assigned)) == cost
        and all(x >= 0 for x in w)
        and all(ui - wj <= abs(r - s) for r, ui in zip(requests, u) for s, wj in zip(servers, w))
        and sum(u) - sum(c * x for c, x in zip(caps, w)) == cost
    )


def engine_dual(engine, requests):
    """The dual read off the engine's potentials: w_j = P - pot[j], where P
    is the spare servers' shared potential (the largest potential when
    every server is full), and u_i = |r_i - s_a(i)| + w_a(i)."""
    pot = engine._pot
    spare = {p for p, load, cap in zip(pot, engine.loads, engine.caps) if load < cap}
    top = spare.pop() if spare else max(pot)
    w = [top - p for p in pot]
    u = [abs(r - engine.servers[j]) + w[j] for r, j in zip(requests, engine.assigned)]
    return u, w


def check_dual_certificate(engine, requests):
    """The engine's dual certifies its cost, and the checker refuses the
    cost less one and the dual with any one w_j raised by one."""
    servers, caps, assigned, cost = engine.servers, engine.caps, engine.assigned, engine.cost
    u, w = engine_dual(engine, requests)
    assert certifies(servers, caps, requests, assigned, cost, u, w)
    assert not certifies(servers, caps, requests, assigned, cost - 1, u, w)
    for j in range(len(w)):
        raised = w[:j] + [w[j] + 1] + w[j + 1:]
        assert not certifies(servers, caps, requests, assigned, cost, u, raised)


def tie_heavy_cases(seed, count):
    """Seeded capacitated cases that make distance ties and zero-slack
    paths common: k <= 7 even servers of capacity <= 4, requests on
    servers, on midpoints of two servers, one off a server or anywhere
    near, and half of the cases filled to the total capacity."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 7)
        servers = sorted(rng.sample(range(0, 24, 2), k))
        caps = [rng.randint(1, 4) for _ in range(k)]
        total = sum(caps)
        n = total if rng.random() < 0.5 else rng.randint(1, total)
        requests = []
        for _ in range(n):
            kind = rng.randrange(4)
            if kind == 0:
                r = rng.choice(servers)
            elif kind == 1:
                r = (rng.choice(servers) + rng.choice(servers)) // 2
            elif kind == 2:
                r = rng.choice(servers) + rng.choice((-1, 1))
            else:
                r = rng.randint(-3, 27)
            requests.append(r)
        yield servers, caps, requests


def assert_same_state(engine, reference):
    """Same map, cost and loads, and potentials equal up to one offset."""
    assert (engine.assigned, engine.cost, engine.loads) == (reference.assigned, reference.cost, reference.loads)
    assert len({p - q for p, q in zip(engine._pot, reference._pot)}) == 1


def zero_cost_hop_state(engine_class):
    # Set by hand: server 1 holds request 0, at the midpoint of servers
    # 0 and 2, while both servers are spare; an optimal map, and zero
    # potentials are feasible for it.
    engine = engine_class([0, 2], [2, 2])
    engine.assigned, engine.loads, engine.cost = [1], [0, 1], 1
    engine._held[1].append((1, 0))
    return engine


class TestSettledBookkeeping:
    def test_every_push_matches_the_settle_all_reference(self):
        for servers, caps, requests in tie_heavy_cases(27, 3000):
            engine, reference = AugmentingPathEngine(servers, caps), SettleAllEngine(servers, caps)
            for r in requests:
                assert engine.push(r) == reference.push(r)
                assert_same_state(engine, reference)
            check_engine_invariants(engine, requests)

    def test_zero_cost_hop_state_matches_the_reference(self):
        engine, reference = zero_cost_hop_state(AugmentingPathEngine), zero_cost_hop_state(SettleAllEngine)
        assert engine.push(3) == reference.push(3) == 0
        assert_same_state(engine, reference)
        check_dual_certificate(engine, [1, 3])

    def test_dual_certificate_of_every_final_state(self):
        for servers, caps, requests in tie_heavy_cases(27, 3000):
            engine = AugmentingPathEngine(servers, caps)
            for r in requests:
                engine.push(r)
            check_dual_certificate(engine, requests)


class TestHeldRequestLists:
    def test_every_push_matches_the_request_scan(self):
        # Small even coordinates and requests on servers and midpoints make
        # distance ties, and so tie-broken paths, common.  The map may differ
        # from the reference's among maps of equal cost; the server a push
        # returns, the cost and the loads may not.
        rng = random.Random(20)
        for _ in range(4000):
            k = rng.randint(1, 7)
            servers = sorted(rng.sample(range(0, 24, 2), k))
            caps = [rng.randint(1, 3) for _ in range(k)]
            n = rng.randint(1, sum(caps))
            engine, reference = AugmentingPathEngine(servers, caps), ReferenceEngine(servers, list(caps))
            requests = []
            for _ in range(n):
                r = rng.choice((rng.choice(servers), rng.randint(-3, 27)))
                requests.append(r)
                assert engine.push(r) == reference.push(r)
                assert (engine.cost, engine.loads) == (reference.cost, reference.loads)
                check_engine_invariants(engine, requests)

    def test_zero_cost_hop_reveals_a_spare_server_further_left(self):
        # Request 3 settles server 1 first,
        # at distance 1 against 3 for server 0.  The zero-cost hop that moves
        # request 0 to server 0 then reaches server 0 at distance 1 too, and
        # the leftmost spare server at the minimum distance wins.
        engine = zero_cost_hop_state(AugmentingPathEngine)
        assert engine.push(3) == 0
        assert (engine.assigned, engine.loads, engine.cost) == ([0, 1], [1, 1], 2)
        check_engine_invariants(engine, [1, 3])

    def test_capacity_exhausted(self):
        engine = AugmentingPathEngine([0, 4], [1, 1])
        engine.push(1)
        engine.push(2)
        with pytest.raises(ValidationError, match="capacity exhausted"):
            engine.push(3)
