"""Exact offline optimum: minimum-cost capacitated assignment on the line.

Three independent routes to the same number:

* ``optimal_cost``      -- successive-shortest-path min-cost flow, the
                           metric-agnostic ground truth, built on
                           ``AugmentingPathEngine``, which the permutation
                           rule shares;
* ``optimal_bruteforce``-- exhaustive enumeration, the independence oracle
                           for small inputs;
* ``noncrossing_dp_cost`` -- a dynamic program over sorted requests that
                           exploits the existence of a non-crossing
                           optimum on a line; the fast path for sweeps.

All three compute on integers: ``core.scaled_pair`` checks that the
sequence fits the instance and rescales both by their common denominator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Instance,
    RequestSequence,
    SizeGuardError,
    ValidationError,
    fraction_str,
    scaled_pair,
)

BRUTEFORCE_GUARD = 10**7


@dataclass(frozen=True)
class OptResult:
    """Minimum total cost plus one optimal request->server map."""

    cost: Fraction
    assignment: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"cost": fraction_str(self.cost), "assignment": list(self.assignment)}


class AugmentingPathEngine:
    """Minimum-cost assignment of the requests pushed so far.

    Servers are scaled integer positions with capacities.  ``push`` adds
    one request and augments along one shortest path of the residual
    graph, which raises exactly one server's load by one.  That server is
    the leftmost with spare capacity at minimum path cost: spare servers
    all carry the same potential, so reduced and true distances order
    them alike.  ``assigned`` is the current optimal request->server map,
    ``cost`` its scaled total, and ``_held[j]`` the requests server j
    serves, so a popped server relaxes only its own requests.

    The potentials are not always feasible.  A new request starts at
    potential 0, so after a push some of its arcs can keep a negative
    reduced cost.  The heap loop is therefore label-correcting, not
    Dijkstra: it settles a node again whenever a shorter path to it turns
    up, and ends with exact distances because the residual graph of a
    minimum-cost assignment has no negative cycle.
    """

    def __init__(self, servers: list[int], caps: list[int]):
        self.servers = servers
        self.caps = caps
        self.loads = [0] * len(servers)
        self.assigned: list[int] = []       # request -> server
        self._held: list[list[int]] = [[] for _ in servers]  # server -> its requests
        self.cost = 0
        self._rows: list[list[int]] = []    # rows[i][j] = |r_i - s_j|
        # Potentials for requests and servers (not always feasible; see above).
        self._pot_req: list[int] = []
        self._pot_srv = [0] * len(servers)

    def push(self, r: int) -> int:
        """Absorb one request; return the server whose load grew."""
        servers, caps, loads, assigned = self.servers, self.caps, self.loads, self.assigned
        rows, held, pot_req, pot_srv = self._rows, self._held, self._pot_req, self._pot_srv
        if len(assigned) >= sum(caps):
            raise ValidationError("no augmenting path; capacity exhausted")
        k = len(servers)
        source = len(assigned)
        rows.append([abs(r - s) for s in servers])
        pot_req.append(0)
        assigned.append(-1)
        n = source + 1

        # Label-correcting heap search from the new request over the
        # residual graph; kind 0 is a request node, kind 1 a server node.
        INF = float("inf")
        dist_req = [INF] * n
        dist_srv = [INF] * k
        par_srv = [-1] * k                  # server j reached from request i
        dist_req[source] = 0
        heap: list[tuple[int, int, int]] = [(0, 0, source)]  # (dist, kind, idx)
        while heap:
            dval, kind, idx = heapq.heappop(heap)
            if kind == 0:  # request node
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
            else:  # server node: residual arcs back to requests it serves
                if dval > dist_srv[idx]:
                    continue
                base = dval + pot_srv[idx]
                for i in held[idx]:
                    nd = base - rows[i][idx] - pot_req[i]
                    if nd < dist_req[i]:
                        dist_req[i] = nd
                        heapq.heappush(heap, (nd, 0, i))
        # Every server, and so every request it serves, is reachable from
        # the new request; the leftmost spare server at minimum distance wins.
        best = -1
        for j in range(k):
            if loads[j] < caps[j] and (best < 0 or dist_srv[j] < dist_srv[best]):
                best = j
        # Standard potential update, capped at the target distance.
        d_target = dist_srv[best]
        for i in range(n):
            pot_req[i] += min(dist_req[i], d_target)
        for j in range(k):
            pot_srv[j] += min(dist_srv[j], d_target)
        # Augment: alternate server/request along parent pointers.
        j = best
        while True:
            i = par_srv[j]
            prev = assigned[i]
            assigned[i] = j
            held[j].append(i)
            self.cost += rows[i][j]
            if prev == -1:
                break
            held[prev].remove(i)
            self.cost -= rows[i][prev]
            j = prev
        loads[best] += 1
        return best


def optimal_cost(inst: Instance, seq: RequestSequence) -> OptResult:
    """Min-cost flow over source -> requests -> servers -> sink.

    Requests have unit supply, server j has capacity c_j, and the
    request->server arc costs |r - s|.  Solved by n successive shortest
    augmenting paths, one ``AugmentingPathEngine.push`` per request.
    """
    servers, requests, scale = scaled_pair(inst, seq)
    engine = AugmentingPathEngine(servers, list(inst.capacities))
    for r in requests:
        engine.push(r)
    return OptResult(cost=Fraction(engine.cost, scale), assignment=tuple(engine.assigned))


def optimal_bruteforce(inst: Instance, seq: RequestSequence) -> OptResult:
    """Exact minimum by depth-first enumeration of feasible assignments.

    The k^n upper bound on the number of assignments must stay within
    BRUTEFORCE_GUARD.  Ties on cost keep the lexicographically smallest
    assignment vector.
    """
    servers, requests, scale = scaled_pair(inst, seq)
    n = len(seq)
    k = inst.k
    if k**n > BRUTEFORCE_GUARD:
        raise SizeGuardError(f"enumeration guard: {k}^{n} > {BRUTEFORCE_GUARD}")
    caps = list(inst.capacities)
    best_cost: list[int | None] = [None]
    best_assignment: list[tuple[int, ...]] = [()]
    current: list[int] = []

    def dfs(t: int, acc: int) -> None:
        if best_cost[0] is not None and acc > best_cost[0]:
            return
        if t == n:
            if best_cost[0] is None or acc < best_cost[0]:
                best_cost[0] = acc
                best_assignment[0] = tuple(current)
            return
        r = requests[t]
        for j in range(k):
            if caps[j] == 0:
                continue
            caps[j] -= 1
            current.append(j)
            dfs(t + 1, acc + abs(r - servers[j]))
            current.pop()
            caps[j] += 1

    dfs(0, 0)
    assert best_cost[0] is not None
    return OptResult(cost=Fraction(best_cost[0], scale), assignment=best_assignment[0])


def dp_cost_ints(servers: list[int], caps: list[int], requests: list[int]) -> int:
    """Core DP on scaled ints: assign sorted requests to servers in order.

    A non-crossing optimum matches the sorted requests to a sorted multiset
    of server slots, so each server serves a contiguous block.  dp[t] is
    the best cost of the first t sorted requests; server j extends it by a
    block of up to c_j requests.  Raises ValidationError when the
    capacities sum to less than the number of requests.

    Only a window of t is kept: after server j, t runs over
    [n - cap(servers after j), cap(servers 0..j)], clipped to [0, n].  A
    larger t cannot be reached, and a smaller one cannot be completed by
    the servers left; every prefix of an optimal assignment lies inside
    the window, so dp[n] is exact.  With prefix[t] the cost of requests
    before t on server j and g[m] = dp[m] - prefix[m], a step is
    prefix[t] + min(g[m] for t - c_j <= m <= t).  Zero-capacity servers are
    skipped.  A solve costs O(sum of c_j * window width), O(k * n * c) at
    most.
    """
    reqs = sorted(requests)
    n = len(reqs)
    rest = sum(caps)
    if n > rest:
        raise ValidationError("capacity exhausted in dp")
    lo, dp = 0, [0]  # dp[t - lo] for t in [lo, lo + len(dp) - 1]
    for s, c in zip(servers, caps):
        if c == 0:
            continue
        rest -= c
        hi = lo + len(dp) - 1
        new_lo, new_hi = max(lo, n - rest), min(n, hi + c)
        base = max(lo, new_lo - c)  # the first m a step into the window reads
        # prefix[t - base] is the cost of requests base..t-1 on s.
        prefix = [0]
        for r in reqs[base:new_hi]:
            prefix.append(prefix[-1] + abs(r - s))
        g = [dp[m - lo] - prefix[m - base] for m in range(base, hi + 1)]
        dp = [
            prefix[t - base] + min(g[max(0, t - c - base) : min(hi, t) - base + 1])
            for t in range(new_lo, new_hi + 1)
        ]
        lo = new_lo
    return dp[n - lo]


def noncrossing_dp_cost(inst: Instance, seq: RequestSequence) -> Fraction:
    """Optimal cost via the line-structure DP; order of requests is ignored."""
    servers, requests, scale = scaled_pair(inst, seq)
    return Fraction(dp_cost_ints(servers, list(inst.capacities), requests), scale)


def lexmin_assignment(inst: Instance, seq: RequestSequence) -> OptResult:
    """The lexicographically smallest optimal assignment vector.

    Fixes requests in input order to the smallest server index that still
    admits an optimal completion (checked with the DP).  Removing capacity
    never lowers the optimum, so ``floor``, the optimum of the remaining
    requests over the untouched capacities, bounds every completion: a
    server whose step overshoots the target against it is skipped.  Costs
    one DP solve per request plus one per server that is not skipped.
    """
    servers, requests, scale = scaled_pair(inst, seq)
    n = len(seq)
    caps = list(inst.capacities)
    target = dp_cost_ints(servers, caps, requests)
    assignment: list[int] = []
    acc = 0
    for t in range(n):
        rest = requests[t + 1 :]
        floor = dp_cost_ints(servers, caps, rest)
        for j in range(inst.k):
            if caps[j] == 0:
                continue
            step = abs(requests[t] - servers[j])
            if acc + step + floor > target:
                continue
            caps[j] -= 1
            # The pair fits, so the remaining capacity always holds ``rest``.
            remainder = dp_cost_ints(servers, caps, rest)
            if acc + step + remainder == target:
                acc += step
                assignment.append(j)
                break
            caps[j] += 1
        else:
            raise AssertionError("no feasible continuation at optimal cost")
    return OptResult(cost=Fraction(target, scale), assignment=tuple(assignment))
