"""Exact offline optimum: minimum-cost capacitated assignment on the line.

Three independent routes to the same number:

* ``optimal_cost``      -- successive-shortest-path min-cost flow, one
                           Dijkstra over the k servers per request, built
                           on ``AugmentingPathEngine``;
* ``optimal_bruteforce``-- exhaustive enumeration, the independence oracle
                           for small inputs;
* ``noncrossing_dp_cost`` -- a dynamic program that sends the sorted
                           requests to increasing capacity slots, since
                           a non-crossing optimum exists on a line; the
                           fast path for sweeps.  ``multiset_optima``
                           runs the same recurrence over every multiset
                           of grid points.

All three compute on integers: ``core.scaled_pair`` checks that the
sequence fits the instance and rescales both by their common denominator.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Sequence

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
    graph, which raises exactly one server's load by one.  ``assigned``
    is the current optimal request->server map, ``cost`` its scaled
    total, and ``_held[j]`` the sorted ``(r, i)`` pairs of the requests
    server j serves.

    The search runs on the k servers alone.  A hop from server j to
    server x moves one request j holds to x, at cost |r - s_x| - |r - s_j|.
    On a line that never rises in r when s_x > s_j and never falls when
    s_x < s_j, so the cheapest hop moves the last pair of ``_held[j]``
    rightward and the first leftward: the request at the extreme
    position, of largest index rightward and smallest index leftward.

    Each server keeps a potential under which every hop's reduced cost is
    non-negative, so the search is a dense Dijkstra with no heap.  Server
    j starts at label |r - s_j| - pot[j], the new request's own arc, which
    may be negative.  Servers settle in (distance, index) order while the
    smallest unsettled label is at most the distance of the first spare
    server settled; a label changes only when it strictly falls, so a
    server's parent is the first settled server that reached its final
    distance.  The path ends at the leftmost spare server at that
    distance, not the first one settled: a zero-cost hop can expose one
    further left.  Potentials matter only up to one common constant
    (successive shortest paths raise each by min(distance, target
    distance)), so a push lowers only the servers settled before the
    first spare one, each by the amount its distance falls short of the
    target distance.  Every other server is at or beyond that distance
    and keeps its potential.  Spare servers thus all carry the same
    potential, and reduced and true distances order them alike.  A push
    costs O(k) for the labels, O(k) per settled server for the search,
    and O(settled) for the potentials, the target and the path.  The
    true distance to spare server j is the optimum of all requests under
    capacities loads + e_j less ``cost``, so the server a push returns
    depends on the loads alone.  It is the server the permutation rule
    picks, which ``permutation_run`` finds from the sorted fill instead;
    the tests keep the engine as that rule's independent slow oracle.
    """

    def __init__(self, servers: list[int], caps: list[int]):
        self.servers = servers
        self.caps = caps
        self.loads = [0] * len(servers)
        self.assigned: list[int] = []       # request -> server
        self._held: list[list[tuple[int, int]]] = [[] for _ in servers]  # sorted (r, i)
        self._pot = [0] * len(servers)
        self._total = sum(caps)
        self.cost = 0

    def push(self, r: int) -> int:
        """Absorb one request; return the server whose load grew."""
        servers, caps, loads, held, pot = self.servers, self.caps, self.loads, self._held, self._pot
        if len(self.assigned) >= self._total:
            raise ValidationError("no augmenting path; capacity exhausted")
        dist = [abs(r - s) - p for s, p in zip(servers, pot)]
        par: dict[int, int] = {}            # previous server; none is the new request
        todo = list(range(len(servers)))    # unsettled servers, increasing
        below: list[int] = []               # servers settled before the first spare one
        reach = target = None               # the first spare server's distance; the leftmost spare at it
        while todo:
            j = min(todo, key=dist.__getitem__)
            dj = dist[j]
            if target is not None and dj > reach:
                break
            i = bisect_left(todo, j)
            del todo[i]
            if loads[j] < caps[j]:
                if target is None:
                    reach, target = dj, j
                elif j < target:
                    target = j
            elif target is None:
                below.append(j)
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
        self.cost += reach + pot[target]   # the path's true cost
        for j in below:
            pot[j] += dist[j] - reach
        # Augment from the target back: each server gives up its extreme
        # request before it receives one, so the hop moves the pair the
        # search priced.
        x = target
        while x in par:
            j = par[x]
            pair = held[j].pop() if x > j else held[j].pop(0)
            insort(held[x], pair)
            self.assigned[pair[1]] = x
            x = j
        insort(held[x], (r, len(self.assigned)))
        self.assigned.append(x)
        loads[target] += 1
        return target


def optimal_cost(inst: Instance, seq: RequestSequence) -> OptResult:
    """Min-cost flow over source -> requests -> servers -> sink.

    Requests have unit supply, server j has capacity c_j, and the
    request->server arc costs |r - s|.  Solved by n successive shortest
    augmenting paths, one ``AugmentingPathEngine.push`` per request, in
    O(n * k^2) at worst: a push settles at most k servers, O(k) each, and
    its bookkeeping is O(settled).

    The cost is unique; ``assignment`` is one optimal map, fixed by the
    engine's tie rule.  Servers settle in (distance, index) order, and a
    server's path comes from the first settled server that reaches its
    final distance.  A hop to the right moves the held request of largest
    (position, index), a hop to the left the one of smallest.  Each path
    ends at the leftmost spare server at minimum distance.
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
    """Core DP on scaled ints: send the sorted requests to increasing slots.

    A non-crossing optimum sends the sorted requests to strictly
    increasing capacity slots, where server j owns min(c_j, n) slots at
    its position: n requests never use more.  With slack the number of
    slots less n, request d can only sit in slots d to d + slack, so F[u]
    is the least cost of the first d + 1 requests with request d in slot
    d + u.  A request takes the running minimum of F, since the previous
    request sits in slot d - 1 + v for some v <= u, and adds its distance
    to each slot; the optimum is min(F).  Raises ValidationError when the
    capacities sum to less than the number of requests.  A solve costs
    O(n * (slack + 1)) time and O(sum of min(c_j, n)) memory.
    """
    reqs = sorted(requests)
    n = len(reqs)
    slots = [s for s, c in zip(servers, caps) for _ in range(min(c, n))]
    slack = len(slots) - n
    if slack < 0:
        raise ValidationError("capacity exhausted in dp")
    F = [0] * (slack + 1)
    for d, r in enumerate(reqs):
        F = [f + abs(r - s) for f, s in zip(accumulate(F, min), slots[d : d + slack + 1])]
    return min(F)


def multiset_optima(
    servers: list[int], caps: Sequence[int], points: list[int], depth: int
) -> tuple[dict[int, tuple[int, ...]], list[int], list[list[int]]]:
    """Each multiset's child row, by key; each point's key weight; and
    each point's distance to each server.

    ``servers`` and ``points`` are scaled ints, the servers increasing and
    the points in any order, repeats allowed.  The point of rank i by
    position weighs (depth + 1)**i, and ``weight[x]`` is point x's
    weight.  A multiset's key is the sum of its points' weights, each
    counted once per copy; no point is taken more than ``depth`` times,
    so each multiset has its own key.  ``rows[key]``, for every multiset
    of fewer than ``depth`` points (the empty one's key is 0), is the
    tuple of optima of that multiset plus point x, for each x in the
    caller's order.  ``dist[x][j]`` is |points[x] - servers[j]|, the same
    int objects the fill reads.

    This is ``dp_cost_ints``' slot recurrence without the slack window,
    since the multisets differ in size: server j owns min(c_j, depth)
    slots, and a depth-first pass over rank-non-decreasing sequences, on
    an explicit stack, extends the DP one request at a time.  F[u] is the
    least cost of the prefix with its last request in slot u, so a
    request r gives G[u] = min(F[v] for v < u) + |r - s(u)|, and the
    multiset's optimum is min(G).  The prefix minima of F are taken once
    per state and each point's row from slot d on once per depth d; the
    last level keeps only min(G).  The caller keeps ``depth`` within the
    total capacity, so G is never empty.
    """
    dist = [[abs(p - s) for s in servers] for p in points]
    order = sorted(range(len(points)), key=points.__getitem__)
    ranked = [(depth + 1) ** i for i in range(len(points))]
    weight = [0] * len(points)
    for x, w in zip(order, ranked):
        weight[x] = w
    if not depth:
        return {}, weight, dist
    slot_server = [j for j, c in enumerate(caps) for _ in range(min(c, depth))]
    by_rank = [dist[x] for x in order]
    if slot_server != list(range(len(servers))):  # else a distance row is its slot row
        by_rank = [list(map(row.__getitem__, slot_server)) for row in by_rank]
    tails = [by_rank] + [[row[d:] for row in by_rank] for d in range(1, depth)]
    optima: dict[int, int] = {}
    row_keys = [0]  # the multisets of fewer than ``depth`` points
    # (d, first, F, key): F prices a d-request prefix whose last point
    # has rank ``first``, from slot d - 1 on, slot -1 being virtual at cost 0.
    todo = [(0, 0, [0] * (len(slot_server) + 1), 0)]
    while todo:
        d, first, F, key = todo.pop()
        P = list(accumulate(F, min))
        tail = tails[d]
        if d + 1 < depth:
            for i in range(first, len(points)):
                G = list(map(add, P, tail[i]))
                child = key + ranked[i]
                optima[child] = min(G)
                row_keys.append(child)
                todo.append((d + 1, i, G, child))
        else:
            for i in range(first, len(points)):
                optima[key + ranked[i]] = min(map(add, P, tail[i]))
    del tails, by_rank  # not held beside the rows
    rows = {key: tuple([optima[key + w] for w in weight]) for key in row_keys}
    return rows, weight, dist


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
    one DP solve per request plus one per server that is not skipped, each
    O(n * (slack + 1)) time and O(sum of min(c_j, n)) memory
    (``dp_cost_ints``).
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
