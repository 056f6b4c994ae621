"""Adversarial and randomized input generators.

Two named constructions drive the headline comparisons: an exponential
layout on which greedy cascades to the far end (family ``greedy_exp``),
and a mirrored geometric layout on which the prefix-optimum follower pays
the center gap over and over (family ``permutation_geo``).  Generic
seeded random families and the candidate points of the exhaustive grid
search back the sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .algorithms import gap_table, ptcp_rule
from .core import (
    MAX_NUMBER_DIGITS,
    Instance,
    ParseError,
    RequestSequence,
    ServerLayout,
    SizeGuardError,
    ValidationError,
    check_file_coords,
)
from .engine import simulate
from .offline import optimal_cost

#: Most requests one adversary sequence may hold: k * capacity for greedy
#: and 2k * capacity for permutation.  On a 2-core x86 VM with CPython 3.11,
#: ``ofal adversary greedy --k 2 --capacity 500000`` builds and prints its
#: 10^6 requests in about 1 s and 110 MB.
ADVERSARY_MAX_REQUESTS = 10**6


@dataclass(frozen=True)
class AdversaryParams:
    k: int
    delta: Fraction
    capacities: tuple[int, ...]


def _largest_power_of_tenth(ok) -> Fraction:
    """Largest delta = 10^-m (m >= 1) accepted by the predicate."""
    delta = Fraction(1, 10)
    while not ok(delta):
        delta /= 10
        if delta.denominator > 10**60:
            raise ValidationError("no feasible delta found")
    return delta


def check_adversary_size(family: str, k: int, capacity: int) -> None:
    """Refuse a ``family`` sequence above ADVERSARY_MAX_REQUESTS before any
    list is built: greedy's has k * capacity requests, permutation's
    2k * capacity."""
    if (k if family == "greedy" else 2 * k) * capacity > ADVERSARY_MAX_REQUESTS:
        raise SizeGuardError(
            f"{family} adversary guard: k={k} at capacity {capacity} "
            f"exceeds {ADVERSARY_MAX_REQUESTS} requests"
        )


def greedy_params(k: int, epsilon: Fraction, capacity: int = 1) -> AdversaryParams:
    """Parameters for the exponential-layout construction.

    delta must satisfy k*delta/(1 + k*delta) <= epsilon * 2^-k so that the
    measured ratio stays within epsilon of 2^k - 1.
    """
    if k < 2:
        raise ValidationError("greedy adversary needs k >= 2")
    check_adversary_size("greedy", k, capacity)
    epsilon = Fraction(epsilon)
    bound = epsilon * Fraction(1, 2**k)
    delta = _largest_power_of_tenth(lambda d: k * d / (1 + k * d) <= bound)
    return AdversaryParams(k=k, delta=delta, capacities=(capacity,) * k)


def greedy_adversary(params: AdversaryParams) -> tuple[Instance, RequestSequence]:
    """Layout {0, 2, 4, ..., 2^(k-1)} with requests just right of each server.

    After c(s)-1 warm-up requests on every server, request i lands at
    2^(i-1) + delta: greedy hops to the next server each time and finally
    pays the whole span, while the optimum absorbs each request locally.
    """
    k, delta = params.k, params.delta
    if not (0 < delta < 1):
        # The cascade pattern needs each request strictly inside its gap.
        raise ValidationError("exponential construction needs 0 < delta < 1")
    positions = tuple(Fraction(0) if i == 0 else Fraction(2**i) for i in range(k))
    inst = Instance(ServerLayout(positions), params.capacities)
    requests: list[Fraction] = []
    for j, c in enumerate(inst.capacities):
        requests.extend([positions[j]] * (c - 1))
    # The t-th interesting request lands at 2^t + delta; the first one sits
    # between the first two servers, each later one just right of a server.
    requests.extend(Fraction(2**t) + delta for t in range(k))
    return inst, RequestSequence(tuple(requests))


def permutation_params(k: int, epsilon: Fraction, capacity: int = 1) -> AdversaryParams:
    """Parameters for the mirrored geometric construction.

    delta must satisfy delta^k + delta*(4k - 1) < epsilon and
    1/(1 - delta) < 1 + epsilon/2.
    """
    if k < 1:
        raise ValidationError("permutation adversary needs k >= 1")
    check_adversary_size("permutation", k, capacity)
    epsilon = Fraction(epsilon)

    def ok(d: Fraction) -> bool:
        return d**k + d * (4 * k - 1) < epsilon and 1 / (1 - d) < 1 + epsilon / 2

    delta = _largest_power_of_tenth(ok)
    return AdversaryParams(k=k, delta=delta, capacities=(capacity,) * (2 * k))


def permutation_geometric_layout(k: int, delta: Fraction) -> ServerLayout:
    """2k servers at +/- (1 - delta^i)/(1 - delta) for i = 1..k."""
    right = [(1 - delta**i) / (1 - delta) for i in range(1, k + 1)]
    positions = tuple(-v for v in reversed(right)) + tuple(right)
    return ServerLayout(positions)


def permutation_adversary(params: AdversaryParams) -> tuple[Instance, RequestSequence]:
    """Requests near the midpoints of successive gaps, alternating sides.

    Odd requests sit just left of the midpoints walking right from the
    center, even requests just right of the midpoints walking left.  The
    final even midpoint has no gap left of the leftmost server and
    degenerates to the leftmost server itself.  Raises ValidationError when
    the files could not hold the result (k >= 109 at epsilon = 1/10).
    """
    k, delta = params.k, params.delta
    if not (0 < delta < Fraction(1, 3)):
        # Keeps the geometric gaps well separated from the request nudges.
        raise ValidationError("geometric construction needs 0 < delta < 1/3")
    # The first coordinate checked below is the leftmost server,
    # -(1 + delta + ... + delta^(k-1)).  At delta = 10^-p and k >= 2 it is
    # written as a numerator and a denominator of p(k - 1) + 1 digits each,
    # so a k too large for the files is refused, with the message the
    # check would give, before anything is built.
    p = len(str(delta.denominator)) - 1
    if k > 1 and delta == Fraction(1, 10**p) and 2 * (p * (k - 1) + 1) > MAX_NUMBER_DIGITS:
        raise ValidationError(
            f"permutation adversary k={k} exceeds the input limits: number with more than {MAX_NUMBER_DIGITS} digits"
        )
    layout = permutation_geometric_layout(k, delta)
    inst = Instance(layout, params.capacities)
    s = layout.positions  # s[j] is the paper-order (j+1)-th server, 0-based

    def eps(j: int) -> Fraction:
        return Fraction(1, 2 ** (2 * k - j + 1)) * delta**k / (1 - delta)

    requests: list[Fraction] = []
    for j, c in enumerate(inst.capacities):
        requests.extend([s[j]] * (c - 1))
    for i in range(1, k + 1):
        x_odd = (s[k + i - 2] + s[k + i - 1]) / 2
        left_index = max(k - i - 1, 0)  # gap left of the leftmost server degenerates
        x_even = (s[left_index] + s[k - i]) / 2
        requests.append(x_odd - eps(2 * i - 1))
        requests.append(x_even + eps(2 * i))
    for coords in (layout.positions, requests):
        try:
            check_file_coords(coords)
        except ParseError as exc:
            raise ValidationError(f"permutation adversary k={k} exceeds the input limits: {exc}") from None
    return inst, RequestSequence(tuple(requests))


def adversary(family: str, k: int, epsilon: Fraction, capacity: int) -> tuple[Instance, RequestSequence]:
    """The instance and sequence of ``family``: "greedy" builds the
    exponential construction, any other family the permutation one."""
    if family == "greedy":
        return greedy_adversary(greedy_params(k, epsilon, capacity))
    return permutation_adversary(permutation_params(k, epsilon, capacity))


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------


def random_rational(rng: random.Random, lo: Fraction, hi: Fraction, den: int = 1024) -> Fraction:
    """Uniform rational on the den-step grid over [lo, hi]: lo + m/den * (hi - lo)
    for one draw m, built as a single Fraction over the common denominator."""
    if hi < lo:
        raise ValidationError("empty interval")
    m = rng.randint(0, den)
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return Fraction(a * d * den + m * (c * b - a * d), b * d * den)


def random_layout(
    rng: random.Random, k: int, coord_den: int = 8, hull: int = 16
) -> ServerLayout:
    """k distinct sorted rationals with denominator coord_den in [0, hull]."""
    size = hull * coord_den + 1
    if not 1 <= k <= size:
        raise ValidationError(f"a random layout holds 1 to {size} servers, not {k}")
    ticks = rng.sample(range(size), k)
    return ServerLayout(tuple(Fraction(t, coord_den) for t in sorted(ticks)))


def random_instance(rng: random.Random, k: int, cap_max: int = 1) -> Instance:
    layout = random_layout(rng, k)
    caps = tuple(rng.randint(1, cap_max) for _ in range(k))
    return Instance(layout, caps)


def random_sequences(
    inst: Instance,
    n: int,
    seed: int,
    distribution: str = "uniform",
    count: int | None = None,
) -> Iterator[RequestSequence]:
    """Seeded stream of request sequences for an instance.

    distributions:
      uniform   -- grid-uniform over the server hull;
      mixture   -- a random server plus small noise;
      opposite  -- points between the split-tree rule's and the optimum's
                   servers of a pilot run, biased toward hard inputs.
    """
    if n > inst.total_capacity:
        raise ValidationError("sequence length exceeds total capacity")
    rng = random.Random(seed)
    positions = inst.layout.positions
    lo, hi = positions[0], positions[-1]
    if hi == lo:
        lo, hi = lo - 1, hi + 1
    spread = min(inst.layout.gaps(), default=Fraction(1))

    def one_request(kind: str) -> Fraction:
        if kind == "uniform":
            return random_rational(rng, lo, hi)
        j = rng.randrange(inst.k)
        noise = random_rational(rng, -spread / 2, spread / 2, den=64)
        return positions[j] + noise

    produced = 0
    while count is None or produced < count:
        if distribution in ("uniform", "mixture"):
            seq = RequestSequence(tuple(one_request(distribution) for _ in range(n)))
        elif distribution == "opposite":
            seq = _opposite_biased(inst, n, rng)
        else:
            raise ValidationError(f"unknown distribution {distribution!r}")
        produced += 1
        yield seq


def _opposite_biased(inst: Instance, n: int, rng: random.Random) -> RequestSequence:
    """Resample each pilot request between its online and offline servers."""
    positions = inst.layout.positions
    lo, hi = positions[0], positions[-1]
    if hi == lo:
        lo, hi = lo - 1, hi + 1
    pilot = RequestSequence(tuple(random_rational(rng, lo, hi) for _ in range(n)))
    online = simulate(ptcp_rule(inst.layout), inst, pilot)
    offline = optimal_cost(inst, pilot)
    requests = []
    for t in range(n):
        a, b = sorted((positions[online.assignment[t]], positions[offline.assignment[t]]))
        requests.append(random_rational(rng, a, b, den=64))
    return RequestSequence(tuple(requests))


# ---------------------------------------------------------------------------
# Exhaustive grids
# ---------------------------------------------------------------------------


#: Candidate points are nudged into their gap by gap / OFFSET_DEN.
OFFSET_DEN = 16


def candidate_points(
    layout: ServerLayout, include_offsets: bool = True
) -> tuple[Fraction, ...]:
    """Deduplicated worst-case candidate positions for a layout.

    Server positions, every split-tree critical point, every adjacent-gap
    midpoint, and (optionally) each of those nudged by gap/OFFSET_DEN into
    its gap, clipped to the hull.  Adversarial inputs in this problem pivot
    on exactly these points.
    """
    positions = layout.positions
    lo, hi = positions[0], positions[-1]
    points: set[Fraction] = set(positions)
    critical, _ = gap_table(layout)
    for a, b, (num, den) in zip(positions, positions[1:], critical):
        crit, mid = Fraction(num, den), (a + b) / 2
        points.update((crit, mid))
        if include_offsets:
            step = (b - a) / OFFSET_DEN
            points.update((crit - step, crit + step, mid - step, mid + step, a + step, b - step))
    return tuple(sorted(p for p in points if lo <= p <= hi))

