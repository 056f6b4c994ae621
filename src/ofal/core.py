"""Domain types, exact arithmetic, instance I/O, and cost accounting.

All coordinates and costs are arbitrary-precision rationals
(``fractions.Fraction``).  Floating point never enters a comparison: the
critical-point and adversary constructions used elsewhere in the package
hinge on exact ``<=`` decisions at ratio-valued boundaries.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Sequence, Union

CoordLike = Union[Fraction, int, str, float]

#: Extended-rational infinity used by ``compute_rate``.
INF = math.inf

#: Most digits an input number, or the common denominator of one input
#: file, may have.  Longer ones could not be printed back (Python refuses
#: int->str beyond 4300 digits, and a cost's denominator comes from two
#: files), and a large decimal exponent would make the exact value enormous.
MAX_NUMBER_DIGITS = 1000


class OfalError(Exception):
    """Base class for errors raised by this package."""


class ParseError(OfalError):
    """Malformed instance or sequence input."""


class ValidationError(OfalError):
    """Data violates a structural invariant."""


class SizeGuardError(OfalError):
    """A brute-force operation exceeded its enumeration guard."""


class RuleError(OfalError):
    """A priority rule misbehaved (e.g. returned a non-free server)."""


def to_coord(value: CoordLike) -> Fraction:
    """Convert an input coordinate to an exact rational.

    Accepted forms: ``Fraction``, ``int``, decimal strings (``"0.25"``),
    ``"p/q"`` strings, and ``float`` (converted via its shortest decimal
    repr so that ``0.1`` means one tenth, not its binary approximation).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a coordinate: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"non-finite coordinate: {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        _check_digits(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coordinate {value!r}: {exc}") from None
    raise ParseError(f"not a coordinate: {value!r}")


def _check_digits(text: str) -> None:
    """Reject a numeric literal whose exact value needs more than
    MAX_NUMBER_DIGITS digits, counting the zeros a decimal exponent adds."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(c.isdigit() for c in mantissa)
    if exponent:
        try:
            digits += abs(int(exponent))
        except ValueError:  # malformed (the parser rejects it) or too long for int()
            digits += len(exponent)
    if digits > MAX_NUMBER_DIGITS:
        raise ParseError(f"number with more than {MAX_NUMBER_DIGITS} digits")


def coord_to_json(value: Fraction) -> int | str:
    """Exact JSON form: plain int when integral, else a ``"p/q"`` string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def fraction_str(value: Fraction | float) -> str:
    if value is INF or value == INF:
        return "inf"
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def fraction_decimal(value: Fraction | float) -> str:
    """Decimal approximation with 12 significant digits.  A value beyond
    the float range is rounded exactly, in ``decimal`` at 12 digits, and
    printed in the same format."""
    if value is INF or value == INF:
        return "inf"
    try:
        return f"{float(value):.12g}"
    except OverflowError:
        quotient = decimal.Context(prec=12).divide(value.numerator, value.denominator)
        return f"{quotient.normalize():.12g}"


@dataclass(frozen=True)
class ServerLayout:
    """Server positions on the line, strictly increasing left to right.

    Servers sit at distinct positions, so index order is position order;
    how many requests a server takes is ``Instance.capacities``.
    """

    positions: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        positions = tuple(to_coord(p) for p in self.positions)
        object.__setattr__(self, "positions", positions)
        if not positions:
            raise ValidationError("layout must contain at least one server")
        for a, b in zip(positions, positions[1:]):
            if a >= b:
                raise ValidationError(
                    f"server positions must be strictly increasing, got {a} then {b}"
                )

    @property
    def k(self) -> int:
        return len(self.positions)

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, j: int) -> Fraction:
        return self.positions[j]

    @property
    def span(self) -> Fraction:
        return self.positions[-1] - self.positions[0]

    def gaps(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip(self.positions, self.positions[1:]))

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """``(ints, scale)``: the positions times ``scale``, the lcm of their
        denominators.  Computed on first use and kept, so a layout the
        online rules never walk pays nothing."""
        ints, _, scale = scale_to_ints(self.positions, ())
        return tuple(ints), scale


@dataclass(frozen=True)
class Instance:
    """A server layout plus one positive capacity per server."""

    layout: ServerLayout
    capacities: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        if len(self.capacities) != self.layout.k:
            raise ValidationError(
                f"{len(self.capacities)} capacities for {self.layout.k} servers"
            )
        if any(c < 1 for c in self.capacities):
            raise ValidationError("every capacity must be >= 1")

    @property
    def k(self) -> int:
        return self.layout.k

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)


def unit_instance(layout: ServerLayout) -> Instance:
    return Instance(layout, (1,) * layout.k)


@dataclass(frozen=True)
class RequestSequence:
    """Ordered request positions, revealed one by one."""

    requests: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(to_coord(r) for r in self.requests))

    def __len__(self) -> int:
        return len(self.requests)

    def __getitem__(self, i: int) -> Fraction:
        return self.requests[i]

    def __iter__(self):
        return iter(self.requests)


@dataclass(frozen=True)
class AssignmentTrace:
    """Result of running an online algorithm over a sequence.

    ``assignment[t]`` is the (0-based) server index matched to request t;
    ``remaining_after[t]`` is the per-server residual capacity just after
    that match, from which the free set F_t is derived, and
    ``per_step_cost[t]`` the distance of that match.  ``simulate`` stores
    O(n + k): its ``remaining_after`` derives each row on read from the
    capacities and the assignment, and its ``per_step_cost`` each Fraction
    from an integer cost and the common scale.  A trace built from tuples
    works the same; the two compare and hash equal.
    """

    assignment: tuple[int, ...]
    remaining_after: Sequence[tuple[int, ...]]
    per_step_cost: Sequence[Fraction]
    total_cost: Fraction

    def free_after(self, t: int) -> tuple[int, ...]:
        """Free servers F_t (t >= 0), as the increasing tuple a rule sees; see also ``free_before``."""
        if t < 0:
            raise IndexError("use free_before(0) for the initial free set")
        return tuple(j for j, c in enumerate(self.remaining_after[t]) if c > 0)


def compute_rate(alg_cost: Fraction, opt_cost: Fraction) -> Fraction | float:
    """Cost ratio with the degenerate-denominator conventions.

    Returns alg/opt when opt > 0, ``INF`` when opt == 0 < alg, and 1 when
    both costs are 0.
    """
    if opt_cost > 0:
        return alg_cost / opt_cost
    if alg_cost > 0:
        return INF
    return Fraction(1)


# ---------------------------------------------------------------------------
# JSON I/O
#
# Instance files: {"servers": [coord, ...], "capacities": [int, ...]}
# Sequence files: {"requests": [coord, ...]}
# A coord is a JSON number or a "p/q" / decimal string.  Floats in the file
# are parsed from their literal text, so "0.1" means exactly one tenth.
# ---------------------------------------------------------------------------


def _json_int(text: str) -> int:
    _check_digits(text)
    return int(text)


def _load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=to_coord, parse_int=_json_int)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _file_coords(values: Sequence) -> list[Fraction]:
    """Parse a file's coordinates.  Rejects a coordinate whose written form
    (``coord_to_json``) has more than MAX_NUMBER_DIGITS digits, so every
    file that loads writes back as one that loads, and a common
    denominator of 10**MAX_NUMBER_DIGITS or more."""
    coords = [to_coord(v) for v in values]
    scale, limit = 1, 10**MAX_NUMBER_DIGITS
    for c in coords:
        _check_digits(str(coord_to_json(c)))
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
        if scale >= limit:
            raise ParseError(f"common denominator with more than {MAX_NUMBER_DIGITS} digits")
    return coords


def check_file_coords(coords: Sequence[Fraction]) -> None:
    """Raise ParseError unless ``parse_instance`` / ``parse_sequence`` accept
    these coordinates as one file's, written as ``coord_to_json`` writes them."""
    limit = 10**MAX_NUMBER_DIGITS
    if any(abs(c.numerator) >= limit or c.denominator >= limit for c in coords):  # too long to print
        raise ParseError(f"number with more than {MAX_NUMBER_DIGITS} digits")
    _file_coords(coords)


def parse_instance(data: dict) -> Instance:
    if not isinstance(data, dict) or "servers" not in data:
        raise ParseError('instance JSON must be an object with a "servers" array')
    servers = data["servers"]
    if not isinstance(servers, list):
        raise ParseError('"servers" must be an array of coordinates')
    positions = _file_coords(servers)
    if sorted(positions) != positions or len(set(positions)) != len(positions):
        raise ParseError("unsorted or duplicate server positions")
    capacities = data.get("capacities", [1] * len(positions))
    if not isinstance(capacities, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in capacities
    ):
        raise ParseError('"capacities" must be an array of integers')
    try:
        return Instance(ServerLayout(tuple(positions)), tuple(capacities))
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def load_instance(path: str | Path) -> Instance:
    return parse_instance(_load_json(path))


def instance_to_dict(inst: Instance) -> dict:
    return {
        "servers": [coord_to_json(p) for p in inst.layout.positions],
        "capacities": list(inst.capacities),
    }


def check_output_path(path: str, what: str) -> None:
    """Raise ValidationError unless a file can be created at ``path``: it
    must not name a directory, its directory must exist, and the system
    must accept the name (not one too long, say)."""
    try:
        if Path(path).is_dir():
            raise ValidationError(f"{what} {path} is a directory")
        if not Path(path).parent.is_dir():
            raise ValidationError(f"{what} {path} lies in a missing directory")
    except OSError as exc:
        raise ValidationError(f"{what} {path}: {exc.strerror or exc}") from None


def write_output(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; an OSError becomes a ValidationError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def save_instance(inst: Instance, path: str | Path) -> None:
    write_output(path, json.dumps(instance_to_dict(inst)) + "\n")


def parse_sequence(data: dict) -> RequestSequence:
    if not isinstance(data, dict) or "requests" not in data:
        raise ParseError('sequence JSON must be an object with a "requests" array')
    requests = data["requests"]
    if not isinstance(requests, list):
        raise ParseError('"requests" must be an array of coordinates')
    return RequestSequence(tuple(_file_coords(requests)))


def load_sequence(path: str | Path) -> RequestSequence:
    return parse_sequence(_load_json(path))


def sequence_to_dict(seq: RequestSequence) -> dict:
    return {"requests": [coord_to_json(r) for r in seq.requests]}


def save_sequence(seq: RequestSequence, path: str | Path) -> None:
    write_output(path, json.dumps(sequence_to_dict(seq)) + "\n")


def trace_to_dict(trace: AssignmentTrace) -> dict:
    return {
        "assignment": list(trace.assignment),
        "per_step_cost": [fraction_str(c) for c in trace.per_step_cost],
        "total_cost": fraction_str(trace.total_cost),
        "free_snapshots": [list(row) for row in trace.remaining_after],
    }


# ---------------------------------------------------------------------------
# Integer rescaling
#
# Several solvers run much faster on plain ints.  Multiplying every
# coordinate by the lcm of the denominators is exact and order-preserving.
# Solvers of an (instance, sequence) pair get their ints from
# ``scaled_pair``; grid points go through ``scale_to_ints``.  The online
# rules decide on ``ServerLayout.scaled``, the layout's own scale, and
# bring each request onto it by cross-multiplying.
# ---------------------------------------------------------------------------


def scale_to_ints(
    servers: Sequence[Fraction], points: Sequence[Fraction]
) -> tuple[list[int], list[int], int]:
    """Servers and points times ``scale``, the lcm of all their denominators."""
    scale = math.lcm(*{v.denominator for v in (*servers, *points)})
    return (
        [v.numerator * (scale // v.denominator) for v in servers],
        [v.numerator * (scale // v.denominator) for v in points],
        scale,
    )


def scaled_pair(inst: Instance, seq: RequestSequence) -> tuple[list[int], list[int], int]:
    """``scale_to_ints`` of a pair's servers and requests; raises
    ValidationError, "n requests exceed total capacity c", when the
    sequence is longer than the instance's total capacity."""
    if len(seq) > inst.total_capacity:
        raise ValidationError(f"{len(seq)} requests exceed total capacity {inst.total_capacity}")
    return scale_to_ints(inst.layout.positions, seq.requests)
