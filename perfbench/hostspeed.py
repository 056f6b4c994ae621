"""Host-speed reference: a fixed stdlib loop timed between benchmark items.

Other tenants of a shared host change how fast this process runs, by up to
1.8x and for minutes at a time: longer than a run, so no statistic over a
run's own timings removes it.  The reference does the kind of work the
program's hot loops do (exact ``Fraction`` arithmetic, comparisons, a
``min`` over candidates, dict updates) and never calls the program, so a
change to the program cannot move it and its time follows the host alone.

Timed between items after every ``EVERY_S`` seconds of item work, its mean
over a run, weighted by that work, is the run's host factor (mean time /
``NOMINAL_S``).  Dividing a run's times by that factor reports them at the
host speed where the reference takes ``NOMINAL_S``.  On a 2-vCPU shared
VM, ten 30-second sweep-small runs made while the host's speed drifted by
1.8x spread by 32% in items_per_s (interquartile range over median), and
by 3% once divided by their factors.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

#: Seconds of item work between two reference samples.
EVERY_S = 0.5
#: Reference time that defines the reported speed; the reference ran in
#: 15-27 ms on a 2-vCPU shared VM (Python 3.11).
NOMINAL_S = 0.025

_POINTS = tuple(Fraction(7 * j % 64, 64) + j for j in range(40))


def reference() -> Fraction:
    """Nearest of 40 fixed points for 100 fixed requests, distances summed."""
    total = Fraction(0)
    used: dict[int, int] = {}
    for r in range(100):
        x = Fraction(r * 37 % 101, 16) + Fraction(r, 7)
        j = min(range(len(_POINTS)), key=lambda j: abs(x - _POINTS[j]))
        used[j] = used.get(j, 0) + 1
        total += abs(x - _POINTS[j])
    return total


class HostClock:
    """Reference samples taken between units of work, each weighted by the
    work it stands for, so that a run's factor weighs the host's speed by
    time as the run's throughput does."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._work = 0.0

    def sample(self, weight: float = EVERY_S) -> None:
        begin = perf_counter()
        reference()
        self.samples.append((perf_counter() - begin, weight))

    def after(self, seconds: float) -> None:
        """Count ``seconds`` of work; sample once ``EVERY_S`` have built up."""
        self._work += seconds
        if self._work >= EVERY_S:
            self.sample(self._work)
            self._work = 0.0

    def factor(self) -> float:
        """Weighted mean reference time over NOMINAL_S: above 1 on a slower host."""
        total = sum(weight for _, weight in self.samples)
        return sum(t * weight for t, weight in self.samples) / total / NOMINAL_S
