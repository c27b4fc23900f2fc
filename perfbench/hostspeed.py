"""Host-speed calibration: scale wall times by a fixed reference routine.

The benchmark runs on a few cores of a shared virtual machine whose speed
switches between a fast and a slow state within fractions of a second and
drifts between runs, in CPU time as much as in wall time, so longer runs
and medians alone do not make two sets of runs agree.  A short fixed
reference routine is therefore timed between cases, every ``EVERY_S``
seconds of case time, and every case's wall time is multiplied by
``REFERENCE_S / t_ref``, with ``t_ref`` the mean of the timings taken just
before and just after it.  A scaled time reads as the wall time on a host
where the routine takes ``REFERENCE_S``.

The routine calls nothing in ``cliffsteer``: a change to the program moves
the scaled times fully, while a change of host speed moves the routine and
the case together and cancels.  It mixes the kinds of work the program
does: integer arithmetic, small ``Fraction`` sums, tuple keys in a dict and
small objects.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# the routine's median time on the 2-vCPU virtual machine the bounds were
# set on; fixed, so that scaled times compare across runs and commits
REFERENCE_S = 0.0012
# seconds of case time between two timings of the routine: the host's speed
# switches between a fast and a slow state within fractions of a second, so
# the routine is timed often and kept short
EVERY_S = 0.02


class _Term:
    __slots__ = ("coef", "key")

    def __init__(self, coef, key):
        self.coef = coef
        self.key = key

    def times(self, other):
        return _Term(self.coef * other.coef, self.key + other.key)


def reference() -> int:
    """A fixed amount of work that does not depend on the program."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    acc: dict = {}
    third = Fraction(1, 3)
    for i in range(75):
        term = _Term(third, ((i * 37) & 63,)).times(_Term(Fraction(i + 1, 3), (i % 5,)))
        acc[term.key] = acc.get(term.key, 0) + term.coef
    for i in range(375):
        term = _Term(i, (i & 127,)).times(_Term(3, ((i >> 3) & 15,)))
        acc[term.key] = acc.get(term.key, 0) + term.coef
    return total + len(acc)


def time_reference() -> float:
    """One timing of the routine, with the collector held off so that it
    does not charge the program's garbage to the routine."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Times the routine as cases run and scales their wall times.

    The routine is timed at the start of a round, after every ``EVERY_S``
    of case time and at the end of the round, so every case lies between
    two timings taken close to it."""

    def __init__(self):
        self.timings: list[float] = []
        self._since = 0.0
        self._marks: list[int] = []  # per sample, the timing taken before it
        self.raw: list[float] = []

    def tick(self) -> None:
        self.timings.append(time_reference())
        self._since = 0.0

    def record(self, elapsed: float) -> None:
        """Take one case's wall time; time the routine when it is due."""
        self.raw.append(elapsed)
        self._marks.append(len(self.timings) - 1)
        self._since += elapsed
        if self._since >= EVERY_S:
            self.tick()

    def end_round(self) -> None:
        if self._since:
            self.tick()

    def scaled(self) -> list[float]:
        """Every recorded wall time, scaled to the reference host."""
        # the timing before a case and the one after it
        factors = [
            REFERENCE_S / statistics.fmean(self.timings[j : j + 2])
            for j in range(len(self.timings))
        ]
        return [t * factors[j] for t, j in zip(self.raw, self._marks)]


def scale_once(run):
    """Call ``run()`` between timings of the routine; returns its result and
    the scale factor from the median of the six timings."""
    before = [time_reference() for _ in range(3)]
    result = run()
    after = [time_reference() for _ in range(3)]
    return result, REFERENCE_S / statistics.median(before + after)
