"""Machine speed at the moment, from a fixed pure-Python loop.

On a shared 2-core VM the speed of one core switches between levels up to
twice apart for allocation-heavy rational arithmetic, in phases of one to
tens of seconds, for reasons outside the benchmark (CPU time equals wall
time throughout).  Left alone, that swamps any program change of less than
about 20 %.  So the benchmark times a fixed loop, half
``fractions.Fraction`` arithmetic (the kind of work stackygit does, which
slows down more than the other half) and half small-integer arithmetic,
next to the work it measures and reports

    measured seconds * NOMINAL_S / loop seconds

that is, the time the work would have taken at the speed at which the loop
takes ``NOMINAL_S`` (its fast level on a 2-core Intel Xeon VM with
Python 3.11).  The loop does not touch the program, so a program change
moves the reported times exactly as it moves the measured ones.  Result
files keep the unscaled times too.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0026
#: Re-time the loop when the last timing is older than this.
STALE_S = 0.1
#: Loop timings this close to an operation set its scale.
WINDOW_S = 1.0


def loop_seconds() -> float:
    """Seconds one pass of the fixed loop takes now.

    The cyclic collector is off during the pass: otherwise a collection of
    the garbage the measured work left behind lands in the loop now and
    then and makes it read several times slower than the machine is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _loop()
    finally:
        if enabled:
            gc.enable()


def _loop() -> float:
    t0 = perf_counter()
    a, b, acc = Fraction(3 ** 40, 7 ** 20), Fraction(-5 ** 30, 11 ** 12), Fraction(0)
    for i in range(1, 151):
        acc = acc + a * b / i
    small = 0
    for i in range(20_000):
        small = (small + i * i) % 1_000_003
    return perf_counter() - t0


class SpeedGauge:
    """Times the loop between operations and scales their durations.

    ``tick()`` is called before and after each timed operation; it times the
    loop when the last timing is older than ``STALE_S``.  ``scale(t0, t1,
    seconds)`` (once the run is over) scales a duration measured between
    ``t0`` and ``t1`` by the median loop time over that interval widened by
    ``WINDOW_S`` on both sides, or over the three nearest timings: a median
    of several timings follows the phases without the jitter of one.
    """

    def __init__(self):
        self.at, self.seconds = [], []
        self.tick()

    def tick(self):
        now = perf_counter()
        if not self.at or now - self.at[-1] > STALE_S:
            seconds = loop_seconds()
            self.at.append(now + seconds / 2)
            self.seconds.append(seconds)

    def scale(self, t0: float, t1: float, seconds: float) -> float:
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        if hi - lo < 3:
            mid = bisect_left(self.at, (t0 + t1) / 2)
            lo, hi = max(0, mid - 2), min(len(self.at), mid + 2)
            if hi - lo > 3:
                # drop whichever end lies farther from the interval
                lo, hi = (lo + 1, hi) if t0 - self.at[lo] > self.at[hi - 1] - t1 else (lo, hi - 1)
        return seconds * NOMINAL_S / statistics.median(self.seconds[lo:hi])
