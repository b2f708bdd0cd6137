"""A fixed reference loop that gauges how fast the machine runs right now.

On a shared machine the same pass can take 25% longer for minutes at a time
because of other tenants.  Every run times this loop between its verdicts
and scales its end-to-end timings by NOMINAL_S / (mean loop time in the
run), so they read as seconds on a machine running at the reference speed.
The mean, not the median, is used because a pass's wall time sums every
slow burst it meets, and the mean of point samples does the same.  Over 19
consecutive theorems-dense passes on a shared 2-core VM (Python 3.11), the
quartile spread of two-pass medians was 0.26 measured and 0.04 scaled.

The loop uses the standard library only, so no change to bottsol changes
it.  It does the kind of work the bottsol kernel does: Fraction arithmetic
and dict updates keyed by small tuples.  The cyclic garbage collector is off
while it runs, so a program that keeps a larger heap cannot slow the loop
and so make itself look faster.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.025  # loop time at a quiet moment on a shared 2-core VM (Python 3.11)
ITERATIONS = 6000


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        acc: dict = {}
        step = Fraction(1, 3)
        for i in range(ITERATIONS):
            key = (i % 7, i % 11)
            acc[key] = acc.get(key, Fraction(0)) + step * Fraction(i % 13 + 1, i % 5 + 1)
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Times the reference loop at most once per ``interval_s`` of work.

    Workloads call between_items() between verdicts, outside the item
    timers, so the samples spread over the whole run and cover the same
    minutes as the work they scale.  ``paused`` is the time spent in the
    loop; the worker subtracts it from each pass's wall time.  Traced runs
    use an infinite interval, which samples once at the start and keeps the
    loop out of every span.
    """

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list = []
        self.paused = 0.0
        self._due = perf_counter()

    def between_items(self) -> None:
        now = perf_counter()
        if now < self._due:
            return
        self.samples.append(reference_s())
        done = perf_counter()
        self.paused += done - now
        self._due = done + self.interval_s
