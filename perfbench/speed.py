"""The machine's speed, from a fixed calibration computation.

The benchmark runs on a few cores of a shared host whose speed can change by
half from one quarter second to the next as the neighbours' load comes and
goes; every timing moves with it, set-up and the shortest queries alike, so
no choice of samples within a run removes it.  Each run therefore also times
a fixed computation from `oracles.py` (plain set folds and polynomial
arithmetic over tables that do not come from mvla) next to its samples, and
reports its times at the speed where that computation takes REFERENCE_S: a
sample of t seconds during which the calibration took c is reported as
t * REFERENCE_S / c.  A change to mvla cannot change the calibration, which
runs with the garbage collector off so that the size of the program's heap
does not reach it either.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import oracles as O

REFERENCE_S = 0.0012  # the calibration's time at the reported speed
BATCH_S = 0.02        # seconds from one calibration to the next between queries
PERIOD_S = 0.1        # CPU time between two calibrations inside a query

_H5, _H3 = O.hp(5), O.hp(3)
_MATRIX = ((1, 2, 3), (4, 0, 2))
_QUARTICS = ((1, 1, 0, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1))


def calibration():
    """Seconds the fixed computation takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            O.kernel_exists(_H5, _MATRIX)
            O.closure(_H3, 2, [(1, 2)])
            for f in _QUARTICS:
                O.trial_irreducible(f, 2)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def median_calibration(n):
    return statistics.median(calibration() for _ in range(n))


class Sampler:
    """Calibrations over a run: one just before any query that starts
    BATCH_S or more after the last one, and one every PERIOD_S of CPU time on
    SIGPROF, which lands inside long queries.  `spent` is the wall time they
    took; a query's time leaves it out."""

    def __init__(self):
        self.at = []        # perf_counter when each calibration ended
        self.samples = []   # seconds each took
        self.spent = 0.0
        self.busy = False

    def tick(self, _signum=None, _frame=None):
        if self.busy:
            return
        self.busy = True
        try:
            t0 = time.perf_counter()
            self.samples.append(calibration())
            t1 = time.perf_counter()
            self.at.append(t1)
            self.spent += t1 - t0
        finally:
            self.busy = False

    def maybe_tick(self):
        if not self.at or time.perf_counter() - self.at[-1] >= BATCH_S:
            self.tick()

    def around(self, start, end):
        """Mean of the calibrations from the last one before `start` to the
        first one after `end`: the speed of the machine while a sample ran."""
        lo = max(0, bisect.bisect_right(self.at, start) - 1)
        hi = bisect.bisect_left(self.at, end) + 1
        return statistics.fmean(self.samples[lo:hi])

    def start(self):
        self.tick()
        signal.signal(signal.SIGPROF, self.tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.tick()
