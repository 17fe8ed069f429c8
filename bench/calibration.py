"""A fixed kernel that measures how fast the machine runs at the moment.

On shared machines the speed of one core drifts by tens of percent within
seconds and over minutes, and a pass of a workload inherits that drift.
The kernel below does the same kinds of work as graphflow (a BFS over
tuple vertices in Python and a short explicit stepping loop of small numpy
calls) but belongs to the benchmark, so changes to graphflow do not move
it.  :class:`Sampler` times it every ``INTERVAL_S`` seconds while a
measurement runs; dividing the measurement by the mean kernel time gives a
time in machine-speed units, which ``REFERENCE_S`` turns back into seconds.

Never change the kernel or ``REFERENCE_S``: every normalized time, and so
every baseline, is scaled by them.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter

import numpy as np

# about the kernel's median time on a 2-core VM (Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.006
REPEATS = 5
INTERVAL_S = 0.25


def kernel():
    """The fixed work: a radius-25 BFS on Z^2 and 400 flux steps on 400 vertices."""
    dist = {(0, 0): 0}
    frontier = deque([(0, 0)])
    while frontier:
        x = frontier.popleft()
        d = dist[x]
        if d == 25:
            continue
        for k in range(2):
            for s in (-1, 1):
                y = x[:k] + (x[k] + s,) + x[k + 1:]
                if y not in dist:
                    dist[y] = d + 1
                    frontier.append(y)
    n = 400
    ei = np.arange(n - 1)
    ej = ei + 1
    u = np.zeros(n)
    u[n // 2] = 1.0
    for _ in range(400):
        s = u[ej] - u[ei]
        flux = np.abs(s) * s
        u = u + 0.1 * (np.bincount(ei, flux, n) - np.bincount(ej, flux, n))
    return len(dist), float(u.sum())


def measure():
    """Median kernel time over ``REPEATS`` runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times the kernel every ``INTERVAL_S`` of wall time from a SIGALRM handler.

    The handler runs between bytecodes of the main thread, so samples fall
    evenly over the measured work.  ``spent`` is the time the samples took,
    to be taken off the measurement.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # the measurement ended before the first tick
            self.samples.append(measure())
        return False

    def clock(self):
        """Seconds that stand still while a sample runs."""
        return perf_counter() - self.spent

    def normalize(self, elapsed):
        """``elapsed`` (which includes the samples) at reference speed, in seconds."""
        return (elapsed - self.spent) / statistics.fmean(self.samples) * REFERENCE_S
