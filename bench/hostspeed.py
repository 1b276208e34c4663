"""Host speed, sampled with a fixed calibration loop.

The shared 2-vCPU host this benchmark was tuned on runs the same code
1.2-1.8x slower for stretches of 5 to 60 s (another tenant on the core);
that swing is larger than any useful regression bound.  The loop below
never calls rifclark: small-array numpy calls from Python plus a batch of
8x8 eigenvalue problems, the instruction mix of level-set tracing.  It is
timed between ops on the same pinned CPU (median of three passes), and
each op's wall time is divided by the host's slowdown around it, giving
quiet-host seconds.  On that host this cut the spread of 10 s windows of
one op from 33% to 2%.  Raw wall-clock figures are reported next to the scaled ones.

A single pass is not enough: the first pass in a process reads 10-15%
slow, and one pass is noisy.  Scaling the set-up by one first pass
spread ``setup_s`` by 0.27 over ten seeds; the median of passes after a
warm-up pass brought it to 0.12 or less.
"""

import os
import statistics
import time

import numpy as np

# loop time on the reference host when quiet (Xeon 2.1 GHz, 2 vCPUs)
QUIET_S = 0.0034


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so the loop sees the
    same contention as the ops it scales."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(3) + 0j
        self._b = rng.standard_normal(3) + 0j
        self._mats = rng.standard_normal((40, 8, 8))
        self._vec = rng.standard_normal(50000)
        self.sample()  # the first pass pays for cold caches and allocations

    def sample(self):
        """Slowdown now: loop time over its quiet time."""
        t0 = time.perf_counter()
        for _ in range(400):
            cost = np.abs(self._a[:, None] - self._b[None, :])
            np.delete(cost[0], int(np.argmin(cost[0])))
        np.linalg.eigvals(self._mats)
        np.sort(self._vec)
        return (time.perf_counter() - t0) / QUIET_S

    def settled(self, count=5):
        """Median of ``count`` samples taken back to back."""
        return statistics.median(self.sample() for _ in range(count))


class SpanClock:
    """Quiet-host seconds of a span made of several steps.  The host is
    sampled at each ``mark``, and the wall time between two marks is
    divided by the mean slowdown at its ends; sampling time is left out.
    Sampling only at the ends of a set-up of several seconds missed host
    slowdowns in its middle."""

    def __init__(self, hs, before_s=0.0):
        """``before_s``: wall time the span ran before the host could be
        sampled (the imports); it is scaled by the first sample."""
        self.hs = hs
        self._slowdown = hs.settled()
        self.wall_s = before_s
        self.seconds = before_s / self._slowdown
        self._t = time.perf_counter()

    def mark(self):
        wall = time.perf_counter() - self._t
        slowdown = self.hs.settled(3)
        self.wall_s += wall
        self.seconds += wall / (0.5 * (self._slowdown + slowdown))
        self._slowdown = slowdown
        self._t = time.perf_counter()
