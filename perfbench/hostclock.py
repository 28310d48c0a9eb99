"""Host-speed calibration: timings in reference-host seconds.

The speed of a shared host drifts by up to a factor of two over tens of
seconds, on one core and not the other, so raw timings of the same work
spread far more than any useful regression bound.  ``HostClock`` runs a
fixed kernel on the measuring thread and logs its duration: every
``PERIOD_S`` from a SIGALRM timer while in-process work runs, or by
explicit ``sample()`` calls around work done in child processes.  The
kernel time is interpolated linearly between samples; the raw duration
of an interval, multiplied by ``REFERENCE_KERNEL_S`` over the mean
kernel time across that interval, is its duration at the reference
host's speed.  Callers leave calibration time (``spent``) out of their
raw timings.  A program change that removes work lowers the reading in
proportion; a slower host phase does not raise it.
"""

from __future__ import annotations

import bisect
import operator
import signal
import time

import numpy as np

# Median kernel time on the reference host (Intel Xeon, 2 vCPU, CPython 3.11).
REFERENCE_KERNEL_S = 0.0022
PERIOD_S = 0.05

_TIME = operator.itemgetter(0)
_CODES = np.random.default_rng(1).integers(0, 1 << 16, size=100_000)


def _kernel():
    """Fixed work of the same kinds as the program's: GF(2) arithmetic
    on Python ints, a numpy bincount, and small-object churn.  The mix
    tracked the sweep's speed better than any one part (round-to-round
    spread 0.033 against 0.038-0.071 for the parts alone)."""
    a, m, acc = 0x1F3A5, (1 << 31) | 0b1001, 0
    for i in range(300):
        x, b, r = a ^ i, (i * 2654435761) & 0xFFFFF, 0
        while b:
            if b & 1:
                r ^= x
            x <<= 1
            b >>= 1
        while r.bit_length() > 31:
            r ^= m << (r.bit_length() - 32)
        acc ^= r
    acc ^= int(np.bincount(_CODES, minlength=1 << 16).max())
    table = {}
    for i in range(1500):
        t = (i, i * 7, str(i))
        table[t[0] % 977] = t
    return acc ^ sum(1 for v in table.values() if v[1] & 1)


class HostClock:
    """A log of (time, kernel seconds) samples and scaling against it."""

    def __init__(self):
        self.samples = []  # (perf_counter at kernel start, kernel seconds)
        self.spent = 0.0  # raw seconds spent in the kernel so far
        self._timer = False
        self.sample()

    def sample(self, runs=1):
        """Time the kernel; with ``runs`` > 1, log the median run."""
        start = time.perf_counter()
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append((start, sorted(times)[runs // 2]))
        self.spent += time.perf_counter() - start

    def _k_at(self, t):
        i = bisect.bisect_right(self.samples, t, key=_TIME)
        if i == 0:
            return self.samples[0][1]
        if i == len(self.samples):
            return self.samples[-1][1]
        (ta, ka), (tb, kb) = self.samples[i - 1], self.samples[i]
        return ka + (kb - ka) * (t - ta) / (tb - ta)

    def scale(self, t0, t1):
        """Reference seconds per raw second over [t0, t1]."""
        if t1 <= t0:
            return REFERENCE_KERNEL_S / self._k_at(t0)
        lo = bisect.bisect_right(self.samples, t0, key=_TIME)
        hi = bisect.bisect_left(self.samples, t1, key=_TIME)
        points = [t0] + [t for t, _ in self.samples[lo:hi]] + [t1]
        ks = [self._k_at(t) for t in points]
        area = sum((points[i + 1] - points[i]) * (ks[i] + ks[i + 1]) / 2 for i in range(len(points) - 1))
        return REFERENCE_KERNEL_S * (t1 - t0) / area

    def start_timer(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._timer = True

    def stop_timer(self):
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._timer = False
