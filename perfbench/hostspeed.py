"""Host speed probe: a fixed reference kernel timed ten times a second.

On a shared host the same work can run up to 2x slower for stretches of
seconds to minutes, while steal time stays near zero.  A run's raw op times
then say as much about the host as about minflux.  While a `Probe` is
active, a timer signal interrupts the closed loop every PERIOD_S seconds
and times `reference()`: Python calls, small numpy operations and
scattered memory reads, the kinds of work minflux spends its time on, with
no minflux code.  NOMINAL_S over the mean time of the probes fired during
an op (at least the NEAR probes nearest to it, the slowest 5% left out) is
the op's speed factor; op seconds times that factor are seconds at nominal
host speed.

`clock()` leaves out the time spent in probes, so an op interrupted by a
probe is not charged for it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
TRIM = 0.05  # share of the slowest probes that a speed factor leaves out
NEAR = 20  # fewest probes behind the speed factor of one op

# time of reference() run on its own in the fast phase of the shared
# 2-vCPU Intel Xeon (2.1 GHz) host the bounds were set on, Python 3.11.7,
# numpy 2.4.6
NOMINAL_S = 0.0027

_spent = 0.0  # seconds spent in probes so far, in this process


def clock():
    """perf_counter() minus the time spent in probes so far."""
    return time.perf_counter() - _spent


def _step(x, rate):
    return x * rate + 1.0


# scattered reads from a table larger than the per-core caches
_TABLE = np.ones(2_000_000)  # 16 MiB
_PICKS = np.random.default_rng(0).integers(0, _TABLE.size, 100_000)


def reference():
    """The fixed kernel: Python calls, small numpy operations and scattered
    reads from memory, about a third of the time each."""
    a = 0.5
    for _ in range(10000):
        a = _step(a, 0.999) + math.sin(a)
    v = np.arange(16.0)
    for _ in range(450):
        v = np.abs(v * 0.5 + 1.0)
    reads = _TABLE[_PICKS].sum() + _TABLE[_PICKS[::-1]].sum()
    return a + float(v[0]) + float(reads)


def _factor(durations):
    """NOMINAL_S over the mean probe time: < 1 when the host is slow.

    The slowest TRIM of the probes is left out: a probe lasts a few
    milliseconds, so one that the scheduler preempts is several times its
    usual length and would move the mean far more than it moves the ops,
    which are hundreds of times longer.
    """
    kept = sorted(durations)[: max(1, round(len(durations) * (1 - TRIM)))]
    return NOMINAL_S / statistics.fmean(kept)


class Probe:
    """Time reference() every PERIOD_S seconds while the block runs."""

    def __init__(self):
        self.samples = []  # (clock() at the start, seconds)
        self._previous = None

    def _fire(self, signum, frame):
        global _spent
        start = clock()
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.samples.append((start, dt))
        _spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than PERIOD_S
            self._fire(signal.SIGALRM, None)

    def factor(self):
        """The speed factor of the whole block."""
        return _factor([dt for _, dt in self.samples])

    def local_factor(self, start, end):
        """The speed factor from start to end (clock() times): of the probes
        fired in between, or of the NEAR probes closest to the middle when
        fewer fired."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if len(inside) < NEAR:
            mid = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [dt for _, dt in nearest[:NEAR]]
        return _factor(inside)
