"""A fixed reference workload that measures how fast the machine runs now.

Shared virtual machines change speed by a third or more within seconds, as
neighbours come and go.  While the benchmark sets up and runs queries, a
Sampler runs a fixed probe of one or two milliseconds every INTERVAL_S of
process time and divides each set-up or query time, probes excluded, by
the machine's slowdown around it (probe time / REF_S).  The figures then
read in seconds of a machine at reference speed.  The probe uses only the
standard library and numpy, never stabhom, so no change to the program can
move it.  Its mix follows the library's: interpreter-level integer and dict
work, Fraction arithmetic (the Q backend), small int64 array operations and
row elimination on a wider int64 matrix (the prime-field backend).
"""
import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

import numpy as np

_A = (np.arange(24 * 24, dtype=np.int64).reshape(24, 24) * 7) % 5
_B = (np.arange(48 * 96, dtype=np.int64).reshape(48, 96) * 7 + 3) % 5


def _work() -> int:
    acc = 0
    table = {}
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
        table[i & 127] = acc
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(acc % 97 + i, i + 1)
    a = _A
    for _ in range(12):
        a = (a @ _A + acc) % 5
        a = a[np.argsort(a[:, 0], kind="stable")]
    b = _B.copy()
    for i in range(16):
        b[i + 1 :] = (b[i + 1 :] - np.outer(b[i + 1 :, i], b[i])) % 5
    return acc + f.numerator + int(a.sum()) + int(b.sum())


REF_S = 0.0015  # probe time that counts as reference speed: its usual time mid-run on a 2-core VM
INTERVAL_S = 0.02  # process time between probes
WINDOW = 3  # probes on each side of a span that also judge its speed


class Sampler:
    """Runs the probe every INTERVAL_S of process time, from a SIGPROF
    handler, while active.  ``scaled(t0, t1)`` is the program time of the
    span [t0, t1] of perf_counter readings, probes excluded, scaled to
    reference speed by the median probe in and around the span."""

    def __init__(self):
        self.starts = array("d")
        self.costs = array("d")
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _work()
            cost = time.perf_counter() - t0
            self.starts.append(t0)
            self.costs.append(cost)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def scaled(self, t0: float, t1: float) -> float:
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        spent = (t1 - t0) - sum(self.costs[i:j])
        window = self.costs[max(0, i - WINDOW) : j + WINDOW]
        if not window:
            return spent
        return spent * REF_S / statistics.median(window)

    def slowdown(self) -> float:
        """Median probe time over the whole run / REF_S."""
        return statistics.median(self.costs) / REF_S if self.costs else 1.0
