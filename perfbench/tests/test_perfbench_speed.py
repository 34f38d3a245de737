"""The machine-speed sampler behind the end-to-end times."""
import signal
import time
from array import array

import pytest

import speed


def test_scaled_excludes_probes_and_divides_by_the_slowdown():
    s = speed.Sampler()
    s.starts = array("d", [1.0, 1.5, 3.0])
    s.costs = array("d", [0.002, 0.002, 0.004])
    # two probes fall inside [0.9, 1.9]; all three are in its window
    assert s.scaled(0.9, 1.9) == pytest.approx((1.0 - 0.004) * speed.REF_S / 0.002)
    assert s.slowdown() == pytest.approx(0.002 / speed.REF_S)


def test_sampler_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with speed.Sampler() as s:
        end = time.process_time() + 10 * speed.INTERVAL_S
        while time.process_time() < end:
            pass
    assert len(s.costs) >= 3
    assert all(c > 0 for c in s.costs)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
