"""How fast the host is running us, and the correction built on it.

This host's cores do not run at one speed: a neighbour makes the same
code cost 5-10 % more CPU time for tens of minutes and twice as much for
a few (wall *and* ``utime+stime`` inflate alike, and ``/proc/stat``
shows no steal, so nothing in the guest can see it directly).  The
benchmark therefore carries its own speedometer: a fixed ~1 ms mix of
interpreter and ``numpy.sort`` work, timed in this thread's CPU time
about twenty times a second while a phase runs.  A window's *host
factor* is its mean probe over :data:`PROBE_REF_MS`, raised to the
workload's measured sensitivity (1 for three of the four); time-valued
end-to-end metrics are divided by it (rates multiplied), i.e. reported
in milliseconds of the *reference host* — the recorded host at its
quietest.  ``host.speed_factor`` reports the factor so the raw number is
one multiplication away.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Sequence

import numpy as np

#: Mean CPU-ms of :func:`probe` on the recorded host when it is quiet;
#: the unit every corrected millisecond is expressed in.
PROBE_REF_MS = 0.66
#: Seconds between probes while a phase runs (2 % of one thread).
PROBE_PERIOD = 0.05

_DATA = np.random.default_rng(1).random(8_000)


def probe() -> float:
    """CPU-milliseconds this thread needs for the fixed work, now."""
    started = time.thread_time()
    total = 0
    for index in range(12_000):
        total += index * index % 7
    np.sort(_DATA)
    return (time.thread_time() - started) * 1e3


def probe_mean(count: int) -> float:
    """Mean of ``count`` back-to-back probes (``count`` ms of work)."""
    return sum(probe() for _ in range(count)) / count


def load1() -> float:
    with open("/proc/loadavg") as handle:
        return float(handle.read().split()[0])


class Factors:
    """Host factors over time, from a phase's ``(time, probe)`` samples.

    ``sensitivity`` is the workload's
    (:attr:`~mprbench.spec.Workload.host_sensitivity`): what a busy
    neighbour slows down by more than it slows the probe (measured for
    ``pool_longrange``, whose kernels walk a 65k-node graph) is corrected
    by the probe's factor to that power.
    """

    def __init__(
        self, probes: Sequence[tuple[float, float]], sensitivity: float = 1.0,
    ) -> None:
        if not probes:
            raise ValueError("no host-speed probes were taken")
        self._times = [time for time, _ in probes]
        self._sums = [0.0, *accumulate(value for _, value in probes)]
        self._sensitivity = sensitivity
        #: The whole phase's factor as the probe read it.
        self.overall = self._sums[-1] / len(probes) / PROBE_REF_MS

    def between(self, start: float, end: float) -> float:
        """What to divide the workload's times in ``[start, end]`` by: the
        mean probe factor there (the phase's where no probe fell into the
        interval) to the power of the workload's sensitivity."""
        low = bisect_left(self._times, start)
        high = bisect_right(self._times, end)
        if high <= low:
            probed = self.overall
        else:
            probed = (
                (self._sums[high] - self._sums[low]) / (high - low)
                / PROBE_REF_MS
            )
        return probed ** self._sensitivity
