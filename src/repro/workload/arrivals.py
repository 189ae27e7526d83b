"""Stochastic arrival processes.

Section IV-B: "We assume query (update) arrivals form a Poisson
process."  This module generates the arrival timestamps; what happens
at each arrival is the generator's business (:mod:`.generator`).
"""

from __future__ import annotations

import math
import random


def poisson_arrivals(
    rate: float, duration: float, rng: random.Random, start: float = 0.0
) -> list[float]:
    """Arrival times of a Poisson process on ``[start, start+duration)``.

    ``rate`` is in events per second; a rate of 0 yields no events.
    ``rate`` and ``duration`` must be finite and non-negative (a NaN
    rate would never reach the window's end).
    """
    _check_non_negative("rate", rate)
    _check_non_negative("duration", duration)
    times: list[float] = []
    if rate == 0:
        return times
    clock = start
    end = start + duration
    while True:
        clock += rng.expovariate(rate)
        if clock >= end:
            return times
        times.append(clock)


def _check_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and ``>= 0``."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
