"""The benchmark's statistic: quiet quartile over short windows.

Interference on a shared host only ever slows a window down, so a
run's value for a windowed metric is the *quiet* quartile of its
per-window values — the 25th percentile when lower is better, the 75th
when higher is.  A percentile is only taken from a window that has at
least :data:`~mprbench.spec.MIN_BEYOND` samples beyond it; otherwise
the phase is cut into fewer, longer windows, and a metric too thin even
for one window is *unsupported* (``None``), never guessed.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from .spec import BETTER, MIN_BEYOND, WINDOW_LADDER


#: How far below the quantile asked for a thin phase's answer may lie.
NEAR = 0.02


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported(count: int, q: float) -> bool:
    """Are there at least ``MIN_BEYOND`` samples beyond the quantile?"""
    return int(count * min(q, 1.0 - q)) >= MIN_BEYOND


def quiet_quartile(values: Sequence[float], better: str) -> float:
    return percentile(values, 0.25 if better == "lower" else 0.75)


def cut(
    samples: Sequence[tuple[float, float]], start: float, end: float,
    count: int,
) -> list[list[float]]:
    """Bucket ``(time, value)`` samples into ``count`` equal windows."""
    width = (end - start) / count
    buckets: list[list[float]] = [[] for _ in range(count)]
    for time, value in samples:
        if start <= time <= end:
            buckets[min(int((time - start) / width), count - 1)].append(value)
    return buckets


def windowed_percentile(
    samples: Sequence[tuple[float, float]], start: float, end: float,
    q: float, better: str = "lower",
) -> tuple[float | None, int]:
    """Quiet quartile of per-window ``q``-quantiles.

    Returns ``(value, windows_used)``; the window count walks down
    :data:`WINDOW_LADDER` until every window supports the quantile.  A
    whole phase that falls just short (a run inside a slow spell of the
    host completes fewer operations) yields the highest quantile it does
    support, if that is within :data:`NEAR` of the one asked for, flagged
    by ``windows_used == 0``; anything thinner is ``(None, 0)``.
    """
    for count in WINDOW_LADDER:
        buckets = cut(samples, start, end, count)
        if all(supported(len(bucket), q) for bucket in buckets):
            per_window = [percentile(bucket, q) for bucket in buckets]
            return quiet_quartile(per_window, better), count
    (values,) = cut(samples, start, end, 1)
    if values and q >= 0.5:
        highest = 1.0 - MIN_BEYOND / len(values)
        if highest >= q - NEAR:
            return percentile(values, highest), 0
    return None, 0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range over the median, as the driver computes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def worse(name: str, base: float, value: float) -> float:
    """By what share of ``base`` ``value`` is worse (negative: better)."""
    change = (value - base) / base
    return change if BETTER[name] == "lower" else -change
