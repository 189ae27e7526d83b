"""From a phase's raw samples to the benchmark's numbers.

Every time-valued number here is host-speed corrected (see
:mod:`mprbench.host`): a window's value is divided by that window's host
factor — a rate multiplied — *before* the quiet quartile is taken.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .drive import PhaseLog
from .host import Factors
from .spec import MIN_BEYOND, WINDOWS, Workload
from .stats import percentile, quiet_quartile, windowed_percentile


class Windows:
    """A phase's windows, each with its host factor."""

    def __init__(self, log: PhaseLog, workload: Workload) -> None:
        self.factors = Factors(log.probes, workload.host_sensitivity)
        self._start = log.start
        self._width = (log.end - log.start) / WINDOWS
        self._per_window = [
            self.factors.between(
                log.start + index * self._width,
                log.start + (index + 1) * self._width,
            )
            for index in range(WINDOWS)
        ]

    def factor_at(self, when: float) -> float:
        index = int((when - self._start) / self._width)
        return self._per_window[min(max(index, 0), WINDOWS - 1)]

    def corrected(
        self, samples: Sequence[tuple[float, float]]
    ) -> list[tuple[float, float]]:
        """``(time, ms)`` samples, each over its window's host factor."""
        return [(when, ms / self.factor_at(when)) for when, ms in samples]


def _whole(samples: Sequence[tuple[float, float]], q: float) -> float | None:
    """A whole-phase quantile for a guard: ``q``, or the highest quantile
    below it that still has ``MIN_BEYOND`` samples beyond it (a traced
    ``pool_longrange`` phase holds 150 chunks, not the 1,000 a p99 needs)."""
    values = [value for _, value in samples]
    if len(values) < 2 * MIN_BEYOND:
        return None
    return percentile(values, min(q, 1.0 - MIN_BEYOND / len(values)))


def throughput(log: PhaseLog, factors: Factors | None) -> float | None:
    """Quiet quartile of OK operations per second over the windows.

    A window's rate runs from the last completion before it to the last
    completion inside it (the phase's first completion only starts the
    clock), so a closed loop's chunk boundaries do not quantise it.
    ``factors=None`` leaves the rate as counted: an open loop completes
    what it is offered, however fast the host runs.
    """
    if not log.done:
        return None
    width = (log.end - log.start) / WINDOWS
    per_window = []
    last = log.done[0][0]
    position = 1
    for index in range(1, WINDOWS + 1):
        boundary = log.start + index * width
        ops, final = 0, last
        while position < len(log.done) and log.done[position][0] <= boundary:
            final, count = log.done[position]
            ops += count
            position += 1
        if final > last:
            factor = factors.between(last, final) if factors else 1.0
            per_window.append(ops / (final - last) * factor)
            last = final
    return quiet_quartile(per_window, "higher") if per_window else None


def cpu_per_op(
    log: PhaseLog, factors: Factors, columns: Sequence[int],
) -> float | None:
    """Quiet quartile of CPU-ms per OK operation between CPU samples.

    ``columns`` picks which of the sample's CPU readings to sum
    (1 parent, 2 workers, 3 client).
    """
    times = [time for time, _ in log.done]
    counts = [0]
    for _, ops in log.done:
        counts.append(counts[-1] + ops)
    per_window = []
    for before, after in zip(log.cpu, log.cpu[1:]):
        ops = (
            counts[bisect_right(times, after[0])]
            - counts[bisect_right(times, before[0])]
        )
        if ops:
            spent = sum(after[column] - before[column] for column in columns)
            per_window.append(
                spent * 1e3 / ops / factors.between(before[0], after[0])
            )
    return quiet_quartile(per_window, "lower") if per_window else None


def end_to_end(
    log: PhaseLog, workload: Workload, setup_s: float,
) -> dict[str, float | None]:
    """The seven end-to-end metrics of one untraced phase."""
    windows = Windows(log, workload)
    rq = windows.corrected(log.rq)
    p50, _ = windowed_percentile(rq, log.start, log.end, 0.50)
    p95, _ = windowed_percentile(rq, log.start, log.end, 0.95)
    within = sum(
        count for when, ms, count in log.answered
        if ms / windows.factor_at(when) <= workload.limit_ms
    )
    return {
        "setup_s": setup_s,
        "rq_p50_ms": p50,
        "rq_p95_ms": p95,
        "within_limit_ratio": (
            within / log.attempted if log.attempted else None
        ),
        "throughput_ops": throughput(
            log, None if workload.drive == "open" else windows.factors
        ),
        "cpu_ms_per_op": cpu_per_op(log, windows.factors, (1, 2)),
        "peak_pss_mb": max(log.pss_mb) if log.pss_mb else None,
    }


def client_guards(
    log: PhaseLog, workload: Workload,
) -> dict[str, float | None]:
    """The ``client.*`` guards: what the quiet quartile hides."""
    windows = Windows(log, workload)
    rq = windows.corrected(log.rq)
    _, used = windowed_percentile(rq, log.start, log.end, 0.95)
    values = [value for _, value in rq]
    late = sorted(log.late_ms)
    return {
        # A closed loop is never late: it has no schedule to be late for.
        "client.late_p95_ms": percentile(late, 0.95) if late else 0.0,
        "client.cpu_ms_per_op": cpu_per_op(log, windows.factors, (3,)),
        "client.rq_whole_p99_ms": _whole(rq, 0.99),
        "client.rq_mean_ms": sum(values) / len(values) if values else None,
        "client.update_p50_ms": _whole(windows.corrected(log.update), 0.50),
        "client.windows_used": float(used),
        "client.failed_ops": float(log.failed),
    }
