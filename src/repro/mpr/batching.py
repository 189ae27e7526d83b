"""Adaptive batch sizing from measured per-stage timings.

In the batcher's unit: ``batch_size`` (``b``) is *queries per worker
message* — one kernel sweep's worth, updates ride along
(:class:`~repro.mpr.core_matrix.RouteBatcher`) — and λ is the
per-worker *query* arrival rate.  A *larger* batch amortizes the
per-message dispatch overhead (the τ' round-trip, magnified ~1000× by
``multiprocessing``) over more queries, while a *smaller* batch fills
faster — on a Poisson-ish query stream that nothing flushes, a query
waits on average ``(b - 1) / (2 λ)`` seconds for its sweep's remaining
queries.  That wait is an upper bound: ``drain()`` and every pump cycle
flush, so a caller that drains per cycle never waits past its own
cycle.  The modeled per-query response contribution is

    Rq(b) = (b - 1) / (2 λ)            sweep-fill wait (unflushed stream)
          + queue_write_time           routing + enqueue per task (τ')
          + dispatch_time / b          per-message transit, amortized
          + execute_seconds            service time (taken b-independent)
          + fanout * merge_time        one merge per partial (x partials)

with every stage constant taken from a measured
:class:`~repro.mpr.analysis.MachineSpec` — in practice calibrated live
via :func:`repro.sim.measurement.machine_spec_from_telemetry`.
Minimizing this over a candidate grid is the measure → model → retune
loop of :meth:`ProcessPoolService.retune_batch_size
<repro.mpr.process_executor.ProcessPoolService.retune_batch_size>`,
which nothing in the package calls on its own.  The model does not know
that the kernel's per-query cost itself falls with ``b``
(EXPERIMENTS.md, "Rows per sweep"), so it under-recommends on
kernel-bound workloads.
"""

from __future__ import annotations

import math
from .analysis import MachineSpec

__all__ = [
    "DEFAULT_BATCH_CANDIDATES",
    "modeled_batch_rq",
    "recommend_batch_size",
]

#: Power-of-two grid the recommender searches; 1 = per-query dispatch.
DEFAULT_BATCH_CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def modeled_batch_rq(
    batch_size: int,
    arrival_rate: float,
    machine: MachineSpec,
    *,
    execute_seconds: float = 0.0,
    fanout: int = 1,
) -> float:
    """Modeled per-query response contribution at one batch size.

    ``batch_size`` is queries per message, ``arrival_rate`` the
    per-worker query rate λ (queries per second).  A non-positive λ
    never fills a sweep on its own, so every ``batch_size > 1`` models
    as ``inf`` — only per-query dispatch (b = 1) avoids waiting forever
    on arrivals that are not coming.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    if batch_size > 1:
        if arrival_rate <= 0:
            return math.inf
        fill_wait = (batch_size - 1) / (2.0 * arrival_rate)
    else:
        fill_wait = 0.0
    return (
        fill_wait
        + machine.queue_write_time
        + machine.dispatch_time / batch_size
        + execute_seconds
        + fanout * machine.merge_time
    )


def recommend_batch_size(
    telemetry,
    arrival_rate: float,
    *,
    total_cores: int = 19,
    candidates: tuple[int, ...] = DEFAULT_BATCH_CANDIDATES,
    fanout: int = 1,
) -> int:
    """The candidate batch size minimizing modeled Rq for a telemetry.

    Calibrates a :class:`~repro.mpr.analysis.MachineSpec` from the
    handle's recorded stage histograms
    (:func:`repro.sim.measurement.machine_spec_from_telemetry`), takes
    the mean of the ``execute`` stage as the service time (0 if never
    recorded), and evaluates :func:`modeled_batch_rq` over
    ``candidates``.  Ties break toward the smaller batch (lower
    latency variance for equal modeled mean).
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    from ..sim.measurement import machine_spec_from_telemetry

    machine = machine_spec_from_telemetry(telemetry, total_cores=total_cores)
    histogram = telemetry.histogram("execute")
    execute = (
        histogram.mean if histogram is not None and histogram.count else 0.0
    )
    best_size, best_rq = None, math.inf
    for size in sorted(candidates):
        rq = modeled_batch_rq(
            size, arrival_rate, machine,
            execute_seconds=execute, fanout=fanout,
        )
        if rq < best_rq:
            best_size, best_rq = size, rq
    assert best_size is not None  # candidates non-empty, rq finite at b=1
    return best_size
