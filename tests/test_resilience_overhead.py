"""Enabled-but-idle resilience must be cheap.

With ``resilience=None`` the pool owns a disabled policy that arms
nothing, so the disabled run *is* the baseline.  With resilience
enabled and **no faults injected**, throughput must stay within 5% of
that run (plus a small absolute slack for scheduler jitter) — deadlines
armed, admission counted, breakers untouched — per the acceptance
criterion.  (The matching promise for disabled telemetry is measured
by mprbench's ``bench.trace_overhead_ratio``.)

A constant-time solution keeps the thread-worker tripwire about
executor machinery, and interleaved min-of-N keeps both sides under
the same machine conditions.
"""

from __future__ import annotations

import time
from typing import Mapping

import pytest

from repro.knn.base import KNNSolution, Neighbor
from repro.mpr import MPRConfig, ResilienceConfig, build_executor
from repro.workload import generate_workload


class ConstantTimeKNN(KNNSolution):
    """O(1) operations: all measured time is executor machinery."""

    name = "constant"

    def __init__(self, objects: Mapping[int, int] | None = None):
        self._objects = dict(objects or {})

    def query(self, location: int, k: int) -> list[Neighbor]:
        return [Neighbor(float(location % 7), location % 13)]

    def insert(self, object_id: int, location: int) -> None:
        self._objects[object_id] = location

    def delete(self, object_id: int) -> None:
        self._objects.pop(object_id, None)

    def spawn(self, objects: Mapping[int, int]) -> "ConstantTimeKNN":
        return ConstantTimeKNN(objects)

    def object_locations(self) -> dict[int, int]:
        return dict(self._objects)


def _interleaved_best(run_base, run_resilient, repeats):
    run_base()
    run_resilient()
    base_best = run_base()
    resilient_best = run_resilient()
    for _ in range(repeats - 1):
        base_best = min(base_best, run_base())
        resilient_best = min(resilient_best, run_resilient())
    return base_best, resilient_best


def _assert_overhead_within(
    run_base, run_resilient, *, repeats, factor, slack, what
):
    """Individual runs vary by ±30% under scheduler contention while
    the true resilience cost is a few percent at most, so a single
    min-of-N round can still flake.  Measure up to three independent
    interleaved rounds and pass on the first clean one: noise clears
    within a round or two, but a genuine regression fails all three."""
    rounds = []
    for _ in range(3):
        base_best, resilient_best = _interleaved_best(
            run_base, run_resilient, repeats
        )
        if resilient_best <= base_best * factor + slack:
            return
        rounds.append((base_best, resilient_best))
    pytest.fail(
        f"{what} exceeded {factor - 1:.0%} in all rounds: " + ", ".join(
            f"{r * 1e3:.2f}ms vs {b * 1e3:.2f}ms ({(r / b - 1) * 100:+.1f}%)"
            for b, r in rounds
        )
    )


@pytest.mark.slow
def test_idle_resilience_threaded_overhead_under_five_percent(
    small_grid,
) -> None:
    workload = generate_workload(
        small_grid, num_objects=20, lambda_q=800.0, lambda_u=800.0,
        duration=1.5, seed=5, k=3,
    )
    config = MPRConfig(2, 2, 1)
    prototype = ConstantTimeKNN()
    resilience = ResilienceConfig(default_deadline=60.0, max_outstanding=10**6)

    def run_with(setting) -> float:
        executor = build_executor(
            config, prototype, workload.initial_objects,
            resilience=setting,
        )
        start = time.perf_counter()
        executor.run(workload.tasks)
        elapsed = time.perf_counter() - start
        executor.close()
        return elapsed

    # Enabled resilience does real per-query work (the admission
    # ledger, a clock read and a heap push to arm the SLO) — a few µs
    # per query, which the constant-time solution magnifies where any
    # real kNN search would dwarf it.  This is a regression tripwire
    # on thread workers, not the 5% acceptance bound; that bound is
    # the process pool's, pinned below.
    _assert_overhead_within(
        lambda: run_with(None), lambda: run_with(resilience),
        repeats=9, factor=1.15, slack=2e-3,
        what="idle-resilience thread-worker pool",
    )


@pytest.mark.slow
def test_idle_resilience_pool_throughput_within_five_percent(
    small_grid,
) -> None:
    """The acceptance criterion, on the real pool: enabled-but-idle
    resilience (deadline armed per query, admission ledger fed, no
    faults) must not cost no-fault *throughput* more than 5%.

    Measured with real Dijkstra kNN work — the criterion is about
    serving throughput, and the per-query ledger cost (~µs) must be
    judged against real queries, not against the constant-time
    magnifier used by the thread-worker tripwire above.
    """
    from repro.knn import DijkstraKNN

    workload = generate_workload(
        small_grid, num_objects=20, lambda_q=600.0, lambda_u=400.0,
        duration=0.5, seed=6, k=3,
    )
    config = MPRConfig(2, 2, 1)
    prototype = DijkstraKNN(small_grid)
    resilience = ResilienceConfig(default_deadline=60.0, max_outstanding=10**6)

    def run_with(setting) -> float:
        with build_executor(
            config, prototype, workload.initial_objects,
            mode="process", batch_size=16, resilience=setting,
        ) as pool:
            start = time.perf_counter()
            pool.run(workload.tasks)
            elapsed = time.perf_counter() - start
            assert pool.metrics.hedges == 0
            assert pool.metrics.degraded == 0
            assert pool.metrics.shed == 0
        return elapsed

    _assert_overhead_within(
        lambda: run_with(None), lambda: run_with(resilience),
        repeats=6, factor=1.05, slack=1e-2,
        what="idle-resilience pool",
    )
