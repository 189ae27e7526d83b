"""Workloads and metric names: the one place both are defined.

``BENCHMARK.json`` repeats the names, units, directions and bounds
below for the driver; :mod:`mprbench.validate` fails when the two
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Query size and the seeds that are part of each workload's
#: *definition*: graph, initial objects and their taxi-hailing moves
#: never change with ``--seed`` (one placement against another moved
#: ``pool_longrange`` throughput by 20 %), only query origins and
#: arrival times do.
K = 10
GRAPH_SEED = 7
FLEET_SEED = 11

#: Run shape (fractions of ``--seconds`` where they must scale).
WARMUP_SECONDS = 3.0
WINDOWS = 20
WINDOW_LADDER = (20, 10, 5, 2, 1)
MIN_BEYOND = 10
SETUP_LAUNCHES = 5
CHUNK = 32


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Rates are the *stream's*: the offered load on
    the open loop, and on the closed loops only the q:u mix and a
    length the sized system cannot outrun."""

    name: str
    why: str
    drive: str  # "open" | "closed" (both served) | "pool" (in-process)
    grid: int
    objects: int
    shape: tuple[int, int, int]
    lambda_q: float
    lambda_u: float
    limit_ms: float
    #: Every ``oracle_stride``-th query is replayed serially (pool_*).
    oracle_stride: int = 1
    #: How much more than the host-speed probe this workload feels a
    #: slow spell of the host: its times inflate by the probe's factor to
    #: this power (measured; AA.md, *Host sensitivity*).
    host_sensitivity: float = 1.0

    @property
    def served(self) -> bool:
        return self.drive != "pool"


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "serve_open",
        "open-loop Poisson 400 q/s + 200 u/s over 2 connections at a "
        "quarter of front-door capacity: protocol, fair queue, pump and "
        "pipe set Rq; the kernel does little",
        "open", 128, 1000, (1, 2, 1), 400.0, 200.0, 25.0,
    ),
    Workload(
        "serve_closed",
        "same server and 2:1 mix, closed loop of 2 connections x 16 "
        "outstanding: the server process saturates, so per-op CPU in "
        "serve/mpr.api shows as throughput",
        "closed", 128, 1000, (1, 2, 1), 2400.0, 1200.0, 40.0,
    ),
    Workload(
        "pool_longrange",
        "the paper's regime tq >> tau': 65k-node grid, 64 objects, "
        "(1,2,1), q:u 5:1, one caller issuing 32-task run_results chunks; "
        "kernels dominate, serve tier and pump bypassed",
        "pool", 256, 64, (1, 2, 1), 1000.0, 200.0, 120.0, 24, 1.5,
    ),
    Workload(
        "pool_update_heavy",
        "writes through router, batcher and pipe: 16k-node grid, 2000 "
        "objects, (2,1,1) with aggregator merge, q:u 1:4; the pool parent "
        "is the bottleneck and workers idle",
        "pool", 128, 2000, (2, 1, 1), 1600.0, 6400.0, 15.0, 8,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: (name, unit, better, bound).  Bounds come from the recorded A/A
#: comparison in bench/AA.md, not from hope.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("rq_p50_ms", "ms", "lower", 0.15),
    ("rq_p95_ms", "ms", "lower", 0.25),
    ("within_limit_ratio", "ratio", "higher", 0.03),
    ("throughput_ops", "ops/s", "higher", 0.15),
    ("cpu_ms_per_op", "ms", "lower", 0.15),
    ("peak_pss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better), grouped as in bench/README.md's interaction
#: list.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # kernels and workers -> pool_longrange
    ("knn.dijkstra_knn.query_us", "us", "lower"),
    ("knn.dijkstra_knn.query_batch_us", "us", "lower"),
    ("graph.kernels.knn_batch_us", "us", "lower"),
    ("graph.kernels.calls_per_query", "count", "lower"),
    ("target.worker_cpu_ms_per_op", "ms", "lower"),
    ("target.worker_busy_ratio", "ratio", "lower"),
    ("obs.execute_p50_us", "us", "lower"),
    # router, batcher, pipe -> pool_update_heavy, serve_closed
    ("mpr.process_executor.self_ms", "ms", "lower"),
    ("mpr.process_executor.dispatch_us_per_op", "us", "lower"),
    ("mpr.process_executor.messages_per_op", "count", "lower"),
    ("mpr.process_executor.mean_batch_size", "count", "higher"),
    ("mpr.process_executor.wait_ratio", "ratio", "lower"),
    ("mpr.process_executor.respawns", "count", "lower"),
    ("target.parent_cpu_ms_per_op", "ms", "lower"),
    ("obs.dispatch_p50_us", "us", "lower"),
    ("obs.queue_wait_p50_us", "us", "lower"),
    # aggregator and object store -> pool_update_heavy
    ("mpr.process_executor.aggregate_us_per_query", "us", "lower"),
    ("obs.merge_p50_us", "us", "lower"),
    ("objects.object_set.update_us", "us", "lower"),
    # completion pump -> serve_*
    ("mpr.api.pump_self_ms", "ms", "lower"),
    # serve tier -> serve_*
    ("serve.protocol.encode_us", "us", "lower"),
    ("serve.protocol.decode_us", "us", "lower"),
    ("serve.protocol.result_bytes", "count", "lower"),
    ("serve.fairness.push_pop_us", "us", "lower"),
    ("mpr.results.to_wire_us", "us", "lower"),
    ("mpr.results.from_wire_us", "us", "lower"),
    ("serve.server.self_ms", "ms", "lower"),
    ("serve.server.retryable_ratio", "ratio", "lower"),
    ("serve.server.queued_p95", "count", "lower"),
    # set-up -> setup_s
    ("setup.import_s", "s", "lower"),
    ("setup.graph_build_s", "s", "lower"),
    ("setup.solution_s", "s", "lower"),
    ("setup.pool_start_s", "s", "lower"),
    ("setup.bind_s", "s", "lower"),
    ("graph.shared.publish_ms", "ms", "lower"),
    ("graph.cache.save_ms", "ms", "lower"),
    ("graph.cache.attach_ms", "ms", "lower"),
    # scaling and the CH baseline
    ("mpr.scaling_y2_over_y1", "ratio", "higher"),
    ("graph.ch.build_s", "s", "lower"),
    ("graph.ch.topk_warm_us", "us", "lower"),
    ("graph.ch.label_cold_ms", "ms", "lower"),
    # guards: should move nothing
    ("client.late_p95_ms", "ms", "lower"),
    ("client.cpu_ms_per_op", "ms", "lower"),
    ("client.rq_whole_p99_ms", "ms", "lower"),
    ("client.rq_mean_ms", "ms", "lower"),
    ("client.update_p50_ms", "ms", "lower"),
    ("client.windows_used", "count", "higher"),
    ("client.failed_ops", "count", "lower"),
    ("obs.traces_complete_ratio", "ratio", "higher"),
    ("bench.trace_overhead_ratio", "ratio", "higher"),
    ("host.speed_factor", "ratio", "lower"),
    ("host.calib_before_ms", "ms", "lower"),
    ("host.calib_after_ms", "ms", "lower"),
    ("host.load1", "count", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {row[0]: row[2] for row in END_TO_END + PER_LAYER}
