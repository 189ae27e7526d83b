"""Per-layer measurements: ledgers, the layer ladder, function probes.

Everything is taken from the benchmark's side — by timing calls into
public functions, reading the target's public ledgers
(``PoolMetrics.to_dict()``, ``MPRSystem.stats()``, ``MPRServer.stats()``,
``KERNEL_CALLS``) and ``/proc``.  Nothing under ``src/`` is
instrumented.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.graph import (
    ContractionHierarchy,
    RoadNetwork,
    grid_network,
    open_cache,
    publish_shared_graph,
    save_cache,
)
from repro.knn import DijkstraKNN
from repro.mpr import MPRConfig, MPRSystem, QueryResult, build_executor
from repro.objects import ObjectSet
from repro.objects.tasks import Task, TaskKind
from repro.obs import Telemetry
from repro.serve import ServeClient, WeightedFairQueue, encode_frame, read_frame

from . import drive, host, metrics, proc
from .inputs import Inputs, build_inputs
from .spec import BY_NAME, GRAPH_SEED, K, Workload
from .stats import percentile
from .trace import Tracer

now = time.perf_counter

LADDER_TASKS = 300
CH_GRID = 64


def _median_us(call: Callable[[], Any], repeats: int) -> float:
    """Median microseconds of ``call()`` over ``repeats`` timed calls."""
    samples = []
    for _ in range(repeats):
        started = now()
        call()
        samples.append(now() - started)
    return statistics.median(samples) * 1e6


# ----------------------------------------------------------------------
# The layer ladder
# ----------------------------------------------------------------------
def ladder(
    workload: Workload, inputs: Inputs, tracer: Tracer
) -> tuple[dict[str, float], proc.Target]:
    """Replay one stream sample depth-1 through each layer in turn.

    Rungs: ``solution.query`` -> ``ProcessPoolService`` ->
    ``MPRSystem.submit_async`` -> served round trip, every rung from the
    same initial objects.  Returns each rung's median milliseconds per
    task (host-speed corrected, see :mod:`mprbench.host`) and the served
    rung's launch (for its set-up steps).  A
    layer's self time is the difference of adjacent rungs, so the self
    times and the bottom rung sum to the served round trip by
    construction.
    """
    tasks = inputs.tasks[:LADDER_TASKS]
    config = MPRConfig(*workload.shape)
    rungs: dict[str, float] = {}
    root = tracer.open()

    async def climb(name: str, call: Callable[[Task], Any], awaited=False) -> None:
        rung = tracer.open()
        samples = []
        probes = []
        probe_due = rung_started = now()
        for request, task in enumerate(tasks):
            started = now()
            if awaited:
                await call(task)
            else:
                call(task)
            ended = now()
            samples.append(ended - started)
            tracer.span(
                f"ladder.{name}.call", started, ended, parent=rung,
                request=request,
            )
            if ended >= probe_due:
                probes.append(host.probe())
                probe_due = now() + host.PROBE_PERIOD
        tracer.span(
            f"ladder.{name}", rung_started, now(), parent=root, span_id=rung
        )
        # Rungs run one after another, seconds apart, on a host that
        # changes speed in seconds: each is corrected by its own probes.
        factor = statistics.fmean(probes) / host.PROBE_REF_MS
        rungs[name] = statistics.median(samples) * 1e3 / factor

    solution = DijkstraKNN(inputs.network, inputs.initial_objects)

    def direct(task: Task) -> None:
        if task.kind is TaskKind.QUERY:
            solution.query(task.location, task.k)
        elif task.kind is TaskKind.INSERT:
            solution.insert(task.object_id, task.location)
        else:
            solution.delete(task.object_id)

    async def climb_all(port: int) -> None:
        await climb("solution", direct)
        with build_executor(
            config, DijkstraKNN(inputs.network), inputs.initial_objects,
            mode="process", telemetry=Telemetry(),
        ) as pool:
            await climb("pool", lambda task: pool.run([task]))
        with MPRSystem(
            config, DijkstraKNN(inputs.network), inputs.initial_objects,
            mode="process",
        ) as system:
            await climb(
                "system", lambda task: system.submit_async(task).result()
            )
        client = await ServeClient.connect("127.0.0.1", port)

        def served(task: Task):
            if task.kind is TaskKind.QUERY:
                return client.query(task.location, task.k)
            if task.kind is TaskKind.INSERT:
                return client.insert(task.object_id, task.location)
            return client.delete(task.object_id)

        try:
            await climb("served", served, awaited=True)
        finally:
            await client.aclose()

    ladder_started = now()
    with proc.Target(workload.name, serve=True) as target:
        asyncio.run(climb_all(target.port))
    tracer.span("ladder", ladder_started, now(), span_id=root)
    tracer.event("ladder", now(), {"rungs_ms": rungs})
    return rungs, target


# ----------------------------------------------------------------------
# Single-function probes
# ----------------------------------------------------------------------
def probe_functions(inputs: Inputs, seed: int, scratch: Path) -> dict[str, float]:
    """Time public functions of each layer on this workload's own data."""
    network = inputs.network
    rng = random.Random(seed)
    origins = [rng.randrange(network.num_nodes) for _ in range(128)]
    solution = DijkstraKNN(network, inputs.initial_objects)
    counts = np.zeros(network.num_nodes, dtype=np.int32)
    for node in inputs.initial_objects.values():
        counts[node] += 1
    values: dict[str, float] = {}

    pick = iter(origins)
    values["knn.dijkstra_knn.query_us"] = _median_us(
        lambda: solution.query(next(pick), K), 96
    )
    batches = [origins[start:start + 16] for start in range(0, 128, 16)]
    ks = [K] * 16
    pick_batch = iter(batches)
    values["knn.dijkstra_knn.query_batch_us"] = _median_us(
        lambda: solution.query_batch(next(pick_batch), ks), 8
    ) / 16
    pick_batch = iter(batches)
    values["graph.kernels.knn_batch_us"] = _median_us(
        lambda: network.kernels.knn_batch(next(pick_batch), ks, counts), 8
    ) / 16

    objects = ObjectSet(dict(inputs.initial_objects))
    spare = objects.fresh_id()

    def move() -> None:
        objects.insert(spare, origins[0])
        objects.delete(spare)

    values["objects.object_set.update_us"] = _median_us(move, 2000) / 2

    results = [
        QueryResult.from_answer(index, solution.query(origin, K))
        for index, origin in enumerate(origins[:32])
    ]
    wires = [result.to_wire() for result in results]
    frames = [
        encode_frame({"op": "result", "id": index, "result": wire})
        for index, wire in enumerate(wires)
    ]
    cycle = iter(range(10**9))
    values["mpr.results.to_wire_us"] = _median_us(
        lambda: results[next(cycle) % 32].to_wire(), 2000
    )
    values["mpr.results.from_wire_us"] = _median_us(
        lambda: QueryResult.from_wire(wires[next(cycle) % 32]), 2000
    )
    values["serve.protocol.encode_us"] = _median_us(
        lambda: encode_frame({
            "op": "result", "id": 1, "result": wires[next(cycle) % 32],
        }), 2000,
    )
    values["serve.protocol.result_bytes"] = statistics.fmean(
        len(frame) for frame in frames
    )

    async def decode() -> float:
        reader = asyncio.StreamReader()
        repeats = 40
        for _ in range(repeats):
            for frame in frames:
                reader.feed_data(frame)
        reader.feed_eof()
        samples = []
        for _ in range(repeats * len(frames)):
            started = now()
            await read_frame(reader)
            samples.append(now() - started)
        return statistics.median(samples) * 1e6

    values["serve.protocol.decode_us"] = asyncio.run(decode())

    queue = WeightedFairQueue()

    def push_pop() -> None:
        queue.push("a", 1)
        queue.push("b", 2)
        queue.pop()
        queue.pop()

    values["serve.fairness.push_pop_us"] = _median_us(push_pop, 2000) / 2

    # Graph distribution: shared-memory publication and the disk cache.
    indptr, indices, weights = network.csr_arrays
    fresh = RoadNetwork.from_csr_arrays(
        indptr, indices, weights, coordinates=network.coord_arrays,
        name="probe",
    )
    started = now()
    shared = publish_shared_graph(fresh)
    values["graph.shared.publish_ms"] = (now() - started) * 1e3
    shared.close()
    cache_dir = scratch / "graph-cache"
    try:
        started = now()
        save_cache(network, cache_dir)
        values["graph.cache.save_ms"] = (now() - started) * 1e3
        started = now()
        open_cache(cache_dir)
        values["graph.cache.attach_ms"] = (now() - started) * 1e3
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return values


def probe_ch(seed: int) -> dict[str, float]:
    """The CH baseline on an integral-weight grid.  No workload routes
    through CH today; these are the numbers for the PR that does."""
    grid = grid_network(CH_GRID, CH_GRID, seed=GRAPH_SEED)
    indptr, indices, weights = grid.csr_arrays
    network = RoadNetwork.from_csr_arrays(
        indptr, indices, np.round(weights), coordinates=grid.coord_arrays,
        name="ch-probe",
    )
    started = now()
    hierarchy = ContractionHierarchy(network)
    build_s = now() - started
    rng = random.Random(seed)
    counts = np.zeros(network.num_nodes, dtype=np.int32)
    for _ in range(64):
        counts[rng.randrange(network.num_nodes)] += 1
    kernels = hierarchy.kernels
    origin = rng.randrange(network.num_nodes)
    started = now()
    kernels.label(origin)
    label_cold_ms = (now() - started) * 1e3
    kernels.topk_objects(origin, counts, K)
    return {
        "graph.ch.build_s": build_s,
        "graph.ch.label_cold_ms": label_cold_ms,
        "graph.ch.topk_warm_us": _median_us(
            lambda: kernels.topk_objects(origin, counts, K), 50
        ),
    }


def probe_scaling(workload: Workload, inputs: Inputs, seed: int) -> float:
    """Fig. 7 on the live pool: ``pool_longrange``'s closed-loop
    throughput at (1,2,1) over (1,1,1)."""
    longrange = BY_NAME["pool_longrange"]
    if workload is not longrange:
        inputs = build_inputs(longrange, seed, 4.0)
    rates = []
    for shape in ((1, 1, 1), (1, 2, 1)):
        with MPRSystem(
            MPRConfig(*shape), DijkstraKNN(inputs.network),
            inputs.initial_objects, mode="process",
        ) as system:
            (log,) = drive.drive_pool(
                longrange, inputs.tasks, system,
                proc.TreeSampler.of_pool(system), 0.5, [(1.5, False)],
                Tracer(), [], {},
            )
            rates.append(metrics.throughput(
                log, host.Factors(log.probes, longrange.host_sensitivity)
            ))
    return rates[1] / rates[0]


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def _delta(ledgers: tuple[dict, dict], section: str, key: str) -> float:
    before, after = ledgers
    return after[section][key] - before[section][key]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    logs: Sequence[drive.PhaseLog],
    ledgers: tuple[dict, dict],
    launches: list[proc.Target],
    tracer: Tracer,
    calib: tuple[float, float],
    scratch: Path,
) -> dict[str, float | None]:
    """Every per-layer metric of one traced run."""
    untraced, traced = logs
    before, after = ledgers
    values: dict[str, float | None] = {}

    # Ledgers: deltas over the whole drive (warm-up and both phases).
    ops = _delta(ledgers, "pool", "ops_dispatched")
    queries = _delta(ledgers, "pool", "queries_submitted")
    kernel_calls = sum(
        count - before["kernel_calls"].get(name, 0)
        for name, count in after["kernel_calls"].items()
        if not name.startswith("ch.")
    )
    values["graph.kernels.calls_per_query"] = _ratio(kernel_calls, queries)
    pool = "mpr.process_executor."
    values[pool + "dispatch_us_per_op"] = _ratio(
        _delta(ledgers, "pool", "dispatch_seconds") * 1e6, ops
    )
    values[pool + "messages_per_op"] = _ratio(
        _delta(ledgers, "pool", "messages_sent"), ops
    )
    values[pool + "mean_batch_size"] = _ratio(
        ops, _delta(ledgers, "pool", "batches_sent")
    )
    values[pool + "wait_ratio"] = _ratio(
        _delta(ledgers, "pool", "wait_seconds"),
        after["time"] - before["time"],
    )
    values[pool + "respawns"] = float(_delta(ledgers, "pool", "respawns"))
    values[pool + "aggregate_us_per_query"] = _ratio(
        _delta(ledgers, "pool", "aggregate_seconds") * 1e6, queries
    )
    stages = after["system"]["stages"]
    for stage in ("execute", "dispatch", "queue_wait", "merge"):
        # A stage the shape never enters (merge at x = 1) reads 0.
        values[f"obs.{stage}_p50_us"] = stages.get(stage, {}).get("p50", 0.0) * 1e6
    traces = after["system"]["traces"]
    values["obs.traces_complete_ratio"] = _ratio(
        traces["complete"], traces["retained"]
    )
    if after["server"] is not None:
        counters = {
            name: count - before["server"]["counters"][name]
            for name, count in after["server"]["counters"].items()
        }
        values["serve.server.retryable_ratio"] = _ratio(
            counters["retryable_errors"], counters["queries"]
        )
        values["serve.server.queued_p95"] = percentile(
            [poll["queued"] for poll in traced.polls], 0.95
        )
    else:  # no server in the measured path: the tier is bypassed
        values["serve.server.retryable_ratio"] = 0.0
        values["serve.server.queued_p95"] = 0.0

    # /proc: the traced phase's process tree, parent and workers apart.
    factors = host.Factors(traced.probes, workload.host_sensitivity)
    values["target.parent_cpu_ms_per_op"] = metrics.cpu_per_op(traced, factors, (1,))
    values["target.worker_cpu_ms_per_op"] = metrics.cpu_per_op(traced, factors, (2,))
    first, last = traced.cpu[0], traced.cpu[-1]
    values["target.worker_busy_ratio"] = (last[2] - first[2]) / (
        (last[0] - first[0]) * workload.shape[0] * workload.shape[1]
        * workload.shape[2]
    )

    # The ladder, the probes, the scaling ratio.
    rungs, served_launch = ladder(workload, inputs, tracer)
    launches = [*launches, served_launch]
    values[pool + "self_ms"] = rungs["pool"] - rungs["solution"]
    values["mpr.api.pump_self_ms"] = rungs["system"] - rungs["pool"]
    values["serve.server.self_ms"] = rungs["served"] - rungs["system"]
    values.update(probe_functions(inputs, seed, scratch))
    values.update(probe_ch(seed))
    values["mpr.scaling_y2_over_y1"] = probe_scaling(workload, inputs, seed)

    for step in ("import_s", "graph_build_s", "solution_s", "pool_start_s",
                 "bind_s"):
        values[f"setup.{step}"] = statistics.median(
            launch.ready["steps"][step] for launch in launches
        )

    # Guards.
    values.update(metrics.client_guards(untraced, workload))
    def rate(log: drive.PhaseLog) -> float:
        return metrics.throughput(
            log,
            None if workload.drive == "open"
            else host.Factors(log.probes, workload.host_sensitivity),
        ) or 0.0

    values["bench.trace_overhead_ratio"] = _ratio(rate(traced), rate(untraced))
    values["host.speed_factor"] = factors.overall
    values["host.calib_before_ms"], values["host.calib_after_ms"] = calib
    values["host.load1"] = host.load1()
    return values
