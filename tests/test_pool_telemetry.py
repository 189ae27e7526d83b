"""Distributed tracing through the process pool, faults included.

Workers stamp monotonic timings into their result pipes; the parent
stitches them into per-query span trees.  These tests pin the two
strong claims: every query's trace is *complete* (dispatch + merge +
queue_wait/execute/ack from every serving worker), and completeness
survives a SIGKILL mid-flight — replayed batches overwrite their
``(stage, worker)`` slots instead of duplicating spans.  The two
sweep-count tests run on thread workers in tier-1 too (``worker_kind``).
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.graph import grid_network
from repro.graph.kernels import KERNEL_CALLS
from repro.knn import DijkstraKNN
from repro.mpr import MPRConfig, build_executor, run_serial_reference
from repro.objects.tasks import DeleteTask, InsertTask, QueryTask
from repro.obs import Telemetry
from repro.workload import generate_workload
from tests.conftest import ok_results, sweeps


@pytest.fixture(scope="module")
def network():
    return grid_network(10, 10, seed=3)


@pytest.fixture(scope="module")
def sparse_network():
    """Few objects on a bigger grid: every worker message costs more
    than the kernels' work model gives the heap search, so its queries
    run as one shared ``knn_batch`` sweep (as
    ``tests/test_sweep_dispatch.py``'s ``SPARSE_GRID``)."""
    return grid_network(40, 40, seed=1)


@pytest.fixture(scope="module")
def workload(network):
    return generate_workload(
        network, num_objects=15, lambda_q=120.0, lambda_u=80.0,
        duration=1.0, seed=13, k=4,
    )


def assert_traces_complete(telemetry: Telemetry, num_queries: int) -> None:
    traces = telemetry.traces()
    assert len(traces) == num_queries
    incomplete = [t.query_id for t in traces if not t.is_complete()]
    assert not incomplete, f"incomplete traces: {incomplete}"
    for trace in traces:
        # Slot-replacement keeps exactly one span per (stage, worker).
        assert len(trace.stage_spans("dispatch")) == 1
        assert len(trace.stage_spans("merge")) == 1
        for stage in ("queue_wait", "execute", "ack"):
            assert len(trace.stage_spans(stage)) == len(trace.expected_workers)
        assert trace.response_time > 0.0


@pytest.mark.slow
def test_pool_traces_are_complete(network, workload) -> None:
    telemetry = Telemetry(max_traces=4096)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(network), workload.initial_objects, workload.tasks
    ))
    with build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(network), workload.initial_objects,
        mode="process", batch_size=4, telemetry=telemetry,
    ) as pool:
        assert pool.run(workload.tasks) == oracle
    assert_traces_complete(telemetry, workload.num_queries)
    # Queries fan out to x=2 partitions: every expected worker stamped.
    assert all(len(t.expected_workers) == 2 for t in telemetry.traces())
    assert telemetry.histogram("response").count == workload.num_queries
    assert telemetry.histogram("update").count > 0
    assert telemetry.counters.get("pool.respawns", 0) == 0


@pytest.mark.slow
def test_traces_survive_worker_respawn(network, workload) -> None:
    """SIGKILL a worker with batches in flight: the replayed batches
    re-report spans into the same slots, so every trace is still
    complete and duplicate-free — and the answers still match the
    fault-free oracle."""
    telemetry = Telemetry(max_traces=4096)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(network), workload.initial_objects, workload.tasks
    ))
    pool = build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(network), workload.initial_objects,
        mode="process", batch_size=8, health_check_interval=0.02,
        telemetry=telemetry,
    )
    with pool:
        for task in workload.tasks:
            pool.submit(task)
        pool.flush()
        victim_pid = next(iter(pool.worker_pids().values()))
        os.kill(victim_pid, signal.SIGKILL)
        answers = pool.drain()
        assert pool.metrics.respawns >= 1
    assert answers == oracle
    assert telemetry.counters["pool.respawns"] >= 1
    assert_traces_complete(telemetry, workload.num_queries)


def test_interleaved_batch_is_one_stamped_sweep(
    sparse_network, worker_kind
) -> None:
    """A worker batch ``q u q u q`` runs as one kernel sweep and still
    reports everything the parent stitches: one ``execute_batch`` span
    covering the three queries, one ``update`` sample per update, and a
    complete trace for every query."""
    objects = {1: 5, 2: 40, 3: 77}
    tasks = [
        QueryTask(0.0, 0, 12, 2),
        DeleteTask(0.1, 2),
        QueryTask(0.2, 1, 12, 2),
        InsertTask(0.3, 4, 13),
        QueryTask(0.4, 2, 60, 2),
    ]
    oracle = ok_results(
        run_serial_reference(DijkstraKNN(sparse_network), objects, tasks)
    )
    telemetry = Telemetry(max_traces=64)
    with build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(sparse_network), objects,
        mode=worker_kind, batch_size=len(tasks), telemetry=telemetry,
    ) as pool:
        before = KERNEL_CALLS.copy()
        assert pool.run(tasks) == oracle
    assert sweeps(before) == 1  # no solo ``topk``
    assert telemetry.histogram("execute_batch").count == 1
    assert telemetry.counters["exec.batches"] == 1
    assert telemetry.counters["exec.batch_queries"] == 3
    assert telemetry.histogram("update").count == 2
    assert_traces_complete(telemetry, 3)


def test_one_kernel_sweep_per_dispatched_batch(
    sparse_network, worker_kind
) -> None:
    """An object moves after every second query, so every worker batch
    interleaves queries with updates — and each is still exactly one
    batch sweep, never a solo ``topk`` search.  (A process worker's
    batch ack carries its ``KERNEL_CALLS`` delta to the parent.)"""
    nodes = sparse_network.num_nodes
    objects = {i: (i * 7) % nodes for i in range(12)}
    tasks: list = []
    for i in range(24):
        tasks.append(QueryTask(float(i), i, (i * 11) % nodes, 3))
        if i % 2:
            mover = i % len(objects)
            tasks.append(DeleteTask(i + 0.25, mover))
            tasks.append(InsertTask(i + 0.5, mover, (i * 13) % nodes))
    oracle = ok_results(
        run_serial_reference(DijkstraKNN(sparse_network), objects, tasks)
    )
    telemetry = Telemetry()
    with build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(sparse_network), objects,
        mode=worker_kind, batch_size=16, telemetry=telemetry,
    ) as pool:
        before = KERNEL_CALLS.copy()
        assert pool.run(tasks) == oracle
        batches = pool.metrics.batches_sent
    assert batches == 2  # 24 queries: a full sweep of 16, and the flush
    assert sweeps(before) == batches
    assert telemetry.counters["exec.batches"] == batches
