"""Continuous-kNN equivalence: lowering, executors, incremental monitor.

The contract chain: the *lowered* subscription stream is an ordinary
task stream, so both executors must answer it oracle-exactly; and the
:class:`IncrementalKNNMonitor` must produce, at every epoch, answers
bit-identical to the fresh queries of that lowered stream — the
incremental path saves the graph searches without changing a single
bit of any answer.
"""

from __future__ import annotations

import pytest

from repro.knn.dijkstra_knn import DijkstraKNN
from repro.mpr.api import build_executor
from repro.mpr.config import MPRConfig
from repro.mpr.executor import run_serial_reference
from repro.objects.tasks import QueryTask, is_query
from repro.obs import Telemetry
from repro.workload import (
    ContinuousWorkload,
    IncrementalKNNMonitor,
    SinusoidRate,
    Spike,
    SpikeTrain,
    Subscription,
    UpdateMode,
    generate_continuous_workload,
    generate_workload,
)
from tests.conftest import ok_results


@pytest.fixture()
def continuous(small_grid):
    return generate_continuous_workload(
        small_grid, num_objects=14, num_subscriptions=5,
        lambda_u=40.0, duration=1.5, k=4, seed=21,
    )


def test_lowering_shape(continuous):
    tasks, origin = continuous.lower(every=2)
    queries = [t for t in tasks if is_query(t)]
    # Dense, collision-free query ids; every query maps back.
    assert sorted(q.query_id for q in queries) == list(range(len(queries)))
    assert set(origin) == {q.query_id for q in queries}
    # Epoch 0 exists and re-issues every subscription.
    epoch0 = [qid for qid, (_, epoch) in origin.items() if epoch == 0]
    assert len(epoch0) == len(continuous.subscriptions)
    # Movement pairs are never split by an epoch: at a query's position
    # in the stream no earlier delete awaits its paired insert.
    open_movements: set[int] = set()
    for task in tasks:
        if is_query(task):
            assert not open_movements
        elif task.kind.value == "delete" and task.movement_id is not None:
            open_movements.add(task.movement_id)
        elif task.kind.value == "insert" and task.movement_id is not None:
            open_movements.discard(task.movement_id)


def test_monitor_bit_identical_to_fresh_queries_every_epoch(
    small_grid, continuous
):
    tasks, origin = continuous.lower(every=1)
    oracle = run_serial_reference(
        DijkstraKNN(small_grid), continuous.initial_objects, tasks
    )
    monitor = IncrementalKNNMonitor(
        small_grid, continuous.initial_objects, continuous.subscriptions
    )
    checked = 0
    for task in tasks:
        if is_query(task):
            subscription_id, _ = origin[task.query_id]
            assert monitor.result(subscription_id) == oracle[task.query_id]
            checked += 1
        else:
            monitor.apply(task)
    assert checked == len(origin) and checked > len(continuous.subscriptions)
    # The incremental path did one sweep per subscription, then none.
    assert monitor.searches_performed == len(continuous.subscriptions)
    assert monitor.searches_saved == (
        len(continuous.updates) * len(continuous.subscriptions)
    )


def test_threaded_executor_oracle_exact_with_complete_traces(
    small_grid, continuous
):
    tasks, _ = continuous.lower(every=3)
    oracle = run_serial_reference(
        DijkstraKNN(small_grid), continuous.initial_objects, tasks
    )
    telemetry = Telemetry()
    executor = build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(small_grid),
        continuous.initial_objects, mode="thread", telemetry=telemetry,
    )
    with executor:
        answers = executor.run(tasks)
    assert answers == ok_results(oracle)
    traces = telemetry.traces()
    assert len(traces) == len(answers)
    assert all(trace.is_complete() for trace in traces)


def test_threaded_executor_oracle_exact_on_nonstationary_stream(small_grid):
    workload = generate_workload(
        small_grid, num_objects=12, lambda_q=0.0, lambda_u=0.0,
        duration=1.5, seed=8, mode=UpdateMode.TAXI_HAILING, k=4,
        query_process=SinusoidRate(50.0, 0.7, 1.5),
        update_process=SpikeTrain(15.0, (Spike(0.5, 0.4, 4.0),)),
    )
    oracle = run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    )
    executor = build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(small_grid),
        workload.initial_objects, mode="thread",
    )
    with executor:
        assert executor.run(workload.tasks) == ok_results(oracle)


@pytest.mark.slow
def test_process_executor_oracle_exact_on_continuous_stream(
    small_grid, continuous
):
    tasks, _ = continuous.lower(every=4)
    oracle = run_serial_reference(
        DijkstraKNN(small_grid), continuous.initial_objects, tasks
    )
    executor = build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(small_grid),
        continuous.initial_objects, mode="process", batch_size=4,
    )
    with executor:
        assert executor.run(tasks) == ok_results(oracle)


def test_monitor_rejects_inconsistent_updates(small_grid):
    subscriptions = (Subscription(0, 0, 3),)
    monitor = IncrementalKNNMonitor(small_grid, {1: 2}, subscriptions)
    with pytest.raises(ValueError):
        monitor.insert(1, 5)  # already live
    with pytest.raises(ValueError):
        monitor.delete(7)  # unknown
    with pytest.raises(TypeError):
        monitor.apply(QueryTask(0.0, 0, 0, 3))


def test_continuous_workload_validation(small_grid):
    with pytest.raises(ValueError):
        ContinuousWorkload(
            {}, [QueryTask(0.0, 0, 0, 3)], (Subscription(0, 0, 3),), 1.0
        )
    with pytest.raises(ValueError):
        ContinuousWorkload(
            {}, [], (Subscription(0, 0, 3), Subscription(0, 1, 3)), 1.0
        )
    with pytest.raises(ValueError):
        generate_continuous_workload(
            small_grid, num_objects=5, num_subscriptions=0,
            lambda_u=10.0, duration=1.0,
        )
