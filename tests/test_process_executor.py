"""Tests for the multiprocessing executor (real processes, no GIL).

Speedup is hardware-dependent and measured by mprbench
(``mpr.scaling_y2_over_y1``); these tests pin functional equivalence.
"""

import fcntl
import threading

import pytest

from repro.knn import DijkstraKNN, ToainKNN
from repro.mpr import (
    MPRConfig,
    MPRSystem,
    QueryResult,
    build_executor,
    run_serial_reference,
)
from repro.mpr.transport import _PipeInbox
from repro.objects.tasks import QueryTask
from repro.workload import generate_workload
from tests.conftest import ok_results


@pytest.fixture(scope="module")
def workload(small_grid):
    return generate_workload(
        small_grid, num_objects=12, lambda_q=30.0, lambda_u=40.0,
        duration=0.8, seed=21, k=4,
    )


@pytest.mark.parametrize(
    "config",
    [MPRConfig(1, 2, 1), MPRConfig(2, 1, 1), MPRConfig(2, 2, 1)],
    ids=lambda c: f"{c.x}x{c.y}x{c.z}",
)
def test_process_executor_matches_serial(small_grid, workload, config) -> None:
    prototype = DijkstraKNN(small_grid)
    reference = run_serial_reference(
        prototype, workload.initial_objects, workload.tasks
    )
    with build_executor(
        config, prototype, workload.initial_objects,
        mode="process", batch_size=1,
    ) as executor:
        assert executor.run(workload.tasks) == ok_results(reference)


def test_process_executor_with_indexed_solution(small_grid, workload) -> None:
    prototype = ToainKNN(small_grid)
    reference = run_serial_reference(
        prototype, workload.initial_objects, workload.tasks
    )
    with build_executor(
        MPRConfig(2, 1, 1), prototype, workload.initial_objects,
        mode="process", batch_size=1,
    ) as executor:
        assert executor.run(workload.tasks) == ok_results(reference)


def test_empty_stream(small_grid) -> None:
    with build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(small_grid), {1: 0},
        mode="process", batch_size=1,
    ) as executor:
        assert executor.run([]) == {}


# ----------------------------------------------------------------------
# The inbox is a bare pipe the parent never blocks on
# ----------------------------------------------------------------------
def shrink_pipes(pool, size: int = 4096) -> None:
    """Make every worker's two pipes one page, so a few KiB of batches
    (or acks) fill them — the state a long run reaches on 64 KiB pipes."""
    for state in pool._shapes.current.workers.values():
        handle = state.handle
        fcntl.fcntl(handle.inbox._writer.fileno(), fcntl.F_SETPIPE_SZ, size)
        fcntl.fcntl(handle.reader.fileno(), fcntl.F_SETPIPE_SZ, size)


def watch_backlog(monkeypatch) -> list[int]:
    """Record the parent-side inbox backlog after every ``put``."""
    depths: list[int] = []
    put = _PipeInbox.put

    def recording_put(inbox, message):
        put(inbox, message)
        depths.append(len(inbox.backlog))

    monkeypatch.setattr(_PipeInbox, "put", recording_put)
    return depths


def test_started_process_pool_has_no_feeder_thread(small_grid) -> None:
    with build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(small_grid), {1: 0}, mode="process",
    ) as pool:
        pool.run([QueryTask(0.0, 0, 3, 1)])
        names = [thread.name for thread in threading.enumerate()]
    assert not any("QueueFeederThread" in name for name in names), names


def test_large_run_against_one_worker_does_not_deadlock(
    small_grid, monkeypatch
) -> None:
    """One ``run_results`` big enough to fill the inbox *and* the ack
    pipe of a single worker: a parent that blocked writing the inbox
    would deadlock against the worker blocked writing acks.  The
    overflow must have gone through the parent-side backlog."""
    objects = {i: (i * 7 + 3) % small_grid.num_nodes for i in range(12)}
    tasks = [
        QueryTask(i * 1e-4, i, (i * 13 + 5) % small_grid.num_nodes, 4)
        for i in range(6000)
    ]
    depths = watch_backlog(monkeypatch)
    system = MPRSystem(
        MPRConfig(1, 1, 1), DijkstraKNN(small_grid), objects, mode="process",
    )
    results: list[dict] = []

    def run() -> None:
        with system:
            shrink_pipes(system.executor)
            results.append(system.run_results(tasks))

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=120.0)
    assert not runner.is_alive(), "run_results hung with both pipes full"
    assert max(depths) > 0, "the inbox never overflowed: nothing was proven"
    (answers,) = results
    assert len(answers) == len(tasks)
    oracle = DijkstraKNN(small_grid, objects)
    for task in tasks[::97]:
        assert answers[task.query_id] == QueryResult.from_answer(
            task.query_id, oracle.query(task.location, task.k)
        )


def test_partial_writes_keep_message_framing(small_grid, monkeypatch) -> None:
    """Batches larger than the (shrunk) pipe leave in several partial
    ``os.write`` calls; the worker must still decode every one, in seq
    order — updates are order-sensitive, so the oracle would differ."""
    workload = generate_workload(
        small_grid, num_objects=40, lambda_q=400.0, lambda_u=600.0,
        duration=1.5, seed=5, k=4,
    )
    prototype = DijkstraKNN(small_grid)
    reference = run_serial_reference(
        prototype, workload.initial_objects, workload.tasks
    )
    depths = watch_backlog(monkeypatch)
    with build_executor(
        MPRConfig(1, 1, 1), prototype, workload.initial_objects,
        # 200 queries and the ~310 updates riding along: ~6 KiB a
        # batch > one 4 KiB pipe, three of them back to back.
        mode="process", batch_size=200,
    ) as pool:
        pool.start()
        shrink_pipes(pool)
        assert pool.run(workload.tasks) == ok_results(reference)
    assert max(depths) > 4096  # a batch was cut mid-frame at least once
