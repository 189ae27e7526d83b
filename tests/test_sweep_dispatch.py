"""A message is a sweep: what one submit→drain cycle puts on the wire.

The batcher releases a worker's ops by *queries per sweep*, so a cycle
whose per-worker share is at most one sweep costs each w-core exactly
one message, one ``run_ops``, one kernel sweep and one ack.  These are
exact counts — messages on the fake transport's wire, ``KERNEL_CALLS``
deltas — not timings, on the fake transport (and the rig of
``tests/test_pool_protocol.py``, whose every drain also checks the
answers against the serial oracle) and on real thread workers.
"""

from __future__ import annotations

from collections import Counter

import pytest

import test_pool_protocol as protocol
from fake_transport import FakeTransport
from repro.graph.kernels import KERNEL_CALLS
from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    ProcessPoolService,
    build_executor,
    run_serial_reference,
)
from repro.mpr.reconfig import _Role
from repro.objects.tasks import InsertTask, QueryTask
from tests.conftest import ok_results

NODES = protocol.GRID.num_nodes

#: ``(shape, queries, updates)``: mprbench's two pool cycles in small —
#: a 32-op 1:4 burst over two columns, a query-heavy one over two rows.
BURSTS = [((2, 1, 1), 7, 25), ((1, 2, 1), 27, 5)]


def burst(queries: int, updates: int) -> list:
    """``queries + updates`` tasks, the rarer kind spread evenly."""
    total = queries + updates
    tasks, sent = [], 0
    for index in range(total):
        if (index + 1) * queries // total > sent:
            sent += 1
            tasks.append(QueryTask(index * 1e-3, index, index * 5 % NODES, 3))
        else:
            tasks.append(InsertTask(index * 1e-3, 5000 + index, index * 3 % NODES))
    assert sent == queries
    return tasks


@pytest.mark.parametrize("shape, queries, updates", BURSTS)
def test_one_cycle_is_one_message_and_one_sweep_per_worker(
    shape, queries, updates
) -> None:
    tasks = burst(queries, updates)
    solution = DijkstraKNN(protocol.GRID)
    expected = run_serial_reference(solution, protocol.OBJECTS, tasks)
    fake = FakeTransport()
    pool = ProcessPoolService(  # the default batch_size: one kernel sweep
        solution, MPRConfig(*shape), protocol.OBJECTS, start_method=fake
    ).start()
    workers, metrics = list(fake.handles), pool.metrics
    for task in tasks:
        pool.submit(task)
    assert metrics.messages_sent == 0  # no worker's share reached a sweep
    pool.flush()
    assert [len(worker.inbox) for worker in workers] == [1] * len(workers)
    assert metrics.messages_sent == len(workers)
    calls = Counter(KERNEL_CALLS)
    for worker in workers:
        fake.run(worker)  # its one message
    assert KERNEL_CALLS["knn_batch"] - calls["knn_batch"] == len(workers)
    assert KERNEL_CALLS["topk"] == calls["topk"]  # nobody searched alone
    assert pool.drain(timeout=60.0) == ok_results(expected)
    assert metrics.messages_sent == metrics.sweeps_acked == len(workers)
    assert metrics.queries_per_sweep == queries * shape[0] / len(workers)
    pool.close()


@pytest.mark.parametrize("shape, queries, updates", BURSTS)
def test_one_cycle_on_thread_workers(shape, queries, updates) -> None:
    tasks = burst(queries, updates)
    solution = DijkstraKNN(protocol.GRID)
    expected = run_serial_reference(solution, protocol.OBJECTS, tasks)
    workers = MPRConfig(*shape).worker_cores
    with build_executor(
        MPRConfig(*shape), solution, protocol.OBJECTS, mode="thread"
    ) as pool:
        pool.start()
        calls = Counter(KERNEL_CALLS)
        assert pool.run(tasks) == ok_results(expected)
        assert pool.metrics.messages_sent == workers
        assert KERNEL_CALLS["knn_batch"] - calls["knn_batch"] == workers
        assert KERNEL_CALLS["topk"] == calls["topk"]


def test_query_dense_stream_is_acked_sweep_by_sweep() -> None:
    """More than one sweep's worth: each full sweep leaves at once, so
    its answers do not wait on the queries behind it."""
    rig = protocol.Rig((1, 1, 1), batch_size=4)
    (worker,) = rig.handles()
    for index in range(9):
        rig.query(location=index)
        assert len(worker.inbox) == (index + 1) // 4
    assert [len(message[2]) for message in worker.inbox] == [4, 4]
    assert len(rig.drain()) == 9
    assert rig.pool.metrics.messages_sent == 3  # the ninth left at the flush
    rig.close()


def test_flush_resets_the_query_count() -> None:
    rig = protocol.Rig((1, 1, 1), batch_size=3)
    (worker,) = rig.handles()
    rig.query()
    rig.query()
    rig.pool.flush()  # the two leave, the count is zero
    assert [len(message[2]) for message in worker.inbox] == [2]
    rig.query()
    rig.query()  # a stale count of two would have released at the first
    assert len(worker.inbox) == 1
    rig.query()
    assert [len(message[2]) for message in worker.inbox] == [2, 3]
    assert len(rig.drain()) == 5
    rig.close()


def test_cutover_starts_the_new_shape_at_a_zero_count() -> None:
    """The old batcher's two queries leave with the cutover's flush;
    the catch-up batcher (updates only) is flushed with it; the new
    shape releases at exactly ``batch_size`` queries of its own."""
    rig = protocol.Rig((1, 1, 1), batch_size=3)
    rig.query()
    rig.query()
    change = rig.pool.begin_reconfigure(MPRConfig(2, 1, 1))
    rig.insert()
    rig.insert()  # dual-fed: buffered by the warming batcher
    warming = rig.handles(_Role.WARMING)
    protocol.warm(rig)
    assert all(not handle.inbox for handle in warming)  # probes only, so far
    rig.query()  # the cutover, then routed by the new shape
    assert change.outcome == "completed" and change.catchup_ops == 2
    (retiring,) = rig.handles(_Role.RETIRING)
    assert [len(message[2]) for message in retiring.inbox] == [4]  # 2 q + 2 u
    catchup = [[op[0] for op in m[2]] for h in warming for m in h.inbox]
    assert catchup == [["insert"], ["insert"]]  # one per column, no query yet
    rig.query()
    assert [len(handle.inbox) for handle in warming] == [1, 1]
    rig.query()  # the new shape's third: one sweep per column
    assert [
        [op[0] for op in handle.inbox[-1][2]] for handle in warming
    ] == [["query"] * 3] * 2
    assert len(rig.drain()) == 5
    rig.close()
