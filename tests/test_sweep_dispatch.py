"""A message is a sweep: what one submit→drain cycle puts on the wire.

The batcher releases a worker's ops by *queries per sweep*, so a cycle
whose per-worker share is at most one sweep costs each w-core exactly
one message, one ``run_ops``, one kernel sweep and one ack.  These are
exact counts — messages on the fake transport's wire, ``KERNEL_CALLS``
deltas — not timings, on the fake transport (and the rig of
``tests/test_pool_protocol.py``, whose every drain also checks the
answers against the serial oracle) and on real thread workers.

A planned cycle (``run()`` and the completion pump) also fills a sweep
before it spreads over replica rows: a layer's share of ``q`` queries
uses ``ceil(q / batch_size)`` rows, at most ``y`` — the last section.

The tests that count sweeps run in a sparse-object regime
(:data:`SPARSE_GRID`): there every group costs more than the kernels'
work model gives the heap search, so a message's queries are one
shared sweep.  With dense objects the same message runs heap searches
(``tests/test_kernels.py::TestWorkModel``).
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

import test_pool_protocol as protocol
from fake_transport import FakeTransport
from repro.graph import grid_network
from repro.graph.kernels import KERNEL_CALLS
from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    MPRRouter,
    MPRSystem,
    ProcessPoolService,
    build_executor,
    run_serial_reference,
)
from repro.mpr.core_matrix import QueryRoute
from repro.mpr.reconfig import _Role
from repro.objects.tasks import InsertTask, QueryTask, TaskKind
from tests.conftest import gated_solution, ok_results

NODES = protocol.GRID.num_nodes

#: ``(shape, queries, updates)``: mprbench's two pool cycles in small —
#: a 32-op 1:4 burst over two columns, a query-heavy one over two rows.
BURSTS = [((2, 1, 1), 7, 25), ((1, 2, 1), 27, 5)]

#: Few objects on a larger grid: a search expects to settle ``k * n /
#: objects`` >= 3 * 1,600 / 11 nodes even after two bursts' inserts,
#: far past what the work model sends to the heap for >= 7 rows.
SPARSE_GRID = grid_network(40, 40, seed=1)
SPARSE_OBJECTS = {i: (i * 397 + 3) % SPARSE_GRID.num_nodes for i in range(6)}


def burst(
    queries: int, updates: int, first: int = 0, nodes: int = NODES
) -> list:
    """``queries + updates`` tasks over ``range(nodes)``, the rarer kind
    spread evenly; ids (query ids, inserted object ids) from ``first``
    on."""
    total = queries + updates
    tasks, sent = [], 0
    for index in range(first, first + total):
        if (index - first + 1) * queries // total > sent:
            sent += 1
            tasks.append(QueryTask(index * 1e-3, index, index * 5 % nodes, 3))
        else:
            tasks.append(InsertTask(index * 1e-3, 5000 + index, index * 3 % nodes))
    assert sent == queries
    return tasks


@pytest.mark.parametrize("shape, queries, updates", BURSTS)
def test_one_cycle_is_one_message_and_one_sweep_per_worker(
    shape, queries, updates
) -> None:
    tasks = burst(queries, updates, nodes=SPARSE_GRID.num_nodes)
    solution = DijkstraKNN(SPARSE_GRID)
    expected = run_serial_reference(solution, SPARSE_OBJECTS, tasks)
    fake = FakeTransport()
    pool = ProcessPoolService(  # the default batch_size: one kernel sweep
        solution, MPRConfig(*shape), SPARSE_OBJECTS, start_method=fake
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
    tasks = burst(queries, updates, nodes=SPARSE_GRID.num_nodes)
    solution = DijkstraKNN(SPARSE_GRID)
    expected = run_serial_reference(solution, SPARSE_OBJECTS, tasks)
    workers = MPRConfig(*shape).worker_cores
    with build_executor(
        MPRConfig(*shape), solution, SPARSE_OBJECTS, mode="thread"
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


# ----------------------------------------------------------------------
# A cycle fills a sweep before it spreads over rows
# ----------------------------------------------------------------------
def make_pool(
    kind: str, shape, solution=None, objects=protocol.OBJECTS
) -> ProcessPoolService:
    """A started pool of ``shape`` on the fake transport or on threads."""
    if solution is None:
        solution = DijkstraKNN(protocol.GRID)
    if kind == "fake":
        return ProcessPoolService(
            solution, MPRConfig(*shape), objects,
            start_method=FakeTransport(),
        ).start()
    return build_executor(
        MPRConfig(*shape), solution, objects, mode="thread"
    ).start()


def record_sends(pool: ProcessPoolService) -> list:
    """Every batch the pool puts on the wire, as ``(worker_id, ops)``."""
    sent = []
    send = pool._send

    def spy(state, ops):
        sent.append((state.worker_id, ops))
        send(state, ops)

    pool._send = spy
    return sent


def query_rows(sent) -> dict[int, tuple[int, int]]:
    """``query_id -> (layer, row)`` of the worker each query went to."""
    return {
        op[1]: worker[:2]
        for worker, ops in sent for op in ops if op[0] == "query"
    }


def unplanned_rows(shape, tasks) -> dict[int, tuple[int, int]]:
    """Algorithm 1's rows: the router routing one query at a time."""
    router = MPRRouter(MPRConfig(*shape))
    router.preload_objects(protocol.OBJECTS)
    routes = [(task, router.route(task)) for task in tasks]
    return {
        task.query_id: (route.layer, route.row)
        for task, route in routes if isinstance(route, QueryRoute)
    }


def answers_of(expected, tasks) -> dict:
    return ok_results({
        task.query_id: expected[task.query_id]
        for task in tasks if task.kind is TaskKind.QUERY
    })


@pytest.mark.parametrize("kind", ["fake", "thread"])
def test_a_small_cycle_is_one_sweep_on_one_row(kind) -> None:
    """(1,2,1), 10 queries + 5 updates: one row takes every query in one
    sweep, the other row's message holds only the updates — and the
    next such cycle lands on the other row."""
    nodes = SPARSE_GRID.num_nodes
    cycles = [burst(10, 5, nodes=nodes), burst(10, 5, first=100, nodes=nodes)]
    solution = DijkstraKNN(SPARSE_GRID)
    expected = run_serial_reference(
        solution, SPARSE_OBJECTS, cycles[0] + cycles[1]
    )
    pool = make_pool(kind, (1, 2, 1), solution, SPARSE_OBJECTS)
    try:
        for row, tasks in enumerate(cycles):
            sent = record_sends(pool)
            calls = Counter(KERNEL_CALLS)
            assert pool.run(tasks) == answers_of(expected, tasks)
            assert KERNEL_CALLS["knn_batch"] - calls["knn_batch"] == 1
            assert KERNEL_CALLS["topk"] == calls["topk"]
            assert set(query_rows(sent).values()) == {(0, row)}
            kinds = {
                worker: Counter(op[0] for op in ops) for worker, ops in sent
            }
            assert kinds == {
                (0, row, 0): Counter(query=10, insert=5),
                (0, 1 - row, 0): Counter(insert=5),
            }
    finally:
        pool.close()


@pytest.mark.parametrize("shape, queries, updates", BURSTS)
def test_a_cycle_of_more_sweeps_than_rows_routes_as_algorithm_1(
    shape, queries, updates
) -> None:
    """mprbench's pool cycles in small — 27 queries over two rows, and
    any cycle over one row — need every row, so the plan changes
    nothing: each query lands on the row the unplanned router picks."""
    tasks = burst(queries, updates)
    solution = DijkstraKNN(protocol.GRID)
    pool = make_pool("fake", shape, solution)
    sent = record_sends(pool)
    assert pool.run(tasks) == ok_results(
        run_serial_reference(solution, protocol.OBJECTS, tasks)
    )
    assert query_rows(sent) == unplanned_rows(shape, tasks)
    pool.close()


def test_each_layer_is_planned_on_its_own_share() -> None:
    """(1,2,2), 33 queries: the d-core sends 17 to layer 0 — two sweeps,
    so both rows, as Algorithm 1 — and 16 to layer 1, one sweep on one
    row.  The next cycle starts layer 1 past that row."""
    cycles = [burst(33, 3), burst(33, 3, first=100)]
    solution = DijkstraKNN(protocol.GRID)
    expected = run_serial_reference(
        solution, protocol.OBJECTS, cycles[0] + cycles[1]
    )
    pool = make_pool("fake", (1, 2, 2), solution)
    sent = record_sends(pool)
    assert pool.run(cycles[0]) == answers_of(expected, cycles[0])
    rows = query_rows(sent)
    unplanned = unplanned_rows((1, 2, 2), cycles[0])
    layer0 = {qid: rows[qid] for qid in rows if rows[qid][0] == 0}
    assert len(layer0) == 17
    assert layer0 == {qid: unplanned[qid] for qid in layer0}
    assert sorted(set(rows.values()) - set(layer0.values())) == [(1, 0)]
    # Cycle two: the d-core starts at layer 1 (33 is odd), so layer 1
    # gets 17 over both rows and layer 0's 16 take its next row — 1,
    # where layer 0's per-query round robin left off.
    sent.clear()
    assert pool.run(cycles[1]) == answers_of(expected, cycles[1])
    rows = query_rows(sent)
    assert sorted(set(row for row in rows.values() if row[0] == 0)) == [(0, 1)]
    assert sum(row[0] == 1 for row in rows.values()) == 17
    assert {row for row in rows.values() if row[0] == 1} == {(1, 0), (1, 1)}
    pool.close()


def test_a_pump_cycle_is_planned_like_run() -> None:
    """Through ``MPRSystem.submit_async``: a one-query cycle takes row 0;
    the 10-query + 5-update cycle queued behind it takes row 1 whole,
    and row 0's message holds only its updates."""
    solution, gate = gated_solution(protocol.GRID)
    tasks = burst(10, 5, first=1)
    lone = QueryTask(0.0, 0, 7, 3)
    expected = run_serial_reference(solution, protocol.OBJECTS, [lone, *tasks])
    with MPRSystem(
        MPRConfig(1, 2, 1), solution, protocol.OBJECTS, mode="thread"
    ) as system:
        sent = record_sends(system.executor)
        first = system.submit_async(lone)
        for _ in range(1000):  # until the pump is in the lone cycle's drain
            if sent:
                break
            time.sleep(0.005)
        futures = [(task, system.submit_async(task)) for task in tasks]
        gate.set()
        assert first.result(timeout=30) == answers_of(expected, [lone])[0]
        results = {
            task.query_id: future.result(timeout=30)
            for task, future in futures if task.kind is TaskKind.QUERY
        }
        assert results == answers_of(expected, tasks)
    rows = query_rows(sent)
    assert rows.pop(0) == (0, 0)
    assert set(rows.values()) == {(0, 1)}
    assert [
        (worker, Counter(op[0] for op in ops)) for worker, ops in sent[1:]
    ] == [((0, 0, 0), Counter(insert=5)), ((0, 1, 0), Counter(query=10, insert=5))]


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
