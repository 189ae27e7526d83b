"""Send first, account per cycle: what the pool parent does, in order.

A ``run()`` (or completion-pump) cycle routes its tasks and puts every
batch on the wire before it books any of them, then books the cycle
while the workers compute — one count-weighted telemetry record per
stage and batch, so the parent's locked bookkeeping grows with the
messages of a cycle, not with its ops.  A routing error mid-cycle
raises only once the prefix it routed is booked, so that prefix is
answered like any other.  All on the fake transport: exact counts, no
timing.
"""

from __future__ import annotations

import pytest

from fake_transport import CountingTelemetry, FakeTransport
from repro.graph import grid_network
from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    ProcessPoolService,
    check_matrix_invariants,
    run_serial_reference,
)
from repro.objects.tasks import InsertTask, QueryTask
from tests.conftest import ok_results

GRID = grid_network(8, 8, seed=1)
OBJECTS = {i: (i * 7 + 3) % GRID.num_nodes for i in range(12)}


def mixed(queries: int, inserts: int, first: int = 0) -> list:
    """``queries`` queries spread evenly among ``inserts`` inserts of
    fresh objects; ids from ``first`` on."""
    total = queries + inserts
    tasks, placed = [], 0
    for index in range(first, first + total):
        if (index - first + 1) * queries // total > placed:
            placed += 1
            tasks.append(QueryTask(0.0, index, index * 5 % GRID.num_nodes, 3))
        else:
            tasks.append(
                InsertTask(0.0, 1000 + index, index * 3 % GRID.num_nodes)
            )
    return tasks


def make(telemetry=None, batch_size: int = 16, seed: int = 5):
    fake = FakeTransport(seed)
    pool = ProcessPoolService(
        DijkstraKNN(GRID), MPRConfig(2, 1, 1), OBJECTS,
        batch_size=batch_size, start_method=fake, telemetry=telemetry,
    ).start()
    return fake, pool


def oracle(tasks) -> dict:
    return ok_results(run_serial_reference(DijkstraKNN(GRID), OBJECTS, tasks))


def test_parent_bookkeeping_grows_with_messages_not_ops() -> None:
    """(2,1,1), at most 16 queries per worker: a 16-op and a 64-op
    cycle both send one message per worker, and take the telemetry lock
    equally often."""
    telemetry = CountingTelemetry()
    _fake, pool = make(telemetry)
    small, large = mixed(4, 12), mixed(12, 52, first=100)
    calls = []
    for tasks, before in ((small, []), (large, small)):
        sent, locked = pool.metrics.batches_sent, telemetry.locked
        answers = pool.run(tasks)
        calls.append(telemetry.locked - locked)
        assert pool.metrics.batches_sent - sent == 2
        expected = oracle(before + tasks)
        assert answers == {qid: expected[qid] for qid in answers}
        assert len(answers) == sum(isinstance(t, QueryTask) for t in tasks)
    assert calls[0] == calls[1] > 0
    pool.close()


def test_every_batch_of_a_cycle_is_on_the_wire_before_the_ledger_books() -> None:
    fake, pool = make(batch_size=2)
    owed = []
    send = fake.send

    def spy(handle, message) -> None:
        if message[0] == "batch":
            owed.append(len(pool._ledger.queries))
        send(handle, message)

    fake.send = spy
    tasks = mixed(10, 22)
    assert pool.run(tasks) == oracle(tasks)
    assert len(owed) == pool.metrics.batches_sent > 2  # full ones, flushed ones
    assert set(owed) == {0}
    pool.close()


def test_a_failed_route_raises_after_its_prefix_is_booked() -> None:
    """The 10th task inserts a live object: ``run()`` raises the
    router's ``KeyError``; the nine before it were sent and booked, so
    the next drain answers their queries, and the cells hold exactly the
    pool's object ledger."""
    _fake, pool = make(batch_size=2)
    tasks = mixed(8, 12)
    tasks[9] = InsertTask(0.0, 0, 7)  # object 0 is live
    with pytest.raises(KeyError, match="insert of live object 0"):
        pool.run(tasks)
    routed = tasks[:9]
    assert pool.drain() == oracle(routed)
    contents = pool.worker_contents()
    check_matrix_invariants(contents, pool.config)
    cells: dict[int, int] = {}
    for cell in contents.values():
        cells.update(cell)
    assert cells == pool._objects == {
        **OBJECTS,
        **{t.object_id: t.location for t in routed if isinstance(t, InsertTask)},
    }
    pool.close()


def test_router_counts_land_per_cycle_and_per_lone_submit() -> None:
    """A ``run()`` cycle folds its ``router.*`` counts into telemetry
    once, at its flush; a lone ``submit()`` is a cycle of its own, so
    a rate estimator polling between submits sees each at once."""
    telemetry = CountingTelemetry()
    _fake, pool = make(telemetry)
    pool.submit(QueryTask(0.0, 0, 5, 3))
    pool.submit(InsertTask(0.0, 500, 9))
    assert telemetry.counters["router.queries"] == 1
    assert telemetry.counters["router.updates"] == 1
    pool.drain()
    pool.run(mixed(4, 12, first=10))
    counters = telemetry.counters
    assert (counters["router.queries"], counters["router.updates"]) == (5, 13)
    assert counters["router.queries.layer0"] == 5
    pool.close()
