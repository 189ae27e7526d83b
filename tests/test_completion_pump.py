"""The completion pump as a steppable machine, on a fake transport.

:class:`repro.mpr.api._CompletionPump` has no thread of its own: a
caller — an event loop in production — steps it.  Here the test
steps it by hand, on :class:`fake_transport.FakeTransport`'s virtual time,
so every cycle boundary is visible: what was submitted to the pool by
which step, when a reconfigure lets the next cycle start, what
``stop()`` fails, and what a drain timeout resolves.
"""

from __future__ import annotations

import pytest

from fake_transport import FakeTransport
from repro.graph import grid_network
from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    ProcessPoolService,
    QueryResult,
    ResultStatus,
    run_serial_reference,
)
from repro.mpr.api import _CompletionPump
from repro.objects.tasks import InsertTask, QueryTask

GRID = grid_network(8, 8, seed=1)
OBJECTS = {i: (i * 7 + 3) % GRID.num_nodes for i in range(12)}
RECONFIGURE = dict(
    trigger="test", warm_timeout=5.0, retire_timeout=5.0,
    wait_retire=False, timeout=10.0,
)


def make(drain_timeout: float | None = 30.0, shape=(1, 1, 1)):
    fake = FakeTransport(seed=3)
    pool = ProcessPoolService(
        DijkstraKNN(GRID), MPRConfig(*shape), OBJECTS, start_method=fake,
    ).start()
    return fake, pool, _CompletionPump(pool, drain_timeout)


def settle(fake: FakeTransport) -> None:
    """Run every w-core dry and let polls see everything it wrote."""
    for handle in list(fake.handles):
        fake.run(handle, None)
        for _ in range(len(handle.outbox) + (not handle.alive)):
            fake.release(handle)


def oracle(tasks) -> dict[int, QueryResult]:
    answers = run_serial_reference(DijkstraKNN(GRID), OBJECTS, tasks)
    return {
        query_id: QueryResult.from_answer(query_id, neighbors)
        for query_id, neighbors in answers.items()
    }


def outcomes(tasks, futures) -> dict[int, QueryResult | None]:
    return {
        getattr(task, "query_id", f"update-{index}"): future.result(0)
        for index, (task, future) in enumerate(zip(tasks, futures))
    }


def test_one_cycle_is_in_flight_and_the_next_starts_when_it_settles() -> None:
    fake, pool, pump = make()
    first = [QueryTask(0.0, 1, 5, 3), InsertTask(0.0, 100, 9),
             QueryTask(0.0, 2, 40, 2)]
    second = [QueryTask(0.0, 3, 9, 4), InsertTask(0.0, 101, 17)]
    futures = pump.submit_all(first)
    assert pool.metrics.tasks_submitted == 0  # queued; nobody stepped
    pump.step()  # starts the cycle: plan, submit, flush
    assert pool.metrics.tasks_submitted == 3
    later = pump.submit_all(second)
    pump.step()  # nothing answered yet: the cycle stays in flight
    assert pool.metrics.tasks_submitted == 3
    assert not any(future.done() for future in futures + later)

    settle(fake)
    pump.step()  # settles the first cycle, starts the second
    expected = oracle(first + second)
    assert outcomes(first, futures) == {
        1: expected[1], "update-1": None, 2: expected[2],
    }
    assert pool.metrics.tasks_submitted == 5
    assert not any(future.done() for future in later)

    settle(fake)
    pump.step()
    assert outcomes(second, later) == {3: expected[3], "update-1": None}
    assert pump.idle and pool.quiescent
    pool.close()


def test_a_reconfigure_is_a_cycle_boundary() -> None:
    """Tasks queued before the request ride the old shape through the
    cutover; the ones queued after it wait until its event is terminal
    and are routed by the new shape."""
    fake, pool, pump = make()
    before = QueryTask(0.0, 1, 5, 3)
    after = QueryTask(0.0, 2, 40, 3)
    first = pump.submit(before)
    change = pump.reconfigure(MPRConfig(2, 1, 1), **RECONFIGURE)
    second = pump.submit(after)

    pump.step()  # the cycle: ``before``, then the shape change begins
    assert pool.transition_pids()  # warming
    assert pool.metrics.tasks_submitted == 1
    pump.step()  # no probe acked: no new cycle
    assert pool.metrics.tasks_submitted == 1 and not change.done()

    settle(fake)
    pump.step()  # ``before`` answered, probes acked: cutover
    event = change.result(0)
    assert event.outcome == "completed"
    assert pool.generation == 1 and pool.config == MPRConfig(2, 1, 1)
    expected = oracle([before, after])
    assert first.result(0) == expected[1]
    assert pool.metrics.tasks_submitted == 2  # ``after``'s cycle began

    settle(fake)
    pump.step()
    assert second.result(0) == expected[2]
    pool.close()


def test_stop_fails_the_queue_and_lets_the_cycle_in_flight_finish() -> None:
    fake, pool, pump = make()
    in_flight = [QueryTask(0.0, 1, 5, 3), InsertTask(0.0, 100, 9)]
    futures = pump.submit_all(in_flight)
    pump.step()
    query, update = pump.submit_all(
        [QueryTask(0.0, 2, 9, 3), InsertTask(0.0, 101, 4)]
    )
    change = pump.reconfigure(MPRConfig(2, 1, 1), **RECONFIGURE)

    pump.stop()
    result = query.result(0)
    assert result.status is ResultStatus.TIMEOUT
    assert result.detail == "shutting down"
    for refused in (update, change):
        with pytest.raises(RuntimeError, match="shutting down"):
            refused.result(0)
    with pytest.raises(RuntimeError, match="stopped"):
        pump.submit(QueryTask(0.0, 3, 9, 3))
    assert not pump.stopped.is_set() and not futures[0].done()

    settle(fake)
    pump.step()
    assert outcomes(in_flight, futures) == {
        1: oracle(in_flight)[1], "update-1": None,
    }
    assert pump.stopped.is_set()
    assert pool.metrics.tasks_submitted == 2  # the queue never reached it
    pool.close()


def test_a_drain_timeout_resolves_the_query_it_names() -> None:
    """The cycle's drain timeout answers ``TIMEOUT`` with the pool's
    diagnostic, which names the stuck query; the next cycle starts, and
    the stuck one's late answer goes to nobody."""
    fake, pool, pump = make(drain_timeout=1.0)
    stuck = pump.submit(QueryTask(0.0, 42, 5, 3))
    pump.step()
    fake.advance(0.6)
    pump.step()
    assert not stuck.done()
    fake.advance(0.6)
    pump.step()
    result = stuck.result(0)
    assert result.status is ResultStatus.TIMEOUT
    assert "did not quiesce within 1.0 s" in result.detail
    assert "affected query ids: [42]" in result.detail
    assert pump.idle

    next_query = QueryTask(0.0, 43, 9, 3)
    answer = pump.submit(next_query)
    pump.step()
    settle(fake)
    pump.step()
    assert answer.result(0) == oracle([next_query])[43]
    assert pump.idle and pool.quiescent
    pool.close()
