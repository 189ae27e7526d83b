"""The :class:`repro.mpr.transport.Transport` contract, one body for
every carrier — process (slow lane), thread, and the in-memory fake —
so the fake the protocol suite runs on cannot drift from the real ones.
"""

from __future__ import annotations

import gc
import os
import threading
import time

import pytest

from fake_transport import FakeTransport
from repro.knn import DijkstraKNN
from repro.mpr import MPRConfig, build_executor
from repro.mpr import transport as transport_module
from repro.mpr.transport import _STOP, EOF, make_transport
from repro.objects.tasks import QueryTask

OBJECTS = {1: 3, 2: 9, 3: 27, 4: 40}


@pytest.fixture(params=[
    pytest.param("fork", id="process", marks=pytest.mark.slow),
    pytest.param("thread", id="thread"),
    pytest.param("fake", id="fake"),
])
def kind(request) -> str:
    return request.param


def make(kind: str):
    if kind == "fake":
        return FakeTransport(seed=7)
    return make_transport(kind)


def batch(seq: int) -> tuple:
    """An order-sensitive batch: the query sees this batch's insert and
    every earlier one."""
    ops = (("insert", 100 + seq, (seq * 5) % 60), ("query", seq, 11, 3))
    return ("batch", seq, ops)


def collect(transport, want: int, budget: float = 20.0) -> list[tuple]:
    """Poll until ``want`` messages arrived (or the budget ran out)."""
    got: list[tuple] = []
    deadline = time.monotonic() + budget
    for _ in range(100_000):
        if len(got) >= want or time.monotonic() > deadline:
            break
        got.extend(transport.poll(0.05))
    return got


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def settle(fds: int, threads: int, budget: float = 2.0) -> tuple[int, int]:
    """Give exiting worker threads ``budget`` seconds to be gone."""
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        gc.collect()
        if (open_fds(), threading.active_count()) == (fds, threads):
            break
        time.sleep(0.01)
    return open_fds(), threading.active_count()


def test_sends_and_acks_are_fcfs_per_handle(small_grid, kind) -> None:
    transport = make(kind)
    try:
        prototype = DijkstraKNN(small_grid)
        first = transport.start(prototype.spawn(OBJECTS), (0, 0, 0), False)
        second = transport.start(prototype.spawn(OBJECTS), (0, 1, 0), False)
        for seq in range(12):
            transport.send(first, batch(seq))
            transport.send(second, batch(seq))
        got = collect(transport, 24)
        reference = prototype.spawn(OBJECTS)
        expected = [
            ("done", seq, reference.run_ops(batch(seq)[2]))
            for seq in range(12)
        ]
        for handle, worker_id in ((first, (0, 0, 0)), (second, (0, 1, 0))):
            mine = [message for owner, message in got if owner is handle]
            assert [(m[0], m[2], m[3]) for m in mine] == expected
            assert all(m[1] == worker_id for m in mine)
    finally:
        transport.close()


def test_killed_wcore_leaves_its_written_acks_then_eof(small_grid, kind) -> None:
    transport = make(kind)
    try:
        handle = transport.start(
            DijkstraKNN(small_grid).spawn(OBJECTS), (0, 0, 0), False
        )
        for seq in range(4):
            transport.send(handle, batch(seq))
        ((_, first),) = collect(transport, 1)
        assert first[0] == "done" and first[2] == 0
        transport.kill(handle)
        transport.join(handle, 5.0)
        assert not transport.alive(handle)
        rest = list(transport.residue(handle))
        assert rest[-1] is EOF and EOF not in rest[:-1]
        acks = [m for m in rest[:-1] if m[0] == "done"]
        assert [m[2] for m in acks] == list(range(1, 1 + len(acks)))
        assert list(transport.residue(handle)) == []  # retired: nothing more
        assert list(transport.poll(0)) == []
    finally:
        transport.close()


def test_send_to_a_dead_or_retired_handle_does_not_raise(small_grid, kind) -> None:
    transport = make(kind)
    try:
        handle = transport.start(
            DijkstraKNN(small_grid).spawn(OBJECTS), (0, 0, 0), False
        )
        transport.send(handle, _STOP)
        transport.join(handle, 5.0)
        assert not transport.alive(handle)
        for seq in range(200):  # well past anything a dead pipe buffers
            transport.send(handle, batch(seq))
        transport.retire(handle)
        transport.send(handle, batch(0))
        transport.retire(handle)  # idempotent
        assert not transport.alive(handle) and transport.pid(handle) is None
    finally:
        transport.close()


def test_residue_reads_only_its_own_handle(small_grid, kind) -> None:
    """The PR 19 hang: a respawn inside a pump step must not consume a
    sibling's pending ack."""
    transport = make(kind)
    try:
        prototype = DijkstraKNN(small_grid)
        mine = transport.start(prototype.spawn(OBJECTS), (0, 0, 0), False)
        sibling = transport.start(prototype.spawn(OBJECTS), (0, 0, 1), False)
        for handle in (mine, sibling):
            transport.send(handle, batch(0))
            transport.send(handle, _STOP)
        transport.join(mine, 5.0)
        transport.join(sibling, 5.0)
        assert [m[0] for m in transport.residue(mine)] == [
            "done", "stopped", "eof"
        ]
        got = collect(transport, 3)
        assert [owner for owner, _ in got] == [sibling] * 3
        assert [m[0] for _, m in got] == ["done", "stopped", "eof"]
    finally:
        transport.close()


def test_close_is_idempotent_and_safe_before_start(kind) -> None:
    transport = make(kind)
    transport.close()
    transport.close()


def test_real_transports_return_every_descriptor_and_thread(
    small_grid, kind
) -> None:
    if kind == "fake":
        pytest.skip("the fake opens no descriptor and starts no thread")
    prototype = DijkstraKNN(small_grid)
    gc.collect()
    baseline = open_fds(), threading.active_count()

    def start(transport):
        return transport.start(prototype.spawn(OBJECTS), (0, 0, 0), False)

    # close() alone
    transport = make(kind)
    start(transport)
    start(transport)
    transport.close()
    assert settle(*baseline) == baseline

    # a retire, and 5 kill -> respawn rounds
    transport = make(kind)
    gc.collect()
    empty = open_fds(), threading.active_count()  # + the selector
    handle = start(transport)
    one_worker = settle(-1, -1, budget=0.0)
    transport.send(handle, _STOP)
    transport.join(handle, 5.0)
    transport.retire(handle)
    assert settle(*empty) == empty
    handle = start(transport)
    for seq in range(5):
        transport.send(handle, batch(seq))
        transport.kill(handle)
        transport.join(handle, 5.0)
        for _ in transport.residue(handle):
            pass
        transport.retire(handle)
        handle = start(transport)
    assert settle(*one_worker) == one_worker
    transport.close()
    assert settle(*baseline) == baseline


@pytest.mark.parametrize("carrier", [
    pytest.param("fork", id="process", marks=pytest.mark.slow),
    pytest.param("thread", id="thread"),
])
def test_close_waits_for_wcores_that_hung_up_but_still_run(
    small_grid, carrier, monkeypatch
) -> None:
    """A w-core closes its result pipe before its thread or process
    ends, so ``close()`` reads EOF and retires the handle while the
    w-core still runs.  ``close()`` must still wait for it: once it
    returns no ``w-core`` thread is alive and every process is reaped."""
    serve = transport_module._worker_main

    def lingering(solution, worker_id, inbox, results, stamp_timings=False):
        serve(solution, worker_id, inbox, results, stamp_timings)
        results.close()  # the parent reads EOF here ...
        time.sleep(0.5)  # ... while the w-core has not returned yet

    monkeypatch.setattr(transport_module, "_worker_main", lingering)
    transport = make_transport(carrier)
    prototype = DijkstraKNN(small_grid)
    handles = [
        transport.start(prototype.spawn(OBJECTS), (0, row, 0), False)
        for row in range(2)
    ]
    workers = [handle.process for handle in handles]
    for handle in handles:
        transport.send(handle, _STOP)
    transport.close(timeout=10.0)
    if carrier == "thread":
        assert not any(worker.is_alive() for worker in workers)
    else:
        assert all(worker.exitcode is not None for worker in workers)


def test_thread_pool_dropped_without_close_leaks_nothing(small_grid) -> None:
    """ROADMAP item 3 leftover: a thread-mode pool dropped without
    ``close()`` used to leak a blocked daemon thread and two pipe
    descriptors per worker.  The transport owns every descriptor, and
    its finalizer queues the stops and closes its ends."""
    gc.collect()
    baseline = open_fds(), threading.active_count()
    pool = build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(small_grid), OBJECTS, mode="thread"
    )
    assert pool.run([QueryTask(0.0, 0, 3, 2)])
    assert threading.active_count() == baseline[1] + 4
    assert open_fds() > baseline[0]
    del pool
    assert settle(*baseline) == baseline
