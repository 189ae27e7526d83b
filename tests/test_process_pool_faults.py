"""Fault injection for the process pool: kill, respawn, replay.

The supervisor's guarantee: a worker death (SIGKILL here — no chance
to clean up) is detected, the worker is respawned from its replica's
object cell, the unacknowledged batches are replayed, and the final
answers are indistinguishable from a fault-free oracle run.  Also
covered: the shutdown-timeout path, double-``close()``, the
poison-task path (a crashing batch must surface as an error, not a
respawn loop), and the dropped ack (a w-core that exits before acking
crash-loops every replay until the breakers degrade its one query).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import selectors
import signal
import threading
import time

import pytest

from repro.graph import grid_network
from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    QueryResult,
    ResilienceConfig,
    ResultStatus,
    WorkerCrash,
    build_executor,
    run_serial_reference,
)
from repro.mpr.transport import _PipeInbox
from repro.objects.tasks import QueryTask
from repro.workload import generate_workload
from tests.conftest import ok_results

# Everything that signals a worker is ``slow`` (and process-only); the two
# signal-free cases also run on thread workers in tier-1 (``worker_kind``).

#: A node of the graph: an off-graph location would be refused by
#: ``submit`` before any worker could crash on it.
POISON_LOCATION = 0


class PoisonableKNN(DijkstraKNN):
    """Dijkstra solution that crashes on a sentinel query location
    (module-level so fork/spawn children can reconstruct it)."""

    def query(self, location, k):
        if location == POISON_LOCATION:
            raise RuntimeError("poisoned query")
        return super().query(location, k)

    def spawn(self, objects):
        return PoisonableKNN(self._network, objects)


@pytest.fixture(scope="module")
def network():
    return grid_network(10, 10, seed=3)


@pytest.fixture(
    params=[None, ResilienceConfig(hedge=False, stall_timeout=None)],
    ids=["default", "idle-policy"],
)
def lifecycle_policy(request):
    """The shutdown and drain-timeout cases never reach a fault point,
    so they must behave identically under an idle policy."""
    return request.param


@pytest.fixture(scope="module")
def workload(network):
    return generate_workload(
        network, num_objects=15, lambda_q=120.0, lambda_u=80.0,
        duration=1.0, seed=13, k=4,
    )


@pytest.fixture(scope="module")
def oracle(network, workload):
    return ok_results(run_serial_reference(
        DijkstraKNN(network), workload.initial_objects, workload.tasks
    ))


@pytest.mark.slow
def test_sigkill_between_drains_is_invisible(network, workload, oracle) -> None:
    """Kill a quiesced worker; the next dispatch notices and respawns
    it from the replica cell — final answers equal the oracle's."""
    half = len(workload.tasks) // 2
    pool = build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(network),
        workload.initial_objects, mode="process", batch_size=4,
        health_check_interval=0.02,
    )
    with pool:
        answers = {}
        for task in workload.tasks[:half]:
            pool.submit(task)
        answers.update(pool.drain())
        victim_id, victim_pid = next(iter(pool.worker_pids().items()))
        os.kill(victim_pid, signal.SIGKILL)
        for task in workload.tasks[half:]:
            pool.submit(task)
        answers.update(pool.drain())
        assert pool.metrics.respawns >= 1
        assert pool.worker_pids()[victim_id] != victim_pid
    assert answers == oracle


@pytest.mark.slow
def test_sigkill_with_batches_in_flight_replays(network, workload, oracle) -> None:
    """Kill a worker *while its batches are outstanding*: the
    supervisor must replay the unacknowledged suffix and the answers
    must still be identical to the fault-free oracle."""
    pool = build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(network),
        workload.initial_objects, mode="process", batch_size=8,
        health_check_interval=0.02,
    )
    with pool:
        for task in workload.tasks:
            pool.submit(task)
        pool.flush()
        victim_pid = next(iter(pool.worker_pids().values()))
        os.kill(victim_pid, signal.SIGKILL)
        answers = pool.drain()
        assert pool.metrics.respawns >= 1
        assert pool.metrics.batches_replayed >= 1
    assert answers == oracle


@pytest.mark.slow
def test_every_worker_killed_once(network, workload, oracle) -> None:
    """Serially kill *each* worker of a replicated matrix; every cell
    must be reconstructible (y-row replication has no single point of
    failure)."""
    pool = build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(network),
        workload.initial_objects, mode="process", batch_size=4,
        health_check_interval=0.02,
    )
    chunk = max(1, len(workload.tasks) // 5)
    with pool:
        answers = {}
        position = 0
        for victim_pid in list(pool.worker_pids().values()):
            for task in workload.tasks[position:position + chunk]:
                pool.submit(task)
            position += chunk
            answers.update(pool.drain())
            os.kill(victim_pid, signal.SIGKILL)
        for task in workload.tasks[position:]:
            pool.submit(task)
        answers.update(pool.drain())
        assert pool.metrics.respawns == 4
    assert answers == oracle


@pytest.mark.slow
def test_close_times_out_on_dead_worker_and_is_idempotent(
    network, lifecycle_policy
) -> None:
    """A worker that cannot ack the stop message (SIGKILLed) must not
    hang close(); a second close() is a no-op."""
    pool = build_executor(
        MPRConfig(1, 2, 1), DijkstraKNN(network), {1: 0},
        mode="process", batch_size=2, resilience=lifecycle_policy,
    )
    pool.start()
    victim_pid = next(iter(pool.worker_pids().values()))
    os.kill(victim_pid, signal.SIGKILL)
    start = time.monotonic()
    pool.close(timeout=1.0)
    assert time.monotonic() - start < 5.0
    pool.close(timeout=1.0)  # idempotent
    assert not pool.running
    with pytest.raises(RuntimeError):
        pool.start()


def test_close_before_start_and_empty_drain(
    network, lifecycle_policy, worker_kind
) -> None:
    pool = build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(network), {1: 0}, mode=worker_kind,
        resilience=lifecycle_policy,
    )
    pool.close()  # never started: still safe
    with build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(network), {1: 0}, mode=worker_kind,
        resilience=lifecycle_policy,
    ) as fresh:
        assert fresh.drain() == {}
        assert fresh.run([]) == {}


@pytest.mark.slow
def test_drain_timeout_lists_outstanding_batches(
    network, workload, lifecycle_policy
) -> None:
    """A bounded drain that cannot quiesce must raise a TimeoutError
    naming every outstanding (worker_id, seq) batch — the diagnostic a
    wedged production pool is debugged from."""
    pool = build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(network),
        workload.initial_objects, mode="process", batch_size=4,
        resilience=lifecycle_policy,
    )
    victim_pid = None
    try:
        with pool:
            pool.start()
            victim_id, victim_pid = next(iter(pool.worker_pids().items()))
            os.kill(victim_pid, signal.SIGSTOP)  # alive but silent
            for task in workload.tasks[:20]:
                pool.submit(task)
            pool.flush()
            with pytest.raises(TimeoutError) as excinfo:
                pool.drain(timeout=0.5)
            message = str(excinfo.value)
            assert "did not quiesce within 0.5" in message
            assert str(victim_id) in message
            assert "(worker, seq)" in message
    finally:
        if victim_pid is not None:
            try:
                os.kill(victim_pid, signal.SIGCONT)
            except ProcessLookupError:
                pass


@pytest.mark.slow
def test_close_escalates_on_wedged_worker_and_unlinks_shm(
    network, lifecycle_policy
) -> None:
    """A SIGSTOPped worker ignores the stop sentinel and SIGTERM alike;
    close() must escalate to SIGKILL within its timeout and still
    unlink the shared-memory graph segment (published under spawn)."""
    from multiprocessing import shared_memory

    pool = build_executor(
        MPRConfig(1, 2, 1), DijkstraKNN(network), {1: 0},
        mode="process", batch_size=2, resilience=lifecycle_policy,
        start_method="spawn",
    )
    pool.start()
    shm_name = network._shared_meta.shm_name
    victim_pid = next(iter(pool.worker_pids().values()))
    os.kill(victim_pid, signal.SIGSTOP)
    start = time.monotonic()
    pool.close(timeout=1.0)
    assert time.monotonic() - start < 10.0
    assert not pool.running
    # The wedge was resolved by force, not leaked.
    with pytest.raises(ProcessLookupError):
        os.kill(victim_pid, signal.SIGCONT)
    # The segment is gone even though shutdown needed the kill path.
    assert getattr(network, "_shared_meta", None) is None
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=shm_name)


def test_poison_task_raises_instead_of_respawn_loop(
    network, workload, worker_kind
) -> None:
    """A batch that crashes the solution itself is not a worker fault:
    it must surface as WorkerCrash, not burn the respawn budget."""
    pool = build_executor(
        MPRConfig(1, 1, 1), PoisonableKNN(network),
        workload.initial_objects, mode=worker_kind, batch_size=1,
        health_check_interval=0.02,
    )
    with pool:
        with pytest.raises(WorkerCrash):
            # A fast worker's report already surfaces from the acks
            # submit() collects opportunistically.
            pool.submit(QueryTask(0.0, 0, POISON_LOCATION, 3))
            pool.drain()
        assert pool.metrics.respawns == 0


class PoisonCellKNN(DijkstraKNN):
    """Crashes on every batch in the replicas whose cell holds object 0
    — one column's poison, its sibling column's clean answer."""

    def run_ops(self, ops, op_timings=None):
        if 0 in self.object_locations():
            raise RuntimeError("poisoned cell")
        return super().run_ops(ops, op_timings)

    def spawn(self, objects):
        return PoisonCellKNN(self._network, objects)


def test_poison_report_and_sibling_ack_in_one_pump_step(
    network, worker_kind
) -> None:
    """One pump step finds column 0's error report *and* column 1's ack
    ready.  Handling the report respawns the worker, which collects the
    dead worker's residual acks — only its own: were that a full pump,
    it would consume the sibling's ack, and the outer step's blocking
    ``recv`` on the sibling's now-empty pipe would hang the drain."""
    objects = {i: (i * 11 + 5) % network.num_nodes for i in range(10)}
    pool = build_executor(
        MPRConfig(2, 1, 1), PoisonCellKNN(network), objects,
        mode=worker_kind, batch_size=64,
        resilience=ResilienceConfig(hedge=False),
    )
    with pool:
        pool.start()
        # Column 0 is spawned (and so polled) first: the order that hangs.
        assert 0 in pool.worker_contents()[(0, 0, 0)]
        pool.submit(QueryTask(0.0, 7, 3, 4))
        pool.flush()  # sends both batches, reads nothing
        for state in pool._shapes.current.workers.values():
            assert state.handle.reader.poll(10.0)  # both answers are waiting
        done: list[dict] = []
        drainer = threading.Thread(
            target=lambda: done.append(pool.drain(timeout=10.0)), daemon=True
        )
        drainer.start()
        drainer.join(timeout=20.0)
        assert not drainer.is_alive(), "drain hung on a consumed ack"
        (answers,) = done
    survivor = DijkstraKNN(network, pool.worker_contents()[(0, 0, 1)])
    assert answers[7] == QueryResult(
        7, ResultStatus.PARTIAL, tuple(survivor.query(3, 4)), ((0, 0),)
    )
    assert pool.metrics.batches_quarantined == 1


class ExitingKNN(DijkstraKNN):
    """Exits its w-core *before* acking a batch that asks the sentinel
    query (location ``POISON_LOCATION``), in the replicas whose cell
    holds object 0 — one column.

    ``os._exit`` skips every finally/atexit hook, so the batch is
    neither acknowledged nor reported as an error: the parent sees only
    EOF, replays, and the replay dies the same way — the dropped-ack
    crash loop, which only the circuit breakers end.
    """

    def run_ops(self, ops, op_timings=None):
        if 0 in self.object_locations() and any(
            op[0] == "query" and op[2] == POISON_LOCATION for op in ops
        ):
            os._exit(0)
        return super().run_ops(ops, op_timings)

    def spawn(self, objects):
        return ExitingKNN(self._network, objects)


@pytest.mark.slow
def test_dropped_ack_crash_loop_degrades_only_its_query(network) -> None:
    """Both replica rows of column 0 die, unacknowledged, on the
    sentinel query, and every replay dies again: the breakers open, the
    drain still ends, the sentinel is ``PARTIAL`` naming column 0 with
    column 1's exact top-k, and every other answer is oracle-exact.  The
    sentinel is the last query and travels alone (``batch_size=1``), so
    nothing queues behind it on the cell it kills."""
    config = MPRConfig(2, 2, 1)
    objects = {i: (i * 7 + 3) % network.num_nodes for i in range(50)}
    locations = [
        location for location in (
            (position * 37 + 5) % network.num_nodes for position in range(24)
        )
        if location != POISON_LOCATION
    ]
    tasks = [
        QueryTask(0.001 * query_id, query_id, location, 5)
        for query_id, location in enumerate(locations)
    ]
    sentinel = QueryTask(1.0, len(tasks), POISON_LOCATION, 5)
    with build_executor(
        config, ExitingKNN(network), objects,
        mode="process", batch_size=1,
        resilience=ResilienceConfig(
            default_deadline=0.25, breaker_failures=2, backoff_base=0.2,
            backoff_factor=2.0, stall_timeout=0.5,
        ),
    ) as pool:
        for task in [*tasks, sentinel]:
            pool.submit(task)
        started = time.monotonic()
        answers = pool.drain(timeout=30.0)
        elapsed = time.monotonic() - started
        metrics = pool.metrics
        assert 0 in pool.worker_contents()[(0, 0, 0)]
        survivor = DijkstraKNN(network, pool.worker_contents()[(0, 0, 1)])
    assert elapsed < 10.0
    # Each row died twice (respawn + replay) before its breaker opened;
    # the sentinel hedged from one to the other in between.
    assert metrics.breaker_opens >= config.y and metrics.respawns >= config.y
    assert metrics.hedges >= 1
    assert answers.pop(sentinel.query_id) == QueryResult(
        sentinel.query_id, ResultStatus.PARTIAL,
        tuple(survivor.query(POISON_LOCATION, 5)), ((0, 0),),
    )
    assert answers == ok_results(
        run_serial_reference(DijkstraKNN(network), objects, tasks)
    )


@pytest.mark.slow
def test_default_pools_share_no_policy_state(network, workload, oracle) -> None:
    """Two default pools in one process each own their policy: a worker
    killed in one leaves the other's respawn budget, admission ledger
    and counters alone."""

    def make_pool():
        return build_executor(
            MPRConfig(2, 1, 1), DijkstraKNN(network),
            workload.initial_objects, mode="process", batch_size=8,
            health_check_interval=0.02, max_respawns=1,
        )

    with make_pool() as struck, make_pool() as bystander:
        assert struck._resilience is not bystander._resilience
        for task in workload.tasks:
            struck.submit(task)
            bystander.submit(task)
        struck.flush()
        victim_id, victim_pid = next(iter(struck.worker_pids().items()))
        os.kill(victim_pid, signal.SIGKILL)
        assert struck.drain() == oracle
        assert struck.metrics.respawns == 1
        assert bystander.drain() == oracle
        assert bystander.metrics.respawns == 0
        assert bystander.metrics.batches_replayed == 0
        assert bystander.metrics.messages_sent == bystander.metrics.batches_sent
        # The bystander's budget of one respawn is still unspent.
        os.kill(bystander.worker_pids()[victim_id], signal.SIGKILL)
        bystander.submit(QueryTask(1e6, 10**6, 0, 3))
        assert len(bystander.drain()) == 1
        assert bystander.metrics.respawns == 1


# ----------------------------------------------------------------------
# The bare-pipe inbox: a clogged or dead pipe never blocks the parent
# ----------------------------------------------------------------------
def test_pipe_inbox_write_to_dead_reader_is_dropped() -> None:
    """EPIPE (the worker died) and a retired inbox both swallow the
    write: the batch is in ``unacked`` and replays after the respawn."""
    reader, writer = mp.Pipe(duplex=False)
    selector = selectors.DefaultSelector()
    inbox = _PipeInbox(writer, selector)
    try:
        reader.close()
        inbox.put(("batch", 0, (("query", 1, 0, 1),)))
        assert not inbox.backlog and not selector.get_map()
        inbox.close()
        inbox.put(("stop",))  # retired: a no-op, not an OSError
        assert not inbox.backlog
    finally:
        selector.close()


def _flood(network, count):
    return [
        QueryTask(i * 1e-4, i, (i * 13 + 1) % network.num_nodes, 4)
        for i in range(count)
    ]


@pytest.mark.slow
def test_stalled_worker_with_clogged_inbox_is_still_killed(network) -> None:
    """SIGSTOP a worker and submit more than a pipe's worth of batches:
    ``submit`` must return (the overflow waits parent-side), the
    watchdog — which only runs because the parent never blocked — kills
    and respawns the worker, and the drain is oracle-exact."""
    objects = {i: (i * 11 + 5) % network.num_nodes for i in range(10)}
    tasks = _flood(network, 6000)  # ~90 KiB of batches > a 64 KiB pipe
    pool = build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(network), objects,
        mode="process", batch_size=16, health_check_interval=0.01,
        resilience=ResilienceConfig(hedge=False, stall_timeout=0.3),
    )
    victim_pid = None
    try:
        with pool:
            pool.start()
            (state,) = pool._shapes.current.workers.values()
            victim_pid = state.handle.process.pid
            os.kill(victim_pid, signal.SIGSTOP)
            for task in tasks:
                pool.submit(task)
            pool.flush()
            assert state.handle.inbox.backlog, "the pipe took everything"
            answers = pool.drain(timeout=60.0)
            assert pool.metrics.stall_kills >= 1
            assert pool.metrics.respawns >= 1
    finally:
        try:
            os.kill(victim_pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
    assert answers == ok_results(run_serial_reference(
        DijkstraKNN(network), objects, tasks
    ))


@pytest.mark.slow
def test_close_escalates_when_the_stop_cannot_be_flushed(network) -> None:
    """The stop message queues behind a clogged inbox of a SIGSTOPped
    worker: ``close()`` must not wait for it beyond its deadline."""
    pool = build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(network), {1: 0},
        mode="process", batch_size=16,
    )
    pool.start()
    (state,) = pool._shapes.current.workers.values()
    victim_pid = state.handle.process.pid
    os.kill(victim_pid, signal.SIGSTOP)
    for task in _flood(network, 6000):
        pool.submit(task)
    pool.flush()
    assert state.handle.inbox.backlog
    start = time.monotonic()
    pool.close(timeout=1.0)
    assert time.monotonic() - start < 10.0
    with pytest.raises(ProcessLookupError):
        os.kill(victim_pid, signal.SIGCONT)


@pytest.mark.slow
def test_respawns_and_rollback_leak_no_fd_and_lose_no_batch(
    network, workload, oracle
) -> None:
    """20 SIGKILL → respawn rounds, each with a submit racing the kill,
    then one rolled-back ``reconfigure()``: the parent's fd table ends
    where it started and every answer matches the oracle."""

    def open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    rounds = 20
    chunk = len(workload.tasks) // rounds
    bounds = [index * chunk for index in range(rounds)] + [None]
    pool = build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(network),
        workload.initial_objects, mode="process", batch_size=4,
        health_check_interval=0.02, max_respawns=rounds,
    )
    answers = {}
    with pool:
        pool.start()
        before = open_fds()
        for index in range(rounds):
            victim_pid = pool.worker_pids()[(0, 0, index % 2)]
            os.kill(victim_pid, signal.SIGKILL)
            # No wait: the first writes race the worker's death.
            for task in workload.tasks[bounds[index]:bounds[index + 1]]:
                pool.submit(task)
            answers.update(pool.drain(timeout=30.0))
        assert pool.metrics.respawns == rounds
        event = pool.begin_reconfigure(
            MPRConfig(1, 2, 1), trigger="test", warm_timeout=0.0
        )
        pool.submit(QueryTask(1e6, 10**6, 0, 1))
        assert event.outcome == "rolled_back"
        assert len(pool.drain(timeout=30.0)) == 1
        assert open_fds() == before
    assert answers == oracle
