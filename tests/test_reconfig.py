"""Live zero-downtime reconfiguration of the pool.

Fast tests cover the decision layer (:mod:`repro.mpr.reconfig`) against
a fake system and drive real thread-worker pools through shape changes
— including the acceptance criterion: a telemetry-triggered transition
under load with zero dropped or incorrect answers.  Their process-worker
variants, and the mid-transition SIGKILL that rolls back without a
serving gap, are ``slow``-marked.
"""

from __future__ import annotations

import functools
import threading
import time

import pytest

from repro.graph import grid_network
from repro.knn import DijkstraKNN
from repro.knn.calibration import AlgorithmProfile, paper_profile
from repro.mpr import (
    RECONFIG_COUNTERS,
    MachineSpec,
    MPRConfig,
    MPRSystem,
    RateEstimator,
    ReconfigEvent,
    ReconfigManager,
    ReconfigPolicy,
    ReconfigRejected,
    ResilienceConfig,
    build_executor,
    run_serial_reference,
)
from repro.mpr.chaos import kill_warming_worker
from repro.mpr.process_executor import ProcessPoolService
from repro.objects.tasks import InsertTask, QueryTask
from repro.obs import Telemetry
from tests.conftest import FakeSystem, ok_results

PROFILE = paper_profile("V-tree", "BJ")
MACHINE = MachineSpec(total_cores=5)


def make_pool(
    telemetry=None, resilience=None, config=MPRConfig(2, 2, 1),
    mode="process",
):
    network = grid_network(8, 8, seed=1)
    base = DijkstraKNN(network)
    objects = {i: (i * 7 + 3) % network.num_nodes for i in range(20)}
    pool = build_executor(
        config, base, objects, mode=mode, batch_size=4,
        telemetry=telemetry if telemetry is not None else Telemetry(),
        resilience=resilience,
    )
    return network, base, objects, pool


def make_tasks(network, count=24, k=4):
    return [
        QueryTask(i * 0.001, i, (i * 37 + 5) % network.num_nodes, k)
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Decision layer (fast)
# ----------------------------------------------------------------------
def test_reconfig_event_serializes_shapes_as_lists() -> None:
    event = ReconfigEvent(
        started_at=1.0,
        old_config=MPRConfig(2, 2, 1),
        new_config=MPRConfig(1, 4, 1),
        trigger="auto",
    )
    event.outcome = "completed"
    event.generation = 1
    event.phases["warm"] = 0.05
    payload = event.to_dict()
    assert payload["old_config"] == [2, 2, 1]
    assert payload["new_config"] == [1, 4, 1]
    assert payload["trigger"] == "auto"
    assert payload["outcome"] == "completed"
    assert payload["phases"] == {"warm": 0.05}


def test_reconfig_counters_registry() -> None:
    assert set(RECONFIG_COUNTERS) == {
        "reconfig.attempts", "reconfig.completed", "reconfig.rollbacks",
        "reconfig.rejected", "reconfig.breaker_open",
        "reconfig.catchup_ops", "reconfig.poll_errors",
    }


def _manager(system, **policy_overrides):
    policy = ReconfigPolicy(
        improvement_threshold=0.05, cooldown=0.0, recalibrate=False,
        **policy_overrides,
    )
    return ReconfigManager(
        system, PROFILE, MACHINE, policy=policy,
        estimator=RateEstimator(window=1.0, alpha=1.0),
    )


def test_manager_triggers_on_rate_drift() -> None:
    system = FakeSystem()
    manager = _manager(system)
    assert manager.poll(now=0.0) is None  # baseline, nothing folded
    system.telemetry.count("router.queries", 30_000)
    system.telemetry.count("router.updates", 100)
    manager.poll(now=0.5)  # capture the delta mid-window: no decision
    assert system.calls == []
    event = manager.poll(now=1.0)  # window folds -> decide -> switch
    assert event is not None and event.trigger == "auto"
    assert system.calls and system.calls[0][0] != MPRConfig(2, 2, 1)
    assert system.config == system.calls[0][0]


def test_manager_tags_pressure_trigger() -> None:
    system = FakeSystem()
    manager = _manager(system)
    manager.poll(now=0.0)
    system.telemetry.count("router.queries", 30_000)
    system.telemetry.count("resilience.shed", 5)
    event = manager.poll(now=1.0)
    assert event is not None
    assert event.trigger == "auto+pressure"


def test_manager_swallows_rejection() -> None:
    system = FakeSystem(outcomes=["rejected"])
    manager = _manager(system)
    manager.poll(now=0.0)
    system.telemetry.count("router.queries", 30_000)
    assert manager.poll(now=1.0) is None  # rejected -> kept shape


def _wait_until(done, budget=10.0) -> None:
    deadline = time.monotonic() + budget
    while not done() and time.monotonic() < deadline:
        time.sleep(0.002)
    assert done(), "the background loop never got there"


def _deciding_manager(system):
    """A manager that proposes a switch on every poll once its first
    (1 ms) window has closed, whatever the rates: with a near-zero
    ``tq`` the serving (2, 2, 1)'s two partitions of scheduling and
    merging are most of Rq, so an x = 1 optimum always clears the
    threshold — and the systems below never adopt it."""
    return ReconfigManager(
        system,
        AlgorithmProfile("instant", tq=1e-9, vq=0.0, tu=1e-9, vu=0.0),
        MACHINE,
        policy=ReconfigPolicy(
            improvement_threshold=0.05, cooldown=0.0, recalibrate=False,
        ),
        estimator=RateEstimator(window=1e-3, alpha=1.0),
    )


def test_manager_loop_counts_and_survives_a_failing_reconfigure() -> None:
    """The loop used to ``except Exception: pass``: an auto-reconfigure
    that died on every poll was invisible."""

    class Broken(FakeSystem):
        def reconfigure(self, new_config, **kwargs):
            raise RuntimeError("boom")

    system = Broken()
    manager = _deciding_manager(system)
    manager.start(interval=0.002)
    try:
        _wait_until(lambda: manager.poll_errors >= 2)
        assert manager._thread.is_alive()  # the loop survived both
        assert isinstance(manager.last_error, RuntimeError)
        assert manager.last_error.__traceback__ is not None
    finally:
        manager.stop()
    assert system.telemetry.counters["reconfig.poll_errors"] == manager.poll_errors


def test_manager_loop_does_not_count_a_rejection_as_an_error() -> None:
    attempts: list[MPRConfig] = []

    class Rejecting(FakeSystem):
        def reconfigure(self, new_config, **kwargs):
            attempts.append(new_config)
            raise ReconfigRejected("breaker open")

    system = Rejecting()
    manager = _deciding_manager(system)
    manager.start(interval=0.002)
    try:
        _wait_until(lambda: len(attempts) >= 2)
    finally:
        manager.stop()
    assert manager.poll_errors == 0 and manager.last_error is None
    assert "reconfig.poll_errors" not in system.telemetry.counters


def test_manager_refuses_a_system_whose_telemetry_is_disabled() -> None:
    """A bare ``build_executor`` holds ``NULL_TELEMETRY``: its router
    counters read 0 forever, so the loop used to estimate λq = λu = 0
    and silently never act."""
    base = DijkstraKNN(grid_network(8, 8, seed=1))
    pool = build_executor(MPRConfig(2, 2, 1), base, {1: 3}, mode="thread")
    with pytest.raises(ValueError, match="telemetry is disabled"):
        ReconfigManager(pool, PROFILE, MACHINE)
    pool.close()


def test_manager_stop_keeps_a_loop_that_has_not_ended(monkeypatch) -> None:
    """``stop()`` used to forget the thread after its join timed out (a
    ``reconfigure()`` may block for the warm timeout plus the settle);
    the next ``start()`` cleared the stop flag, reviving the old loop
    beside a second one."""
    entered, release = threading.Event(), threading.Event()

    class Blocking(FakeSystem):
        def reconfigure(self, new_config, **kwargs):
            entered.set()
            release.wait(timeout=30)
            raise ReconfigRejected("breaker open")

    manager = _deciding_manager(Blocking())
    manager.start(interval=0.002)
    loop = manager._thread
    try:
        assert entered.wait(timeout=10)
        # stop()'s join times out (here: at once) with the poll still
        # inside reconfigure().
        monkeypatch.setattr(loop, "join", lambda timeout=None: None)
        manager.stop()
        assert manager._thread is loop and loop.is_alive()
        with pytest.raises(RuntimeError, match="has not ended"):
            manager.start(interval=0.002)
    finally:
        release.set()
    _wait_until(lambda: not loop.is_alive())  # the stop flag held
    manager.stop()
    assert manager._thread is None
    manager.start(interval=0.002)  # a fresh loop may start now
    assert manager._thread is not loop
    manager.stop()
    assert manager._thread is None


def test_system_stats_surface_the_manager_loops_errors() -> None:
    base = DijkstraKNN(grid_network(8, 8, seed=1))
    with MPRSystem(MPRConfig(2, 2, 1), base, {1: 3}, mode="thread") as system:
        assert "auto_reconfigure" not in system.stats()
        manager = system.enable_auto_reconfigure(PROFILE, MACHINE)
        assert system.stats()["auto_reconfigure"] == {
            "poll_errors": 0, "last_error": None,
        }
        manager.poll_errors, manager.last_error = 3, RuntimeError("boom")
        assert system.stats()["auto_reconfigure"] == {
            "poll_errors": 3, "last_error": "RuntimeError('boom')",
        }


def test_manager_keeps_shape_on_steady_rates() -> None:
    system = FakeSystem(config=MPRConfig(1, 4, 1))
    manager = _manager(system)
    manager.poll(now=0.0)
    for step in range(1, 4):
        system.telemetry.count("router.queries", 30_000)
        system.telemetry.count("router.updates", 100)
        manager.poll(now=float(step))
    # (1, 4, 1) is already the query-heavy optimum here: no calls.
    assert system.calls == []


# ----------------------------------------------------------------------
# Live pool (thread workers fast, process workers slow)
# ----------------------------------------------------------------------
def test_manual_reconfigure_under_load_is_oracle_exact(worker_kind) -> None:
    network, base, objects, pool = make_pool(mode=worker_kind)
    tasks = make_tasks(network)
    with pool:
        for task in tasks[: len(tasks) // 2]:
            pool.submit(task)
        event = pool.reconfigure(MPRConfig(3, 1, 1), trigger="test")
        assert event.outcome == "completed"
        assert event.inflight_at_cutover is not None
        assert pool.config == MPRConfig(3, 1, 1)
        assert pool.generation == 1
        for task in tasks[len(tasks) // 2:]:
            pool.submit(task)
        answers = pool.drain()
    oracle = ok_results(run_serial_reference(base, objects, tasks))
    assert answers == oracle
    history = pool.reconfig_history
    assert [e.outcome for e in history] == ["completed"]
    assert "warm" in history[0].phases


def test_updates_survive_the_cutover(worker_kind) -> None:
    """Catch-up feed: updates submitted mid-transition must be visible
    to queries answered by the new shape."""
    network, base, objects, pool = make_pool(mode=worker_kind)
    tasks = [InsertTask(0.0, 900 + i, (i * 11) % network.num_nodes)
             for i in range(6)]
    tasks += make_tasks(network, count=18)
    with pool:
        for task in tasks[:3]:
            pool.submit(task)
        event = pool.reconfigure(MPRConfig(1, 4, 1), trigger="test")
        assert event.outcome == "completed"
        for task in tasks[3:]:
            pool.submit(task)
        answers = pool.drain()
    assert answers == ok_results(run_serial_reference(base, objects, tasks))


@pytest.mark.slow
def test_kill_warming_worker_rolls_back_without_serving_gap() -> None:
    telemetry = Telemetry()
    network, base, objects, pool = make_pool(
        telemetry=telemetry, resilience=ResilienceConfig(
            default_deadline=30.0, stall_timeout=30.0,
        ),
    )
    tasks = make_tasks(network, count=20)
    with pool:
        for task in tasks[:10]:
            pool.submit(task)
        event = pool.begin_reconfigure(
            MPRConfig(1, 2, 1), trigger="test", warm_timeout=10.0
        )
        kill_warming_worker(pool)
        # The old shape keeps serving while the rollback lands.
        for task in tasks[10:]:
            pool.submit(task)
        answers = pool.drain()
        deadline = time.monotonic() + 10.0
        while event.outcome == "pending":
            assert time.monotonic() < deadline
            pool.submit(QueryTask(0.0, 10_000, 0, 1))
            answers.update(pool.drain())
        answers.pop(10_000, None)
    assert event.outcome == "rolled_back"
    assert "died" in (event.reason or "")
    assert pool.generation == 0
    assert pool.config == MPRConfig(2, 2, 1)
    oracle = ok_results(run_serial_reference(base, objects, tasks))
    assert {qid: answers[qid] for qid in oracle} == oracle
    assert telemetry.counters.get("reconfig.rollbacks", 0) == 1


@pytest.mark.slow
def test_repeated_rollbacks_trip_the_reconfig_breaker() -> None:
    network, base, objects, pool = make_pool(
        resilience=ResilienceConfig(default_deadline=30.0),
    )
    with pool:
        pool.start()
        for _ in range(2):
            event = pool.begin_reconfigure(
                MPRConfig(1, 2, 1), trigger="test", warm_timeout=10.0
            )
            kill_warming_worker(pool)
            deadline = time.monotonic() + 10.0
            while event.outcome == "pending":
                assert time.monotonic() < deadline
                pool.submit(QueryTask(0.0, 20_000, 0, 1))
                pool.drain()
        with pytest.raises(ReconfigRejected):
            pool.begin_reconfigure(MPRConfig(1, 2, 1), trigger="test")
    outcomes = [e.outcome for e in pool.reconfig_history]
    assert outcomes == ["rolled_back", "rolled_back", "rejected"]


def test_rolled_back_thread_transition_leaves_no_worker_thread() -> None:
    """A thread cannot be killed, only told to stop: a rollback must
    still leave no warming ``w-core`` thread behind, and ``close()``
    none at all."""
    def w_cores():
        return {
            thread for thread in threading.enumerate()
            if thread.name.startswith("w-core")
        }

    before = w_cores()  # other tests' unclosed executors, if any
    network, base, objects, pool = make_pool(mode="thread")
    with pool:
        pool.start()
        serving = w_cores() - before
        assert len(serving) == 4
        # No pump runs between begin and the submit's supervision step,
        # so no probe is acked and a zero warm budget has expired.
        event = pool.begin_reconfigure(
            MPRConfig(1, 2, 1), trigger="test", warm_timeout=0.0
        )
        assert len(w_cores() - before) == 6
        pool.submit(QueryTask(0.0, 1, 0, 1))
        assert event.outcome == "rolled_back"
        assert "timed out" in event.reason
        assert w_cores() - before == serving
        assert pool.drain() == ok_results(run_serial_reference(
            base, objects, [QueryTask(0.0, 1, 0, 1)]
        ))
    assert w_cores() - before == set()
    assert pool.worker_pids() == {}  # nothing to signal


def test_same_shape_is_rejected_before_any_work(worker_kind) -> None:
    network, base, objects, pool = make_pool(mode=worker_kind)
    with pool:
        pool.start()
        with pytest.raises(ReconfigRejected):
            pool.begin_reconfigure(MPRConfig(2, 2, 1), trigger="test")
    assert [e.outcome for e in pool.reconfig_history] == ["rejected"]
    assert pool.generation == 0


def test_back_to_back_transitions_reap_the_drained_fleet(worker_kind) -> None:
    """Nothing pumps between the two calls, so the first cutover's old
    workers owe no answers but were never told to stop: the second
    transition stops and reaps them instead of refusing."""
    network, base, objects, pool = make_pool(mode=worker_kind)
    tasks = make_tasks(network, count=12)
    with pool:
        for task in tasks:
            pool.submit(task)
        answers = pool.drain()
        first = pool.reconfigure(MPRConfig(1, 2, 1), trigger="test")
        second = pool.reconfigure(MPRConfig(2, 1, 1), trigger="test")
        assert pool.generation == 2
        assert "retire" in first.phases
    assert [first.outcome, second.outcome] == ["completed", "completed"]
    assert answers == ok_results(run_serial_reference(base, objects, tasks))


def test_fleet_owing_answers_still_refuses_the_next_transition() -> None:
    """The reaping stops at workers with pre-cutover work in flight."""
    network = grid_network(8, 8, seed=1)
    gate = threading.Event()

    class GatedKNN(DijkstraKNN):
        def spawn(self, objects):
            return GatedKNN(self._network, objects)

        def run_ops(self, ops, op_timings=None):
            if ops:  # probes (no ops) pass, so the new shape warms
                gate.wait(timeout=30)
            return super().run_ops(ops, op_timings)

    objects = {i: (i * 7 + 3) % network.num_nodes for i in range(20)}
    tasks = make_tasks(network, count=8)
    pool = build_executor(
        MPRConfig(2, 2, 1), GatedKNN(network), objects,
        mode="thread", batch_size=1,
    )
    with pool:
        try:
            for task in tasks:
                pool.submit(task)
            pool.reconfigure(MPRConfig(1, 2, 1), trigger="test")
            with pytest.raises(ReconfigRejected, match="still retiring"):
                pool.reconfigure(MPRConfig(2, 1, 1), trigger="test")
        finally:
            gate.set()
        answers = pool.drain()
        third = pool.reconfigure(MPRConfig(2, 1, 1), trigger="test")
    assert third.outcome == "completed"
    assert answers == ok_results(run_serial_reference(
        DijkstraKNN(network), objects, tasks
    ))


def test_telemetry_triggered_change_under_load_acceptance(
    worker_kind, monkeypatch
) -> None:
    """Acceptance: the manager watches live counters and reshapes the
    pool mid-stream; every answer stays oracle-exact, none dropped."""
    from repro.validation import reconfig_soak, run_reconfig_soak

    if worker_kind == "thread":
        # The soak builds its own (process) pool; same pool, other kind.
        monkeypatch.setattr(
            reconfig_soak, "ProcessPoolService",
            functools.partial(ProcessPoolService, start_method="thread"),
        )
    report = run_reconfig_soak(
        phases=(("query-heavy", 200, 1), ("update-heavy", 10, 150)),
        min_auto_changes=1,
    )
    assert report.ok, report.violations
    assert report.dropped == 0 and report.mismatches == 0
    assert report.auto_changes >= 1
    assert all(t["outcome"] == "completed" for t in report.transitions)


def test_mpr_system_reconfigures_through_the_pump(worker_kind) -> None:
    network = grid_network(8, 8, seed=1)
    base = DijkstraKNN(network)
    objects = {i: (i * 7 + 3) % network.num_nodes for i in range(20)}
    tasks = make_tasks(network, count=16)
    with MPRSystem(
        MPRConfig(2, 2, 1), base, objects, mode=worker_kind, batch_size=4,
    ) as system:
        futures = [system.submit_async(task) for task in tasks[:8]]
        event = system.reconfigure(MPRConfig(3, 1, 1), trigger="test")
        assert event.outcome == "completed"
        futures += [system.submit_async(task) for task in tasks[8:]]
        results = [future.result(timeout=30.0) for future in futures]
    oracle = ok_results(run_serial_reference(base, objects, tasks))
    assert {result.query_id: result for result in results} == oracle
    history = system.reconfig_history
    assert [e.outcome for e in history] == ["completed"]
    stats = system.stats()
    assert stats["reconfigurations"][0]["new_config"] == [3, 1, 1]
    assert "reconfigurations:" in system.report()


def test_enable_auto_reconfigure_manual_poll(worker_kind) -> None:
    network = grid_network(8, 8, seed=1)
    base = DijkstraKNN(network)
    objects = {i: (i * 7 + 3) % network.num_nodes for i in range(20)}
    with MPRSystem(
        MPRConfig(2, 2, 1), base, objects, mode=worker_kind, batch_size=4,
    ) as system:
        system.start()
        manager = system.enable_auto_reconfigure(
            PROFILE, MACHINE,
            policy=ReconfigPolicy(
                improvement_threshold=0.05, cooldown=0.0,
                recalibrate=False,
            ),
            estimator=RateEstimator(window=0.01, alpha=1.0),
        )
        manager.poll(now=0.0)
        for task in make_tasks(network, count=300, k=2):
            system.executor.submit(task)
        manager.poll(now=0.005)
        event = manager.poll(now=0.01)
        system.executor.drain()
    assert event is not None and event.outcome == "completed"
    assert event.trigger == "auto"
    assert system.config != MPRConfig(2, 2, 1)
