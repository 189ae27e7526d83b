"""The unified construction API: build_executor, MPRSystem.

Pins the API's contract: one entry point builds the one executor over
either worker kind, construction is warning-free everywhere, telemetry
threads through whichever kind is chosen, and MPRSystem's task surface
(submit_async/run_results) returns QueryResult envelopes.
"""

from __future__ import annotations

import time

import pytest

from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    MPRSystem,
    ProcessPoolService,
    build_executor,
    run_serial_reference,
)
from repro.mpr import QueryResult, ResultStatus
from repro.mpr.api import EXECUTOR_MODES
from repro.objects.tasks import QueryTask
from repro.obs import NULL_TELEMETRY, TRACE_STAGES, Telemetry
from repro.workload import UpdateMode, generate_workload
from tests.conftest import gated_solution, ok_results

CONFIG = MPRConfig(2, 2, 1)


def make_workload(network, seed=11):
    return generate_workload(
        network, num_objects=12, lambda_q=40.0, lambda_u=50.0,
        duration=0.6, mode=UpdateMode.RANDOM, k=4, seed=seed,
    )


# ----------------------------------------------------------------------
# build_executor
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_facade_builds_thread_executor_without_warning(small_grid) -> None:
    executor = build_executor(CONFIG, DijkstraKNN(small_grid))
    # Thread mode is the same class as process mode, not a second one.
    assert type(executor) is ProcessPoolService
    assert executor.config == CONFIG
    assert executor.telemetry is NULL_TELEMETRY
    executor.close()


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_facade_builds_process_executor_without_warning(small_grid) -> None:
    executor = build_executor(
        CONFIG, DijkstraKNN(small_grid), mode="process", batch_size=4
    )
    assert isinstance(executor, ProcessPoolService)
    assert executor.config == CONFIG
    assert executor.telemetry is NULL_TELEMETRY
    executor.close()  # never started; close is safe and idempotent


def test_facade_threads_telemetry_through(small_grid) -> None:
    telemetry = Telemetry()
    executor = build_executor(
        CONFIG, DijkstraKNN(small_grid), telemetry=telemetry
    )
    assert executor.telemetry is telemetry
    executor.close()


def test_facade_rejects_unknown_mode(small_grid) -> None:
    with pytest.raises(ValueError, match="unknown executor mode"):
        build_executor(CONFIG, DijkstraKNN(small_grid), mode="quantum")
    assert EXECUTOR_MODES == ("thread", "process")


def test_facade_rejects_invariants_in_process_mode(small_grid) -> None:
    """Nothing to reject any more: the Section IV-A invariants are
    checked against the acked cells, which process workers have too."""
    workload = make_workload(small_grid)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    with build_executor(
        CONFIG, DijkstraKNN(small_grid), workload.initial_objects,
        mode="process", check_invariants=True,
    ) as pool:
        assert pool.run(workload.tasks) == oracle
        # The check reads real state: corrupt one replica's cell and it trips.
        next(iter(pool._shapes.current.workers.values())).cell[10_000] = 0
        with pytest.raises(AssertionError):
            pool.run([])


def test_thread_executor_via_facade_matches_oracle(small_grid) -> None:
    workload = make_workload(small_grid)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    with build_executor(
        CONFIG, DijkstraKNN(small_grid), workload.initial_objects,
        check_invariants=True,
    ) as executor:
        assert executor.run(workload.tasks) == oracle


@pytest.mark.slow
def test_process_executor_via_facade_matches_oracle(small_grid) -> None:
    workload = make_workload(small_grid)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    with build_executor(
        CONFIG, DijkstraKNN(small_grid), workload.initial_objects,
        mode="process", batch_size=4,
    ) as pool:
        assert pool.run(workload.tasks) == oracle


# ----------------------------------------------------------------------
# Direct construction is warning-free (the deprecation shims are gone)
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_direct_constructors_no_longer_warn(small_grid) -> None:
    executor = ProcessPoolService(
        DijkstraKNN(small_grid), CONFIG, {}, start_method="thread"
    )
    executor.close()
    pool = ProcessPoolService(DijkstraKNN(small_grid), CONFIG, {})
    pool.close()  # never started


def test_one_shot_process_wrapper_is_gone() -> None:
    """The PR-1-era one-shot wrapper left with the shims."""
    import repro.mpr as mpr
    import repro.mpr.process_executor as pe

    assert not hasattr(pe, "ProcessMPRExecutor")
    assert "ProcessMPRExecutor" not in mpr.__all__


def test_direct_construction_behaves_like_the_facade_product(
    small_grid,
) -> None:
    """Direct construction builds the same object the facade does —
    just without the facade's defaulting conveniences."""
    workload = make_workload(small_grid, seed=23)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    executor = ProcessPoolService(
        DijkstraKNN(small_grid), CONFIG, workload.initial_objects,
        start_method="thread",
    )
    with executor:
        assert executor.run(workload.tasks) == oracle


# ----------------------------------------------------------------------
# MPRSystem
# ----------------------------------------------------------------------
def test_mpr_system_defaults_to_enabled_telemetry(small_grid) -> None:
    workload = make_workload(small_grid)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    with MPRSystem(
        CONFIG, DijkstraKNN(small_grid), workload.initial_objects
    ) as system:
        results = system.run_results(workload.tasks)
    assert results == oracle
    assert system.telemetry.enabled
    assert system.config == CONFIG

    stats = system.stats()
    assert set(TRACE_STAGES) <= set(stats["stages"])
    assert stats["traces"]["retained"] == workload.num_queries
    assert stats["traces"]["complete"] == workload.num_queries

    report = system.report()
    for column in ("stage", "p50", "p95", "p99"):
        assert column in report
    for stage in TRACE_STAGES:
        assert stage in report


def test_mpr_system_accepts_external_telemetry(small_grid) -> None:
    telemetry = Telemetry(max_traces=4)
    system = MPRSystem(
        CONFIG, DijkstraKNN(small_grid), telemetry=telemetry
    )
    assert system.telemetry is telemetry
    assert system.executor.telemetry is telemetry
    system.close()


def test_mpr_system_streaming_lifecycle(small_grid) -> None:
    workload = make_workload(small_grid, seed=31)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    system = MPRSystem(
        CONFIG, DijkstraKNN(small_grid), workload.initial_objects
    )
    system.start()
    futures = [(task, system.submit_async(task)) for task in workload.tasks]
    answers = {
        task.query_id: future.result(timeout=30)
        for task, future in futures
        if task.kind.value == "query"
    }
    system.close()
    assert answers == oracle


# ----------------------------------------------------------------------
# repro.cli stats
# ----------------------------------------------------------------------
def test_cli_stats_prints_percentiles(capsys) -> None:
    from repro.cli import main

    code = main([
        "stats", "--mode", "thread", "--grid", "8", "--objects", "15",
        "--lambda-q", "60", "--lambda-u", "60", "--duration", "0.5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    for column in ("p50", "p95", "p99"):
        assert column in out
    for stage in TRACE_STAGES:
        assert stage in out


# ----------------------------------------------------------------------
# The async surface: submit_async futures + QueryResult envelopes
# ----------------------------------------------------------------------
def test_submit_async_matches_oracle_and_locks_batch_surface(
    small_grid,
) -> None:
    workload = make_workload(small_grid, seed=41)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    system = MPRSystem(
        CONFIG, DijkstraKNN(small_grid), workload.initial_objects
    )
    try:
        futures = [
            (task, system.submit_async(task)) for task in workload.tasks
        ]
        answers = {}
        for task, future in futures:
            outcome = future.result(timeout=30)
            if task.kind.value == "query":
                assert isinstance(outcome, QueryResult)
                assert outcome.status is ResultStatus.OK
                answers[task.query_id] = outcome
            else:
                assert outcome is None
        assert answers == oracle
        # The pump owns the executor now, and nothing on the facade
        # can reach around it: the blocking cycle lives on
        # ``system.executor`` only.
        for name in ("submit", "flush", "drain", "run"):
            assert not hasattr(system, name)
    finally:
        system.close()


def test_run_results_envelopes_without_pump(small_grid) -> None:
    """Un-pumped, ``run_results`` *is* ``executor.run``; once the pump
    owns the executor it goes through the futures — the same envelopes
    either way."""
    workload = make_workload(small_grid, seed=43)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    with MPRSystem(
        CONFIG, DijkstraKNN(small_grid), workload.initial_objects
    ) as system:
        results = system.run_results(workload.tasks)
    assert results == oracle
    first, rest = workload.tasks[0], workload.tasks[1:]
    with MPRSystem(
        CONFIG, DijkstraKNN(small_grid), workload.initial_objects
    ) as system:
        head = system.submit_async(first).result(timeout=30)  # starts the pump
        pumped = system.run_results(rest)
    if head is not None:
        pumped[first.query_id] = head
    assert pumped == results


def test_thread_mode_pump_times_out_a_stuck_worker(small_grid) -> None:
    """``drain(timeout=)`` is honoured, so a worker thread that never
    finishes costs its queries a ``TIMEOUT`` envelope after the pump's
    drain timeout — not a hung future — and, every item of the cycle
    being stuck, the pump spends no follow-up drain on nobody."""
    solution, gate = gated_solution(small_grid)
    system = MPRSystem(
        MPRConfig(1, 1, 1), solution, {1: 0},
        pump_drain_timeout=0.2,
    )
    drains = []
    real_drain = system.executor.drain

    def counting_drain(timeout=None):
        drains.append(timeout)
        return real_drain(timeout=timeout)

    system.executor.drain = counting_drain
    try:
        started = time.monotonic()
        result = system.submit_async(QueryTask(0.0, 7, 3, 1)).result(timeout=10)
        assert result.status is ResultStatus.TIMEOUT
        assert "7" in result.detail
        assert time.monotonic() - started < 5.0
        # The future resolves before the parent's 1 s salvage drain
        # would have returned; give that drain time to be *called*.
        time.sleep(0.05)
        assert drains == [0.2]
    finally:
        gate.set()  # let the worker finish so close() can join it
        system.close()


def test_submit_async_after_close_raises(small_grid) -> None:
    workload = make_workload(small_grid, seed=47)
    system = MPRSystem(
        CONFIG, DijkstraKNN(small_grid), workload.initial_objects
    )
    future = system.submit_async(workload.tasks[0])
    future.result(timeout=30)
    system.close()
    assert system._pump is None
