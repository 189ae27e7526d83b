"""Resilience layer wired through the executors: deadlines, hedges,
shedding, degraded answers.

The signal-free cases — hedged replica reads racing the original,
admission shedding, deadline accounting — run on thread workers in
tier-1 and on process workers in the slow lane (the ``worker_kind``
fixture); the SIGKILL/SIGSTOP cases (quarantine-and-degrade when a
whole column is down, the stall watchdog) need processes.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.graph import grid_network
from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    QueryResult,
    ResilienceConfig,
    ResultStatus,
    build_executor,
    run_serial_reference,
)
from repro.mpr.chaos import SlowKNN
from repro.objects.tasks import QueryTask
from repro.obs import Telemetry
from tests.conftest import ok_results


@pytest.fixture(scope="module")
def network():
    return grid_network(10, 10, seed=3)


@pytest.fixture(scope="module")
def objects(network):
    return {i: (i * 11 + 5) % network.num_nodes for i in range(40)}


def _queries(network, count, k=4, deadline=None):
    return [
        QueryTask(
            float(i), i, (i * 13 + 1) % network.num_nodes, k,
            deadline=deadline,
        )
        for i in range(count)
    ]


def _oracle(network, objects, tasks):
    return ok_results(
        run_serial_reference(DijkstraKNN(network), dict(objects), tasks)
    )


# ----------------------------------------------------------------------
# Either worker kind
# ----------------------------------------------------------------------
def test_resilient_pool_matches_oracle_without_faults(
    network, objects, worker_kind
) -> None:
    """Resilience on + no faults: answers identical, counters silent."""
    tasks = _queries(network, 16, deadline=30.0)
    with build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(network), objects,
        mode=worker_kind, batch_size=4,
        resilience=ResilienceConfig(max_outstanding=10_000),
    ) as pool:
        answers = pool.run(tasks)
        metrics = pool.metrics
    assert answers == _oracle(network, objects, tasks)
    assert metrics.hedges == 0
    assert metrics.shed == 0
    assert metrics.degraded == 0
    assert metrics.breaker_opens == 0


def test_hedged_queries_race_first_answer_wins(
    network, objects, worker_kind
) -> None:
    """Every replica is slow, so every query hedges to the sibling row;
    both answer eventually — the first wins, the loser's ack is dropped
    as a duplicate, and each trace keeps exactly one execute span."""
    tasks = _queries(network, 8, deadline=0.02)
    telemetry = Telemetry()
    with build_executor(
        MPRConfig(1, 2, 1), SlowKNN(DijkstraKNN(network), delay=0.05),
        objects, mode=worker_kind, batch_size=2, telemetry=telemetry,
        health_check_interval=0.01,
        resilience=ResilienceConfig(stall_timeout=None),
    ) as pool:
        answers = pool.run(tasks)
        metrics = pool.metrics
    assert answers == _oracle(network, objects, tasks)  # every one OK
    assert metrics.hedges >= 1
    assert metrics.deadline_misses >= 1
    # Both rows answered at least one hedged query: the loser is dropped.
    assert metrics.duplicate_acks >= 1
    counters = telemetry.counters
    assert counters["resilience.hedges"] == metrics.hedges
    assert counters["resilience.duplicate_acks"] == metrics.duplicate_acks
    # Exactly one execute span per query (x=1): the duplicate's stamps
    # were skipped, not stitched in as a second span.
    for task in tasks:
        trace = telemetry.trace(task.query_id)
        assert trace is not None
        assert len(trace.stage_spans("execute")) == 1


@pytest.mark.slow
def test_dead_column_degrades_instead_of_hanging(network, objects) -> None:
    """SIGKILL the only replica of one column while its batches are
    buffered: the breaker opens, the batches are quarantined, and the
    drain answers PARTIAL, flagging the dead column — quickly."""
    config = MPRConfig(2, 1, 1)
    tasks = _queries(network, 10)
    with build_executor(
        config, DijkstraKNN(network), objects,
        mode="process", batch_size=4, health_check_interval=0.01,
        resilience=ResilienceConfig(
            breaker_failures=1, backoff_base=30.0, backoff_max=30.0,
        ),
    ) as pool:
        pool.start()
        victim_id = min(pool.worker_pids())  # column 0
        os.kill(pool.worker_pids()[victim_id], signal.SIGKILL)
        for task in tasks:
            pool.submit(task)
        start = time.monotonic()
        answers = pool.drain(timeout=30.0)
        elapsed = time.monotonic() - start
        metrics = pool.metrics
    assert elapsed < 10.0
    assert metrics.breaker_opens >= 1
    assert metrics.degraded == len(tasks)
    dead_column = (victim_id[0], victim_id[2])
    # The degraded answer must be exactly the kNN over the objects the
    # *surviving* column holds (column-restricted oracle).
    from repro.mpr.core_matrix import MPRRouter

    cells = MPRRouter(config).preload_objects(objects)
    survivor = DijkstraKNN(
        network,
        next(
            cell for worker_id, cell in cells.items()
            if (worker_id[0], worker_id[2]) != dead_column
        ),
    )
    for task in tasks:
        assert answers[task.query_id] == QueryResult(
            task.query_id, ResultStatus.PARTIAL,
            tuple(survivor.query(task.location, task.k)), (dead_column,),
        )


def test_admission_sheds_with_typed_overloaded_answers(
    network, objects, worker_kind
) -> None:
    """With a tiny outstanding bound and a batch size that keeps ops
    buffered, the overflow is shed deterministically at submit."""
    tasks = _queries(network, 10)
    telemetry = Telemetry()
    with build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(network), objects,
        mode=worker_kind, batch_size=64, telemetry=telemetry,
        resilience=ResilienceConfig(max_outstanding=4),
    ) as pool:
        answers = pool.run(tasks)
        metrics = pool.metrics
    shed = {
        qid for qid, a in answers.items()
        if a.status is ResultStatus.OVERLOADED
    }
    assert len(shed) == 6  # 4 admitted (loads 1..4), the rest rejected
    assert metrics.shed == 6
    assert telemetry.counters["resilience.shed"] == 6
    oracle = _oracle(network, objects, tasks)
    for task in tasks:
        if task.query_id in shed:
            # The verdict carries the backlog that shed it and the
            # bound — and nothing that could pass for an answer.
            assert answers[task.query_id] == QueryResult(
                task.query_id, ResultStatus.OVERLOADED,
                outstanding=4, bound=4,
            )
        else:
            assert answers[task.query_id] == oracle[task.query_id]


@pytest.mark.slow
def test_stall_watchdog_kills_sigstopped_worker(network, objects) -> None:
    """A SIGSTOPped worker acks nothing: the watchdog converts the
    stall into the crash path and queries still finish correctly."""
    tasks = _queries(network, 8, deadline=0.05)
    pool = build_executor(
        MPRConfig(1, 2, 1), DijkstraKNN(network), objects,
        mode="process", batch_size=2, health_check_interval=0.01,
        resilience=ResilienceConfig(stall_timeout=0.2),
    )
    victim_pid = None
    try:
        with pool:
            pool.start()
            # Stop the victim *before* the first submit: stopped later,
            # it can ack all 8 tiny queries first and never stall.
            victim_pid = next(iter(pool.worker_pids().values()))
            os.kill(victim_pid, signal.SIGSTOP)
            for task in tasks:
                pool.submit(task)
            pool.flush()
            answers = pool.drain(timeout=30.0)
            metrics = pool.metrics
    finally:
        if victim_pid is not None:
            try:
                os.kill(victim_pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
    assert answers == _oracle(network, objects, tasks)
    assert metrics.stall_kills >= 1
    assert metrics.respawns >= 1


def test_default_policy_arms_no_deadline(
    network, objects, worker_kind
) -> None:
    """``resilience=None`` is the same data plane under a policy that
    arms nothing: tasks carrying an unmeetable deadline are neither
    hedged nor counted as misses, and every answer is plain ``OK``."""
    tasks = _queries(network, 8, deadline=0.001)
    with build_executor(
        MPRConfig(1, 2, 1), SlowKNN(DijkstraKNN(network), delay=0.01),
        objects, mode=worker_kind, batch_size=2, health_check_interval=0.01,
    ) as pool:
        answers = pool.run(tasks)
        metrics = pool.metrics
    assert answers == _oracle(network, objects, tasks)
    assert all(type(answer) is QueryResult for answer in answers.values())
    assert metrics.hedges == 0
    assert metrics.deadline_misses == 0
    assert metrics.duplicate_acks == 0


# ----------------------------------------------------------------------
# Thread workers (fast): shedding + deadline accounting
# ----------------------------------------------------------------------
def test_threaded_executor_sheds_on_queue_depth(network, objects) -> None:
    tasks = _queries(network, 8)
    telemetry = Telemetry()
    with build_executor(
        MPRConfig(1, 1, 1), SlowKNN(DijkstraKNN(network), delay=0.03), objects,
        telemetry=telemetry,
        resilience=ResilienceConfig(max_outstanding=1),
    ) as executor:
        answers = executor.run(tasks)
    shed = {
        qid for qid, a in answers.items()
        if a.status is ResultStatus.OVERLOADED
    }
    assert len(answers) == len(tasks)  # every query got *a* verdict
    assert shed  # the burst outran a bound of one queued op
    assert telemetry.counters["resilience.shed"] == len(shed)
    oracle = _oracle(network, objects, tasks)
    for task in tasks:
        if task.query_id not in shed:
            assert answers[task.query_id] == oracle[task.query_id]


def test_threaded_executor_accounts_deadline_misses(network, objects) -> None:
    tasks = _queries(network, 4, deadline=1e-4)
    telemetry = Telemetry()
    with build_executor(
        MPRConfig(1, 1, 1), SlowKNN(DijkstraKNN(network), delay=0.01), objects,
        telemetry=telemetry, resilience=ResilienceConfig(),
    ) as executor:
        answers = executor.run(tasks)
    # No sibling row to hedge to (y=1): answers are complete, and every
    # query is accounted as missed — once per SLO window it outlived.
    assert answers == _oracle(network, objects, tasks)
    misses = executor.metrics.deadline_misses
    assert misses >= len(tasks)
    assert executor.metrics.hedges == 0
    assert telemetry.counters["resilience.deadline_misses"] == misses


def test_threaded_executor_disabled_resilience_has_no_verdicts(
    network, objects
) -> None:
    tasks = _queries(network, 4)
    with build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(network), objects
    ) as executor:
        answers = executor.run(tasks)
        assert executor.metrics.deadline_misses == 0
        assert executor.metrics.shed == 0
    assert answers == _oracle(network, objects, tasks)
    assert all(type(answer) is QueryResult for answer in answers.values())
