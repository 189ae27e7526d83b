"""Cross-executor equivalence: oracle vs threads vs process pool.

Section III's correctness requirement — every scheme's execution is
"equivalent to a serial execution in the tasks' arrival order" — is
the contract of :class:`repro.mpr.ProcessPoolService`.  This suite pins it
across every executor substrate at once: randomized seeded task
streams (queries + inserts + deletes) must produce *identical* answers
from the single-threaded oracle, the threaded executor, and the
persistent process pool — all built through
:func:`repro.mpr.api.build_executor` — for several ``(x, y, z)``
arrangements and batch sizes.

Process-spawning cases are marked ``slow`` (see pyproject/ROADMAP for
the fast/full lanes).
"""

from __future__ import annotations

import pytest

from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    ProcessPoolService,
    ResilienceConfig,
    build_executor,
    run_serial_reference,
)
from repro.workload import UpdateMode, generate_workload
from tests.conftest import ok_results

CONFIGS = [
    MPRConfig(1, 3, 1),   # F-Rep shape
    MPRConfig(3, 1, 1),   # F-Part shape
    MPRConfig(2, 2, 1),   # 1MPR shape
    MPRConfig(2, 2, 2),   # multi-layer MPR
]

SEEDS = [101, 202, 303]

#: A policy that is switched on but can never act: no bound, no hedge,
#: no watchdog, no deadline.  It must drive the pool exactly as the
#: default (``resilience=None``) does.
IDLE_POLICY = ResilienceConfig(hedge=False, stall_timeout=None)


def make_workload(network, seed, mode=UpdateMode.RANDOM):
    return generate_workload(
        network, num_objects=15, lambda_q=50.0, lambda_u=60.0,
        duration=0.8, mode=mode, k=4, seed=seed,
    )


@pytest.fixture(scope="module", params=SEEDS)
def stream(request, small_grid):
    return make_workload(small_grid, request.param)


@pytest.fixture(scope="module")
def oracle(small_grid, stream):
    return ok_results(run_serial_reference(
        DijkstraKNN(small_grid), stream.initial_objects, stream.tasks
    ))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.x}x{c.y}x{c.z}")
def test_threaded_matches_oracle(small_grid, stream, oracle, config) -> None:
    executor: ProcessPoolService = build_executor(
        config, DijkstraKNN(small_grid), stream.initial_objects
    )
    with executor:
        assert executor.run(stream.tasks) == oracle


@pytest.mark.slow
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.x}x{c.y}x{c.z}")
def test_process_pool_matches_oracle(small_grid, stream, oracle, config) -> None:
    with build_executor(
        config, DijkstraKNN(small_grid), stream.initial_objects,
        mode="process", batch_size=8,
    ) as pool:
        assert pool.run(stream.tasks) == oracle


@pytest.mark.slow
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.x}x{c.y}x{c.z}")
def test_idle_policy_drives_the_same_data_plane(
    small_grid, stream, oracle, config
) -> None:
    """There is one data plane: the default pool and a pool under an
    idle policy give the oracle's answers through the very same
    messages — batch for batch, partial for partial."""
    ledgers = []
    for resilience in (None, IDLE_POLICY):
        with build_executor(
            config, DijkstraKNN(small_grid), stream.initial_objects,
            mode="process", batch_size=8, resilience=resilience,
        ) as pool:
            assert pool.run(stream.tasks) == oracle
            metrics = pool.metrics
            ledgers.append((
                metrics.batches_sent, metrics.messages_sent,
                metrics.partials_received,
            ))
    assert ledgers[0] == ledgers[1]


@pytest.mark.slow
@pytest.mark.parametrize("batch_size", [1, 3, 64])
def test_process_pool_batch_size_is_transparent(
    small_grid, stream, oracle, batch_size
) -> None:
    """Answers are independent of how dispatch is batched — batch_size
    1 (per-task), a size that splits streams mid-batch, and one larger
    than the whole stream (everything rides on the final flush)."""
    with build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(small_grid),
        stream.initial_objects, mode="process", batch_size=batch_size,
    ) as pool:
        assert pool.run(stream.tasks) == oracle


@pytest.mark.slow
def test_persistent_pool_serves_many_runs(small_grid) -> None:
    """One pool, many run() calls: workers persist, state carries over,
    and the concatenation equals one oracle pass over the full stream."""
    workload = make_workload(small_grid, 77)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    third = len(workload.tasks) // 3
    chunks = [
        workload.tasks[:third],
        workload.tasks[third:2 * third],
        workload.tasks[2 * third:],
    ]
    answers = {}
    with build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(small_grid),
        workload.initial_objects, mode="process", batch_size=5,
    ) as pool:
        pids_before = pool.worker_pids()
        for chunk in chunks:
            answers.update(pool.run(chunk))
        assert pool.worker_pids() == pids_before  # no re-forking between runs
    assert answers == oracle


@pytest.mark.slow
def test_process_pool_taxi_hailing_mode(small_grid) -> None:
    workload = make_workload(small_grid, 55, mode=UpdateMode.TAXI_HAILING)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    with build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(small_grid),
        workload.initial_objects, mode="process", batch_size=6,
    ) as pool:
        assert pool.run(workload.tasks) == oracle


@pytest.mark.slow
def test_flush_mid_stream_preserves_answers(small_grid) -> None:
    """A latency-motivated flush() between submits must not change
    results — only the batch boundaries."""
    workload = make_workload(small_grid, 42)
    oracle = ok_results(run_serial_reference(
        DijkstraKNN(small_grid), workload.initial_objects, workload.tasks
    ))
    with build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(small_grid),
        workload.initial_objects, mode="process", batch_size=50,
    ) as pool:
        for position, task in enumerate(workload.tasks):
            pool.submit(task)
            if position % 7 == 0:
                pool.flush()
        assert pool.drain() == oracle
