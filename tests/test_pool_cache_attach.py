"""Process-pool workers attach the graph from the memmap cache.

When the prototype solution's network is cache-backed, the pool must
skip shared-memory publication entirely — the pickle token makes every
worker ``np.memmap`` the same files — and answers must equal a
fault-free in-memory reference.  That has to hold under fork, spawn,
and respawn-after-SIGKILL (a fresh worker attaches from the token it
got with its replica state, with no publisher left to copy from).
"""

from __future__ import annotations

import os
import pickle
import signal

import pytest

from repro.graph import (
    ContractionHierarchy,
    grid_network,
    load_cached_ch,
    open_cache,
    save_ch_cache,
)
from repro.knn import DijkstraKNN
from repro.mpr import MPRConfig, build_executor, run_serial_reference
from repro.workload import generate_workload

from test_ch import int_network
from tests.conftest import ok_results


@pytest.fixture(scope="module")
def network():
    return grid_network(10, 10, seed=3, name="cache-pool")


@pytest.fixture(scope="module")
def workload(network):
    return generate_workload(
        network, num_objects=15, lambda_q=120.0, lambda_u=80.0,
        duration=1.0, seed=21, k=4,
    )


@pytest.fixture(scope="module")
def oracle(network, workload):
    return ok_results(run_serial_reference(
        DijkstraKNN(network), workload.initial_objects, workload.tasks
    ))


@pytest.fixture()
def cached(network, tmp_path):
    network.save_cache(tmp_path)
    return open_cache(tmp_path)


def _run_pool(cached, workload, start_method: str, **kwargs):
    pool = build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(cached), workload.initial_objects,
        mode="process", batch_size=4, start_method=start_method, **kwargs,
    )
    return pool


def test_fork_workers_attach_without_shm(cached, workload, oracle) -> None:
    with _run_pool(cached, workload, "fork") as pool:
        assert pool._transport._shared_graph is None  # no segment was published
        answers = pool.run(workload.tasks)
    assert answers == oracle
    # The parent's network is still guarded and cache-backed.
    assert cached._cache_meta is not None
    assert not cached.mirrors_allowed


@pytest.mark.slow
def test_spawn_workers_attach_without_shm(cached, workload, oracle) -> None:
    with _run_pool(cached, workload, "spawn") as pool:
        assert pool._transport._shared_graph is None
        answers = pool.run(workload.tasks)
    assert answers == oracle


@pytest.mark.slow
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_respawned_worker_reattaches_from_cache(
    cached, workload, oracle, start_method
) -> None:
    half = len(workload.tasks) // 2
    with _run_pool(
        cached, workload, start_method, health_check_interval=0.02
    ) as pool:
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


# ----------------------------------------------------------------------
# Cache-backed contraction hierarchies in the pool
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def ch_network():
    # Integral weights: ch.exact, so CH-routed answers are bit-identical.
    return int_network(130, 31)


@pytest.fixture(scope="module")
def ch_workload(ch_network):
    return generate_workload(
        ch_network, num_objects=12, lambda_q=120.0, lambda_u=60.0,
        duration=1.0, seed=33, k=4,
    )


@pytest.fixture(scope="module")
def ch_oracle(ch_network, ch_workload):
    return ok_results(run_serial_reference(
        DijkstraKNN(ch_network), ch_workload.initial_objects,
        ch_workload.tasks,
    ))


@pytest.fixture()
def ch_solution(ch_network, tmp_path):
    """A CH-routed solution whose graph *and* hierarchy are cache-backed."""
    ch_network.save_cache(tmp_path)
    cached = open_cache(tmp_path)
    save_ch_cache(ContractionHierarchy(cached, seed=31), tmp_path)
    ch = load_cached_ch(cached)
    # cutoff 0 forces every query through the CH hub-label path.
    return DijkstraKNN(cached, ch=ch, ch_cutoff=0.0)


def _run_ch_pool(solution, workload, start_method: str, **kwargs):
    return build_executor(
        MPRConfig(2, 2, 1), solution, workload.initial_objects,
        mode="process", batch_size=4, start_method=start_method, **kwargs,
    )


def test_ch_solution_ships_tokens_not_arrays(ch_solution) -> None:
    # The replica pickle carries two attach tokens (graph + hierarchy),
    # never the CSR halves — this is what makes worker attach O(1).
    assert len(pickle.dumps(ch_solution)) < 8192


def test_fork_workers_attach_ch_from_cache(
    ch_solution, ch_workload, ch_oracle
) -> None:
    with _run_ch_pool(ch_solution, ch_workload, "fork") as pool:
        assert pool._transport._shared_graph is None
        answers = pool.run(ch_workload.tasks)
    assert answers == ch_oracle


@pytest.mark.slow
def test_spawn_workers_attach_ch_from_cache(
    ch_solution, ch_workload, ch_oracle
) -> None:
    # Spawned children unpickle the replica from scratch: a working CH
    # can only come from the attach token (rebuilding would need the
    # network object that the token equally reconstructs by memmap).
    with _run_ch_pool(ch_solution, ch_workload, "spawn") as pool:
        assert pool._transport._shared_graph is None
        answers = pool.run(ch_workload.tasks)
    assert answers == ch_oracle


@pytest.mark.slow
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_respawned_worker_reattaches_ch(
    ch_solution, ch_workload, ch_oracle, start_method
) -> None:
    half = len(ch_workload.tasks) // 2
    with _run_ch_pool(
        ch_solution, ch_workload, start_method, health_check_interval=0.02
    ) as pool:
        answers = {}
        for task in ch_workload.tasks[:half]:
            pool.submit(task)
        answers.update(pool.drain())
        victim_id, victim_pid = next(iter(pool.worker_pids().items()))
        os.kill(victim_pid, signal.SIGKILL)
        for task in ch_workload.tasks[half:]:
            pool.submit(task)
        answers.update(pool.drain())
        assert pool.metrics.respawns >= 1
        assert pool.worker_pids()[victim_id] != victim_pid
    assert answers == ch_oracle
