"""Shared-memory graph: lifecycle, pickle-size bound, pool equivalence.

Three contracts from the zero-copy graph layer:

* **Lifecycle** — ``publish_shared_graph`` stamps the network with an
  attach token, pickles become tiny, ``close()`` unlinks exactly once
  and restores by-value pickling; attached copies never unlink.
* **No full-graph pickling** (the ``spawn`` start-method regression):
  the payload a worker receives at startup must stay within a small
  byte bound that could not possibly contain the CSR arrays.
* **Equivalence** — the cross-executor answer guarantee holds under
  both ``fork`` and ``spawn``, including a SIGKILL-respawned worker.
  Only ``spawn`` pickles the worker payload, so only a ``spawn`` pool
  publishes (and its respawn re-attaches) a segment; a ``fork`` pool
  creates none and starts no ``multiprocessing`` resource tracker.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys

import pytest

from repro.graph import (
    RoadNetwork,
    attach_shared_graph,
    grid_network,
    publish_shared_graph,
)
from repro.graph.shortest_path import dijkstra_heapq
from repro.knn import DijkstraKNN
from repro.mpr import MPRConfig, build_executor, run_serial_reference
from repro.workload import generate_workload
from tests.conftest import ok_results


@pytest.fixture(scope="module")
def network():
    return grid_network(24, 24, seed=6)


@pytest.fixture(scope="module")
def workload(network):
    return generate_workload(
        network, num_objects=20, lambda_q=90.0, lambda_u=60.0,
        duration=0.8, seed=29, k=4,
    )


@pytest.fixture(scope="module")
def oracle(network, workload):
    return ok_results(run_serial_reference(
        DijkstraKNN(network), workload.initial_objects, workload.tasks
    ))


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_publish_attach_roundtrip(self, network) -> None:
        handle = publish_shared_graph(network)
        try:
            attached = attach_shared_graph(handle.meta)
            assert attached == network
            assert attached.num_edges == network.num_edges
            # Kernel results over the shared arrays are exact.
            nodes, dists = attached.kernels.sssp(0)
            assert dict(zip(nodes.tolist(), dists.tolist())) == dijkstra_heapq(
                network, 0
            )
        finally:
            handle.close()

    def test_published_pickle_is_token_sized(self, network) -> None:
        plain = len(pickle.dumps(network))
        handle = publish_shared_graph(network)
        try:
            published = len(pickle.dumps(network))
            assert published < 512
            assert published < plain // 100
            clone = pickle.loads(pickle.dumps(network))
            assert clone == network
        finally:
            handle.close()
        assert len(pickle.dumps(network)) == plain

    def test_double_publish_rejected(self, network) -> None:
        handle = publish_shared_graph(network)
        try:
            with pytest.raises(RuntimeError, match="already published"):
                publish_shared_graph(network)
        finally:
            handle.close()

    def test_close_is_idempotent_and_unlinks(self, network) -> None:
        handle = publish_shared_graph(network)
        meta = handle.meta
        handle.close()
        handle.close()
        assert network._shared_meta is None
        with pytest.raises(FileNotFoundError):
            attach_shared_graph(meta)

    def test_attached_network_repickles_as_token(self, network) -> None:
        handle = publish_shared_graph(network)
        try:
            attached = pickle.loads(pickle.dumps(network))
            again = pickle.loads(pickle.dumps(attached))
            assert again == network
        finally:
            handle.close()


# ----------------------------------------------------------------------
# The spawn-cost regression: worker payloads must not embed the graph
# ----------------------------------------------------------------------
class TestWorkerPayloadBound:
    def test_worker_startup_payload_excludes_graph(self, network, workload) -> None:
        """Pickling the exact object the pool ships to a worker must
        stay within a bound far below the CSR arrays' footprint."""
        solution = DijkstraKNN(network, workload.initial_objects)
        baseline = len(pickle.dumps(solution))

        pool = build_executor(
            MPRConfig(1, 1, 1), solution, workload.initial_objects,
            mode="process",
        )
        try:
            pool._transport._publish_graph(solution)
            worker_payload = pickle.dumps(
                solution.spawn(workload.initial_objects)
            )
            indptr, indices, weights = network.csr_arrays
            graph_bytes = indptr.nbytes + indices.nbytes + weights.nbytes
            assert len(worker_payload) < 4096
            assert len(worker_payload) < graph_bytes // 10
            assert len(worker_payload) < baseline // 10
        finally:
            pool.close()


# ----------------------------------------------------------------------
# Cross-executor equivalence with the shared graph (slow lane)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pool_equivalence_with_shared_graph(
    network, workload, oracle, start_method
) -> None:
    published = start_method != "fork"  # only spawn pickles the payload
    with build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(network), workload.initial_objects,
        mode="process", batch_size=8, start_method=start_method,
    ) as pool:
        # The pool owns the segment under spawn; fork creates none.
        assert (pool._transport._shared_graph is not None) == published
        assert (network._shared_meta is not None) == published
        assert pool.run(workload.tasks) == oracle
    assert pool._transport._shared_graph is None  # close() unlinked it
    assert network._shared_meta is None


@pytest.mark.slow
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_respawned_worker_reattaches_shared_graph(
    network, workload, oracle, start_method
) -> None:
    """SIGKILL a worker mid-stream: under ``spawn`` the respawn pickles
    the solution again, which must re-attach the shared segment (not
    re-ship the graph); under ``fork`` it inherits the parent's graph
    and no segment exists.  Either way the answers are the oracle's."""
    half = len(workload.tasks) // 2
    pool = build_executor(
        MPRConfig(2, 1, 1), DijkstraKNN(network), workload.initial_objects,
        mode="process", batch_size=4, start_method=start_method,
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
        # Under spawn the segment survived the death of an attached worker.
        published = start_method != "fork"
        assert (pool._transport._shared_graph is not None) == published
        assert (network._shared_meta is not None) == published
    assert answers == oracle


@pytest.mark.slow
def test_fork_pool_starts_no_resource_tracker() -> None:
    """The segment was the only thing that started ``multiprocessing``'s
    resource-tracker process; a fork pool publishes none, so a fresh
    interpreter running one must end with no tracker started."""
    script = (
        "from multiprocessing import resource_tracker\n"
        "from repro.graph import grid_network\n"
        "from repro.knn import DijkstraKNN\n"
        "from repro.mpr import MPRConfig, build_executor\n"
        "from repro.objects.tasks import QueryTask\n"
        "network = grid_network(12, 12, seed=1)\n"
        "with build_executor(MPRConfig(2, 1, 1), DijkstraKNN(network),\n"
        "                    {1: 3, 2: 40}, mode='process') as pool:\n"
        "    assert pool.run([QueryTask(0.0, 0, 5, 2)])\n"
        "    assert network._shared_meta is None\n"
        "print(resource_tracker._resource_tracker._pid)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "None"


@pytest.mark.slow
def test_borrowed_segment_left_alone(network, workload, oracle) -> None:
    """A pool handed an already-published network must borrow the
    segment and leave its lifecycle to the outer owner."""
    handle = publish_shared_graph(network)
    try:
        with build_executor(
            MPRConfig(1, 2, 1), DijkstraKNN(network),
            workload.initial_objects, mode="process", batch_size=8,
        ) as pool:
            assert pool._transport._shared_graph is None  # borrowed, not owned
            assert pool.run(workload.tasks) == oracle
        assert network._shared_meta is not None  # still published
        attach_shared_graph(handle.meta)  # still attachable
    finally:
        handle.close()
