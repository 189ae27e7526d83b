"""Smoke-check that the vectorized kernel path is actually taken.

A 60-second-safety version of the kernel sweep: builds a small network,
runs every kernel-backed entry point once, and asserts via the
``KERNEL_CALLS`` diagnostic counters that the array kernels — not the
``heapq`` fallbacks — served them, with answers matching the reference
engines.  Run it after touching the graph layer:

    PYTHONPATH=src python tools/bench_smoke.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.graph import grid_network
from repro.graph.kernels import KERNEL_CALLS
from repro.graph.shortest_path import KERNEL_MIN_NODES, dijkstra, dijkstra_heapq
from repro.knn import DijkstraKNN, IERKNN
from repro.mpr import MPRConfig, build_executor
from repro.objects.tasks import DeleteTask, InsertTask, QueryTask
from repro.obs import Telemetry


def check_batch_path(network, objects, rng) -> int:
    """Assert the process pool serves *interleaved* batches via ``knn_batch``.

    The stream moves an object after every second query, so every
    worker batch interleaves queries with updates: only the whole-batch
    sweep (``DijkstraKNN.run_ops``) keeps the solo ``topk`` kernel out
    of the workers.  Workers increment their own (forked) copy of
    ``KERNEL_CALLS``; with telemetry enabled each batch ack carries the
    child's counter delta and the parent folds it back in, so the
    counters observed here prove which kernel ran inside the worker
    processes.
    """
    before = KERNEL_CALLS.copy()
    tasks: list = []
    for i in range(48):
        tasks.append(
            QueryTask(float(i), i, rng.randrange(network.num_nodes), 5)
        )
        if i % 2:
            mover = rng.choice(sorted(objects))
            tasks.append(DeleteTask(i + 0.25, mover))
            tasks.append(
                InsertTask(i + 0.5, mover, rng.randrange(network.num_nodes))
            )
    telemetry = Telemetry()
    with build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(network), dict(objects),
        mode="process", batch_size=16, telemetry=telemetry,
    ) as pool:
        answers = pool.run(tasks)
    assert len(answers) == 48
    batched = KERNEL_CALLS["knn_batch"] - before["knn_batch"]
    solo = KERNEL_CALLS["topk"] - before["topk"]
    assert solo == 0, (
        f"{solo} worker queries fell back to solo topk searches on an "
        "interleaved stream"
    )
    assert batched == telemetry.counters["exec.batches"] == len(tasks) // 16, (
        "expected exactly one knn_batch sweep per dispatched batch"
    )
    return batched


def main() -> None:
    start = time.perf_counter()
    rng = random.Random(3)
    network = grid_network(48, 48, seed=9, name="smoke")
    assert network.num_nodes >= KERNEL_MIN_NODES, (
        "smoke network must be large enough for free-function delegation"
    )
    objects = {i: rng.randrange(network.num_nodes) for i in range(64)}

    before = dict(KERNEL_CALLS)

    result = dijkstra(network, 0, max_distance=3000.0)
    assert result == dijkstra_heapq(network, 0, max_distance=3000.0)

    knn = DijkstraKNN(network, dict(objects))
    answer = knn.query(7, 5)
    assert len(answer) == 5

    batch = knn.query_batch([7, 7, 9], [5, 5, 3])
    assert batch[0] == answer and batch[1] == answer

    ier = IERKNN(network, dict(objects))
    assert [n.object_id for n in ier.query(7, 5)] == [
        n.object_id for n in answer
    ]
    assert ier.query_batch([7], [5]) == [ier.query(7, 5)]

    pool_batches = check_batch_path(network, objects, rng)
    assert pool_batches > 0, (
        "process pool did not take the knn_batch path (kernel deltas "
        "missing from batch acks?)"
    )

    for counter, entry_points in {
        "sssp": ("dijkstra free function",),
        "topk": ("DijkstraKNN.query",),
        "expander": ("IERKNN.query",),
        "knn_batch": ("query_batch", "process-pool whole-batch sweeps"),
    }.items():
        taken = KERNEL_CALLS[counter] - before.get(counter, 0)
        assert taken > 0, (
            f"kernel path {counter!r} was not taken by {entry_points}"
        )
        print(f"kernel {counter:<9} calls: +{taken}")

    elapsed = time.perf_counter() - start
    print(f"bench-smoke OK ({network.num_nodes} nodes, {elapsed:.2f}s)")


if __name__ == "__main__":
    main()
