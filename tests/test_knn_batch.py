"""Property suite pinning the batched kNN path to the per-query path.

``CSRKernels.knn_batch`` promises answers *bit-identical* to running
``topk_objects`` once per query — same distances, same tie handling —
for any mix of duplicate sources, ``k = 0``, ``k`` beyond the object
count, disconnected graphs, and any ``group_size``.  The solution-level
``query_batch`` overrides (Dijkstra, IER) and the executors' batched
dispatch inherit that guarantee; this suite pins every layer of it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import RoadNetwork, grid_network
from repro.graph.kernels import KERNEL_CALLS, QUERIES_PER_SWEEP
from repro.knn import DijkstraKNN, IERKNN
from repro.mpr import MPRConfig, build_executor, run_serial_reference
from repro.objects.tasks import DeleteTask, InsertTask, QueryTask
from tests.conftest import ok_results, place_objects


def random_network(seed: int, tie_heavy: bool = False) -> RoadNetwork:
    """Random graph, possibly disconnected; integer weights breed ties."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        w = float(rng.randint(1, 4)) if tie_heavy else rng.uniform(0.1, 8.0)
        edges.append((u, v, w))
    return RoadNetwork(n, edges, name=f"rand-{seed}")


def canonical(nodes: np.ndarray, dists: np.ndarray, counts, k: int):
    """The k best ``(distance, node)`` entries with object multiplicity.

    Both the per-query and the batch kernel return a settled superset;
    expanding by per-node object count and sorting yields exactly the
    answer a solution layer derives, so equality here is equality of
    final answers, ties included.
    """
    pairs = []
    for node, distance in zip(nodes.tolist(), dists.tolist()):
        pairs.extend([(distance, node)] * int(counts[node]))
    pairs.sort()
    return pairs[:k]


@st.composite
def batch_case(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    tie_heavy = draw(st.booleans())
    net = random_network(seed, tie_heavy)
    rng = random.Random(seed + 1)
    num_objects = rng.randint(0, 2 * net.num_nodes)
    counts = np.zeros(net.num_nodes, dtype=np.int32)
    for _ in range(num_objects):
        counts[rng.randrange(net.num_nodes)] += 1
    batch = draw(st.integers(min_value=1, max_value=12))
    sources = [
        draw(st.integers(min_value=0, max_value=net.num_nodes - 1))
        for _ in range(batch)
    ]
    ks = [draw(st.integers(min_value=0, max_value=8)) for _ in range(batch)]
    group_size = draw(st.sampled_from([1, 2, 4, 16]))
    return net, counts, sources, ks, group_size


class TestKernelBatchEquivalence:
    @settings(max_examples=220, deadline=None)
    @given(batch_case())
    def test_matches_per_query_topk(self, case) -> None:
        net, counts, sources, ks, group_size = case
        batched = net.kernels.knn_batch(
            sources, ks, counts, group_size=group_size
        )
        assert len(batched) == len(sources)
        for source, k, (nodes, dists) in zip(sources, ks, batched):
            solo_nodes, solo_dists = net.kernels.topk_objects(
                source, counts, k
            )
            assert canonical(nodes, dists, counts, k) == canonical(
                solo_nodes, solo_dists, counts, k
            )

    def test_empty_batch(self) -> None:
        net = random_network(3)
        counts = np.zeros(net.num_nodes, dtype=np.int32)
        assert net.kernels.knn_batch([], [], counts) == []

    def test_counts_kernel_calls(self) -> None:
        net = random_network(5)
        counts = np.ones(net.num_nodes, dtype=np.int32)
        before = KERNEL_CALLS["knn_batch"]
        net.kernels.knn_batch([0, 0], [1, 2], counts)
        assert KERNEL_CALLS["knn_batch"] == before + 1

    def test_rejects_bad_inputs(self) -> None:
        net = random_network(7)
        counts = np.zeros(net.num_nodes, dtype=np.int32)
        with pytest.raises(ValueError):
            net.kernels.knn_batch([0], [1, 2], counts)
        with pytest.raises(ValueError):
            net.kernels.knn_batch([0], [1], counts, group_size=0)
        with pytest.raises(IndexError):
            net.kernels.knn_batch([net.num_nodes], [1], counts)

    def test_buffer_reuse_across_calls(self) -> None:
        """Back-to-back batches on one instance stay bit-identical."""
        net = grid_network(12, 12, seed=9)
        counts = np.zeros(net.num_nodes, dtype=np.int32)
        rng = random.Random(11)
        for _ in range(30):
            counts[rng.randrange(net.num_nodes)] += 1
        sources = [rng.randrange(net.num_nodes) for _ in range(20)]
        ks = [rng.randint(1, 5) for _ in range(20)]
        first = net.kernels.knn_batch(sources, ks, counts, group_size=4)
        second = net.kernels.knn_batch(sources, ks, counts, group_size=4)
        for (n1, d1), (n2, d2) in zip(first, second):
            assert np.array_equal(n1, n2) and np.array_equal(d1, d2)


class TestBalancedGroups:
    """More searches than one sweep holds are cut into ``ceil(n / g)``
    groups whose sizes differ by at most one — never a full group plus
    a solo search — and stay bit-identical to per-query ``topk_objects``
    on the count vector each query is defined to see."""

    @pytest.mark.parametrize("group_size", [4, QUERIES_PER_SWEEP])
    @pytest.mark.parametrize(
        "full, extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
        ids=["g-1", "g", "g+1", "2g+1"],
    )
    def test_group_boundaries(
        self, group_size, full, extra, monkeypatch
    ) -> None:
        n = full * group_size + extra
        net = grid_network(12, 12, seed=9)
        rng = random.Random(n)
        counts = np.zeros(net.num_nodes, dtype=np.int32)
        for _ in range(40):
            counts[rng.randrange(net.num_nodes)] += 1
        current = counts.copy()
        seen_by_version = [current.copy()]
        patches = []
        for _ in range(6):
            node = rng.randrange(net.num_nodes)
            delta = -1 if current[node] > 0 and rng.random() < 0.5 else 1
            current[node] += delta
            patches.append((node, delta))
            seen_by_version.append(current.copy())
        sources = rng.sample(range(net.num_nodes), n)  # n distinct searches
        ks = [rng.randint(1, 6) for _ in range(n)]
        versions = [rng.randint(0, len(patches)) for _ in range(n)]
        kernels = net.kernels
        sizes: list[int] = []
        batch_topk = kernels._batch_topk

        def recording(sources_, *rest):
            sizes.append(len(sources_))
            return batch_topk(sources_, *rest)

        monkeypatch.setattr(kernels, "_batch_topk", recording)
        batched = kernels.knn_batch(
            sources, ks, counts,
            versions=versions, patches=patches, group_size=group_size,
        )
        groups = -(-n // group_size)
        assert len(sizes) == groups and sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        for source, k, version, (nodes, dists) in zip(
            sources, ks, versions, batched
        ):
            seen = seen_by_version[version]
            solo = kernels.topk_objects(source, seen, k)
            assert canonical(nodes, dists, seen, k) == canonical(
                *solo, seen, k
            )

    def test_seventeen_is_nine_plus_eight(self, monkeypatch) -> None:
        net = grid_network(12, 12, seed=9)
        counts = np.ones(net.num_nodes, dtype=np.int32)
        kernels = net.kernels
        sizes: list[int] = []
        batch_topk = kernels._batch_topk
        monkeypatch.setattr(
            kernels, "_batch_topk",
            lambda sources_, *rest: (
                sizes.append(len(sources_)) or batch_topk(sources_, *rest)
            ),
        )
        kernels.knn_batch(list(range(17)), [3] * 17, counts)
        assert sizes == [9, 8]


SOLUTIONS = [DijkstraKNN, IERKNN]


@pytest.mark.parametrize("solution_cls", SOLUTIONS)
class TestSolutionQueryBatch:
    def test_matches_query_loop(self, solution_cls, medium_grid) -> None:
        objects = place_objects(medium_grid, 40, seed=21)
        solution = solution_cls(medium_grid, objects)
        rng = random.Random(31)
        locations = [rng.randrange(medium_grid.num_nodes) for _ in range(25)]
        ks = [rng.choice([0, 1, 3, 10, 100]) for _ in range(25)]
        expected = [
            solution.query(location, k)
            for location, k in zip(locations, ks)
        ]
        assert solution.query_batch(locations, ks) == expected

    def test_duplicate_sources_and_empty(self, solution_cls, small_grid):
        objects = place_objects(small_grid, 10, seed=5)
        solution = solution_cls(small_grid, objects)
        assert solution.query_batch([], []) == []
        locations, ks = [3, 3, 3], [1, 5, 2]
        expected = [solution.query(3, k) for k in ks]
        assert solution.query_batch(locations, ks) == expected

    def test_rejects_length_mismatch(self, solution_cls, small_grid):
        solution = solution_cls(small_grid, place_objects(small_grid, 5))
        with pytest.raises(ValueError):
            solution.query_batch([1, 2], [3])

    def test_sees_updates(self, solution_cls, small_grid) -> None:
        """Counts maintenance: batches reflect inserts and deletes."""
        solution = solution_cls(small_grid, {1: 4})
        baseline = solution.query_batch([4], [3])  # builds lazy counts
        assert [n.object_id for n in baseline[0]] == [1]
        solution.insert(2, 4)
        solution.delete(1)
        [after] = solution.query_batch([4], [3])
        assert [n.object_id for n in after] == [2]
        assert after == solution.query(4, 3)


def test_base_fallback_is_the_query_loop(small_grid) -> None:
    """KNNSolution.query_batch defaults to the per-query loop."""
    from repro.knn.base import KNNSolution

    objects = place_objects(small_grid, 12, seed=3)
    solution = DijkstraKNN(small_grid, objects)
    fallback = KNNSolution.query_batch(solution, [0, 1, 2], [2, 0, 4])
    assert fallback == [
        solution.query(0, 2), solution.query(1, 0), solution.query(2, 4)
    ]
    with pytest.raises(ValueError):
        KNNSolution.query_batch(solution, [0, 1], [1])


class TestExecutorBatchedEquivalence:
    """Batched dispatch returns serial-equivalent answers end to end."""

    def _stream(self, network, rng, queries=40, objects=30):
        placements = place_objects(network, objects, seed=17)
        live = list(placements)
        tasks = []
        time_ = 0.0
        next_object = objects
        for query_id in range(queries):
            time_ += 1.0
            tasks.append(
                QueryTask(
                    time_, query_id,
                    rng.randrange(network.num_nodes), rng.randint(1, 6),
                )
            )
            if query_id % 7 == 3:  # interleave updates as reorder barriers
                time_ += 1.0
                tasks.append(
                    InsertTask(
                        time_, next_object, rng.randrange(network.num_nodes)
                    )
                )
                live.append(next_object)
                next_object += 1
            if query_id % 11 == 5 and live:
                time_ += 1.0
                victim = live.pop(rng.randrange(len(live)))
                tasks.append(DeleteTask(time_, victim))
        return placements, tasks

    def test_threaded_batches_match_serial(self, medium_grid) -> None:
        rng = random.Random(41)
        placements, tasks = self._stream(medium_grid, rng)
        solution = DijkstraKNN(medium_grid)
        expected = run_serial_reference(solution, placements, tasks)
        with build_executor(
            MPRConfig(2, 2, 1), solution, placements, mode="thread"
        ) as executor:
            # Submit everything before workers can drain: the backlog
            # forces the query_batch path in the worker loop.
            answers = executor.run(tasks)
        assert answers == ok_results(expected)

    @pytest.mark.slow
    def test_process_batches_match_serial(self, medium_grid) -> None:
        rng = random.Random(43)
        placements, tasks = self._stream(medium_grid, rng)
        solution = DijkstraKNN(medium_grid)
        expected = run_serial_reference(solution, placements, tasks)
        with build_executor(
            MPRConfig(2, 1, 1), solution, placements,
            mode="process", batch_size=32,
        ) as executor:
            answers = executor.run(tasks)
        assert answers == ok_results(expected)
