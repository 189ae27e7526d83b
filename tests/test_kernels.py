"""Property suite pinning the vectorized kernels to the heapq engines.

The delta-stepping kernels in :mod:`repro.graph.kernels` promise
*bit-for-bit identical* results to the classic ``heapq`` reference
engines — same distances, same settled sets, same multi-source owner
tie-breaking, same top-k answers including ties.  This suite pins that
promise on seeded random graphs (connected and disconnected, float and
integer weights, heavy ties), plus the bounded and multi-source
variants, buffer reuse across calls, Dial mode, and the incremental
expander.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import RoadNetwork
from repro.graph.kernels import KERNEL_CALLS, CSRKernels, dial_delta
from repro.graph.shortest_path import (
    KERNEL_MIN_NODES,
    dijkstra,
    dijkstra_expansion,
    dijkstra_heapq,
    multi_source_dijkstra_heapq,
)
from repro.knn import IERKNN, DijkstraKNN
from tests.conftest import place_objects


def random_network(seed: int, tie_heavy: bool = False) -> RoadNetwork:
    """Random graph, possibly disconnected; integer weights breed ties."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if tie_heavy:
            w = float(rng.randint(1, 4))
        else:
            w = rng.uniform(0.1, 8.0)
        edges.append((u, v, w))
    return RoadNetwork(n, edges, name=f"rand-{seed}")


def as_dict(nodes: np.ndarray, values: np.ndarray) -> dict:
    return dict(zip(nodes.tolist(), values.tolist()))


@st.composite
def network_and_source(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    tie_heavy = draw(st.booleans())
    net = random_network(seed, tie_heavy)
    source = draw(st.integers(min_value=0, max_value=net.num_nodes - 1))
    return net, source


class TestSSSPEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(network_and_source())
    def test_exactly_matches_heapq(self, net_source) -> None:
        net, source = net_source
        reference = dijkstra_heapq(net, source)
        nodes, dists = net.kernels.sssp(source)
        assert as_dict(nodes, dists) == reference

    @settings(max_examples=80, deadline=None)
    @given(network_and_source(), st.floats(min_value=0.0, max_value=20.0))
    def test_bounded_matches_heapq(self, net_source, bound) -> None:
        net, source = net_source
        reference = dijkstra_heapq(net, source, max_distance=bound)
        nodes, dists = net.kernels.sssp(source, max_distance=bound)
        assert as_dict(nodes, dists) == reference

    def test_disconnected_components_absent(self) -> None:
        net = RoadNetwork(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)])
        nodes, dists = net.kernels.sssp(0)
        assert as_dict(nodes, dists) == {0: 0.0, 1: 1.0, 2: 3.0}

    def test_buffer_reuse_is_clean_across_calls(self) -> None:
        net = random_network(421)
        kern = net.kernels
        for source in range(min(net.num_nodes, 12)):
            reference = dijkstra_heapq(net, source)
            nodes, dists = kern.sssp(source)
            assert as_dict(nodes, dists) == reference
            # Interleave bounded searches to dirty the touched set.
            bounded_nodes, bounded_dists = kern.sssp(source, max_distance=2.5)
            assert as_dict(bounded_nodes, bounded_dists) == dijkstra_heapq(
                net, source, max_distance=2.5
            )


class TestMultiSourceEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        network_and_source(),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=9999),
    )
    def test_dists_and_owner_tiebreak_match_heapq(
        self, net_source, num_sources, pick_seed
    ) -> None:
        net, _ = net_source
        rng = random.Random(pick_seed)
        sources = [
            rng.randrange(net.num_nodes)
            for _ in range(min(num_sources, net.num_nodes))
        ]
        ref_dist, ref_owner = multi_source_dijkstra_heapq(net, sources)
        nodes, dists, owners = net.kernels.sssp_multi(sources, with_owners=True)
        assert as_dict(nodes, dists) == ref_dist
        assert as_dict(nodes, owners) == ref_owner

    def test_empty_sources(self) -> None:
        net = random_network(5)
        nodes, dists = net.kernels.sssp_multi([])
        assert len(nodes) == 0 and len(dists) == 0

    def test_bounded_multi_source(self) -> None:
        net = random_network(77)
        sources = [0, net.num_nodes - 1]
        ref_dist, _ = multi_source_dijkstra_heapq(net, sources, max_distance=3.0)
        nodes, dists = net.kernels.sssp_multi(sources, max_distance=3.0)
        assert as_dict(nodes, dists) == ref_dist


class TestTopKEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        network_and_source(),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=9999),
    )
    def test_topk_matches_heapq_expansion(self, net_source, k, obj_seed) -> None:
        net, source = net_source
        rng = random.Random(obj_seed)
        counts = np.zeros(net.num_nodes, dtype=np.int64)
        for _ in range(rng.randint(0, net.num_nodes)):
            counts[rng.randrange(net.num_nodes)] += 1

        # Reference: the classic expansion-until-kth-settled collection.
        found: list[tuple[float, int]] = []
        kth = float("inf")
        for node, distance in dijkstra_expansion(net, source):
            if len(found) >= k and distance > kth:
                break
            found.extend([(distance, node)] * int(counts[node]))
            if len(found) >= k:
                found.sort()
                kth = found[k - 1][0]
        reference = sorted(found)[:k]

        nodes, dists = net.kernels.topk_objects(source, counts, k)
        result = sorted(
            (float(d), int(node))
            for node, d in zip(nodes, dists)
            for _ in range(int(counts[node]))
        )[:k]
        assert result == reference

    def test_k_zero_returns_empty(self) -> None:
        net = random_network(9)
        counts = np.ones(net.num_nodes, dtype=np.int64)
        nodes, dists = net.kernels.topk_objects(0, counts, 0)
        assert len(nodes) == 0 and len(dists) == 0

    def test_dijkstra_knn_query_equals_legacy_answers(self, small_grid) -> None:
        objects = place_objects(small_grid, 20)
        solution = DijkstraKNN(small_grid, objects)
        for location in (0, 17, small_grid.num_nodes - 1):
            answer = solution.query(location, 5)
            # Legacy reference: expand with heapq, collect, sort, trim.
            found = []
            kth = float("inf")
            obj_at: dict[int, list[int]] = {}
            for oid, node in objects.items():
                obj_at.setdefault(node, []).append(oid)
            for node, distance in dijkstra_expansion(small_grid, location):
                if len(found) >= 5 and distance > kth:
                    break
                for oid in obj_at.get(node, ()):
                    found.append((distance, oid))
                if len(found) >= 5:
                    found.sort()
                    kth = found[4][0]
            found.sort()
            assert [(n.distance, n.object_id) for n in answer] == found[:5]


class TestDialMode:
    def test_dial_delta_detection(self) -> None:
        assert dial_delta(np.array([2.0, 3.0, 5.0])) == 2.0
        assert dial_delta(np.array([2.0, 3.5])) is None
        assert dial_delta(np.array([])) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_dial_kernels_match_heapq(self, seed) -> None:
        net = random_network(seed, tie_heavy=True)  # integer weights
        indptr, indices, weights = net.csr_arrays
        delta = dial_delta(weights)
        if delta is None:  # graph with no edges
            delta = 1.0
        kern = CSRKernels(indptr, indices, weights, delta=delta)
        source = seed % net.num_nodes
        assert as_dict(*kern.sssp(source)) == dijkstra_heapq(net, source)


class TestIncrementalExpander:
    @settings(max_examples=80, deadline=None)
    @given(network_and_source(), st.integers(min_value=0, max_value=9999))
    def test_distance_to_matches_heapq(self, net_source, pick_seed) -> None:
        net, source = net_source
        reference = dijkstra_heapq(net, source)
        expander = net.kernels.expander(source)
        rng = random.Random(pick_seed)
        targets = [rng.randrange(net.num_nodes) for _ in range(8)]
        for target in targets:
            expected = reference.get(target, float("inf"))
            assert expander.distance_to(target) == expected
        # Re-query settled targets: answers must be stable.
        for target in targets:
            expected = reference.get(target, float("inf"))
            assert expander.distance_to(target) == expected

    def test_source_out_of_range(self) -> None:
        net = random_network(3)
        with pytest.raises(IndexError):
            net.kernels.expander(net.num_nodes + 5)


class TestDelegation:
    def test_dijkstra_delegates_on_large_graphs(self) -> None:
        rng = random.Random(1)
        n = KERNEL_MIN_NODES
        edges = [(i, (i + 1) % n, rng.uniform(0.5, 2.0)) for i in range(n)]
        net = RoadNetwork(n, edges)
        before = KERNEL_CALLS["sssp"]
        result = dijkstra(net, 0, max_distance=10.0)
        assert KERNEL_CALLS["sssp"] == before + 1
        assert result == dijkstra_heapq(net, 0, max_distance=10.0)

    def test_dijkstra_stays_on_heapq_for_small_graphs(self, small_grid) -> None:
        before = KERNEL_CALLS["sssp"]
        dijkstra(small_grid, 0)
        assert KERNEL_CALLS["sssp"] == before

    def test_knn_solutions_take_the_kernel_paths(self, small_grid) -> None:
        objects = place_objects(small_grid, 12)
        before = KERNEL_CALLS.copy()
        answer = DijkstraKNN(small_grid, objects).query(7, 5)
        assert KERNEL_CALLS["topk"] == before["topk"] + 1
        ier_answer = IERKNN(small_grid, objects).query(7, 5)
        assert KERNEL_CALLS["expander"] > before["expander"]
        assert [n.object_id for n in ier_answer] == [
            n.object_id for n in answer
        ]

    def test_kernels_are_per_thread(self, small_grid) -> None:
        import threading

        seen = []

        def grab() -> None:
            seen.append(id(small_grid.kernels))

        grab()
        thread = threading.Thread(target=grab)
        thread.start()
        thread.join()
        assert small_grid.kernels is small_grid.kernels  # cached per thread
        assert len(set(seen)) == 2
