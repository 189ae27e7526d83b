"""Tests for the shortest-path engines, with networkx as an oracle."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    RoadNetwork,
    astar_distance,
    dijkstra,
    dijkstra_expansion,
    dijkstra_with_paths,
    grid_network,
    pairwise_distances,
    reconstruct_path,
    shortest_path_distance,
)


def to_networkx(net: RoadNetwork) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(net.nodes())
    for edge in net.edges():
        graph.add_edge(edge.u, edge.v, weight=edge.weight)
    return graph


@st.composite
def random_networks(draw):
    """Small random connected weighted graphs."""
    n = draw(st.integers(min_value=2, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    edges = [(i, rng.randrange(i), rng.uniform(0.5, 10.0)) for i in range(1, n)]
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.uniform(0.5, 10.0)))
    return RoadNetwork(n, edges, name=f"rand-{seed}")


class TestDijkstra:
    def test_known_path_graph(self, path_network) -> None:
        dist = dijkstra(path_network, 0)
        assert dist == {0: 0.0, 1: 1.0, 2: 3.0, 3: 6.0, 4: 10.0}

    def test_max_distance_truncates(self, path_network) -> None:
        dist = dijkstra(path_network, 0, max_distance=3.0)
        assert set(dist) == {0, 1, 2}

    def test_targets_early_stop(self, path_network) -> None:
        dist = dijkstra(path_network, 0, targets=[2])
        assert dist[2] == 3.0
        assert 4 not in dist

    def test_unreachable_nodes_absent(self) -> None:
        net = RoadNetwork(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert set(dijkstra(net, 0)) == {0, 1}

    @settings(max_examples=40, deadline=None)
    @given(random_networks(), st.integers(min_value=0, max_value=1_000))
    def test_matches_networkx(self, net, source_seed) -> None:
        source = source_seed % net.num_nodes
        expected = nx.single_source_dijkstra_path_length(
            to_networkx(net), source
        )
        got = dijkstra(net, source)
        assert set(got) == set(expected)
        for node, d in expected.items():
            assert got[node] == pytest.approx(d)


class TestPointToPoint:
    @settings(max_examples=30, deadline=None)
    @given(random_networks(), st.integers(0, 999), st.integers(0, 999))
    def test_bidirectional_matches_dijkstra(self, net, a, b) -> None:
        source = a % net.num_nodes
        target = b % net.num_nodes
        full = dijkstra(net, source)
        expected = full.get(target, math.inf)
        assert shortest_path_distance(net, source, target) == pytest.approx(expected)

    def test_astar_on_generated_grid(self) -> None:
        net = grid_network(6, 6, seed=4)
        for source, target in [(0, 35), (3, 20), (17, 17)]:
            expected = dijkstra(net, source).get(target, math.inf)
            assert astar_distance(net, source, target) == pytest.approx(expected)

    def test_astar_unreachable(self) -> None:
        net = RoadNetwork(3, [(0, 1, 1.0)], coordinates=[(0, 0), (1, 0), (2, 0)])
        assert astar_distance(net, 0, 2) == math.inf

    def test_same_node_distance_zero(self, small_grid) -> None:
        assert shortest_path_distance(small_grid, 5, 5) == 0.0
        assert astar_distance(small_grid, 5, 5) == 0.0


class TestPaths:
    def test_reconstruct_path(self, path_network) -> None:
        _, parent = dijkstra_with_paths(path_network, 0)
        assert reconstruct_path(parent, 0, 4) == [0, 1, 2, 3, 4]

    def test_reconstruct_unreachable_raises(self) -> None:
        net = RoadNetwork(3, [(0, 1, 1.0)])
        _, parent = dijkstra_with_paths(net, 0)
        with pytest.raises(KeyError):
            reconstruct_path(parent, 0, 2)

    def test_path_distances_consistent(self, medium_grid) -> None:
        dist, parent = dijkstra_with_paths(medium_grid, 0)
        target = max(dist, key=dist.get)
        path = reconstruct_path(parent, 0, target)
        total = sum(
            medium_grid.edge_weight(a, b) for a, b in zip(path, path[1:])
        )
        assert total == pytest.approx(dist[target])


class TestOutOfRangeNodes:
    """Every engine refuses a node outside ``[0, n)`` with IndexError,
    on graphs below the kernel delegation size too."""

    @pytest.mark.parametrize("node", [-1, 5])
    @pytest.mark.parametrize(
        "search",
        [
            lambda net, node: dijkstra(net, node),
            lambda net, node: dijkstra_with_paths(net, node),
            lambda net, node: list(dijkstra_expansion(net, node)),
            lambda net, node: shortest_path_distance(net, node, 0),
            lambda net, node: shortest_path_distance(net, 0, node),
            lambda net, node: astar_distance(net, node, 0),
            lambda net, node: astar_distance(net, 0, node),
        ],
        ids=["dijkstra", "with_paths", "expansion", "bidir_source",
             "bidir_target", "astar_source", "astar_target"],
    )
    def test_rejected(self, path_network, search, node) -> None:
        assert path_network.num_nodes == 5
        with pytest.raises(IndexError, match="out of range"):
            search(path_network, node)


class TestMultiSourceAndExpansion:
    def test_expansion_order_nondecreasing(self, small_grid) -> None:
        last = -1.0
        count = 0
        for _node, d in dijkstra_expansion(small_grid, 0):
            assert d >= last
            last = d
            count += 1
        assert count == small_grid.num_nodes

    def test_pairwise_matrix(self, path_network) -> None:
        matrix = pairwise_distances(path_network, [0, 4], [1, 3])
        assert matrix[0] == pytest.approx([1.0, 6.0])
        assert matrix[1] == pytest.approx([9.0, 4.0])
