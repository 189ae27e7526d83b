"""Structural tests of the G-tree index internals."""

import pytest

from repro.graph import dijkstra, grid_network
from repro.knn import GTreeIndex, VTreeKNN
from repro.knn.gtree import TreeNode


@pytest.fixture(scope="module")
def index() -> GTreeIndex:
    net = grid_network(12, 12, seed=21, diagonal_fraction=0.1)
    return GTreeIndex(net, leaf_size=24, fanout=4)


class TestTreeStructure:
    def test_leaves_cover_all_vertices(self, index) -> None:
        covered = set()
        for leaf_id in index.leaves():
            members = index.leaf_members(leaf_id)
            assert not covered & set(members)
            covered.update(members)
        assert covered == set(index.network.nodes())

    def test_leaf_sizes_bounded(self, index) -> None:
        for leaf_id in index.leaves():
            assert len(index.leaf_members(leaf_id)) <= index.leaf_size

    def test_leaf_of_consistent(self, index) -> None:
        for leaf_id in index.leaves():
            for vertex in index.leaf_members(leaf_id):
                assert index.leaf_of[vertex] == leaf_id

    def test_tree_parent_child_links(self, index) -> None:
        for node in index.tree:
            for child_id in node.children:
                assert index.tree[child_id].parent == node.node_id
                assert index.tree[child_id].level == node.level + 1

    def test_height_positive(self, index) -> None:
        assert index.height() >= 2  # 144 nodes with leaf_size 24 must split


class TestBorders:
    def test_borders_have_external_edges(self, index) -> None:
        for leaf_id, borders in index.leaf_borders.items():
            for border in borders:
                assert any(
                    index.leaf_of[nbr] != leaf_id
                    for nbr, _ in index.network.neighbors(border)
                )

    def test_non_borders_are_internal(self, index) -> None:
        for leaf_id in index.leaves():
            borders = set(index.leaf_borders[leaf_id])
            for vertex in index.leaf_members(leaf_id):
                if vertex in borders:
                    continue
                assert all(
                    index.leaf_of[nbr] == leaf_id
                    for nbr, _ in index.network.neighbors(vertex)
                )

    def test_vertex_border_distances_are_within_leaf(self, index) -> None:
        """The tables must equal Dijkstra on the leaf subgraph."""
        leaf_id = index.leaves()[0]
        members = index.leaf_members(leaf_id)
        sub = index.network.induced_subgraph(sorted(members))
        pos = {v: i for i, v in enumerate(sorted(members))}
        for column, border in enumerate(index.leaf_borders[leaf_id]):
            dist = dijkstra(sub, pos[border])
            ordered = sorted(members)
            for vertex in members:
                expected = dist.get(pos[vertex], float("inf"))
                assert index.vertex_border_dist[vertex][column] == pytest.approx(
                    expected
                )
            del ordered

    def test_overlay_distances_match_full_graph(self, index) -> None:
        """Exactness of the border overlay (the core correctness claim)."""
        some_borders = [
            borders[0] for borders in index.leaf_borders.values() if borders
        ][:5]
        for border in some_borders:
            full = dijkstra(index.network, border)
            swept = index.border_sweep(border, radius=float("inf"))
            for other, d in swept.items():
                assert d == pytest.approx(full[other])


class TestOccurrence:
    def test_mismatched_index_network_rejected(self, index, small_grid) -> None:
        with pytest.raises(ValueError, match="different network"):
            VTreeKNN(small_grid, {}, index=index)


class TestConstructionParameters:
    def test_invalid_leaf_size(self, small_grid) -> None:
        with pytest.raises(ValueError):
            GTreeIndex(small_grid, leaf_size=0)

    def test_invalid_fanout(self, small_grid) -> None:
        with pytest.raises(ValueError):
            GTreeIndex(small_grid, fanout=1)

    def test_tiny_graph_single_leaf(self) -> None:
        net = grid_network(2, 2, seed=0)
        index = GTreeIndex(net, leaf_size=16)
        assert index.leaves() == [0]
        assert isinstance(index.tree[0], TreeNode)
        assert index.leaf_borders[0] == []  # no cut edges at all
