"""Tests for the synthetic road-network generators."""

import hashlib

import numpy as np
import pytest

from repro.graph import (
    TABLE1_NETWORKS,
    generate_pois,
    grid_network,
    random_geometric_network,
    ring_radial_network,
    scaled_replica,
)


class TestGridNetwork:
    def test_size_and_connectivity(self) -> None:
        net = grid_network(10, 12, seed=0)
        assert net.num_nodes == 120
        assert net.is_connected()
        # A full grid: r*(c-1) + c*(r-1) edges.
        assert net.num_edges == 10 * 11 + 12 * 9

    def test_deterministic_by_seed(self) -> None:
        a = grid_network(6, 6, seed=42, diagonal_fraction=0.3)
        b = grid_network(6, 6, seed=42, diagonal_fraction=0.3)
        c = grid_network(6, 6, seed=43, diagonal_fraction=0.3)
        assert a == b
        assert a != c

    def test_diagonals_raise_edge_count(self) -> None:
        plain = grid_network(8, 8, seed=1)
        diag = grid_network(8, 8, seed=1, diagonal_fraction=1.0)
        assert diag.num_edges > plain.num_edges

    def test_deletion_keeps_connectivity(self) -> None:
        net = grid_network(12, 12, seed=2, deletion_fraction=0.2)
        assert net.is_connected()

    def test_weights_dominate_euclidean(self) -> None:
        """Edge weights must upper-bound Euclidean length (A* admissibility)."""
        import math

        net = grid_network(6, 6, seed=3, diagonal_fraction=0.4)
        for edge in net.edges():
            ax, ay = net.coordinate(edge.u)
            bx, by = net.coordinate(edge.v)
            assert edge.weight >= math.hypot(ax - bx, ay - by) - 1e-9

    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            grid_network(0, 5)
        with pytest.raises(ValueError):
            grid_network(5, 5, diagonal_fraction=1.5)
        with pytest.raises(ValueError):
            grid_network(5, 5, deletion_fraction=1.0)


class TestRingRadial:
    def test_size(self) -> None:
        net = ring_radial_network(4, 10, seed=0)
        assert net.num_nodes == 1 + 4 * 10
        assert net.is_connected()

    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            ring_radial_network(0, 10)
        with pytest.raises(ValueError):
            ring_radial_network(3, 2)


class TestGeometric:
    def test_connected_component_returned(self) -> None:
        net = random_geometric_network(300, radius=0.08, seed=5)
        assert net.is_connected()
        assert net.num_nodes > 100  # the giant component dominates

    def test_invalid(self) -> None:
        with pytest.raises(ValueError):
            random_geometric_network(0)


class TestScaledReplica:
    def test_all_symbols_build(self) -> None:
        for symbol in TABLE1_NETWORKS:
            net = scaled_replica(symbol, scale=1.0 / 2000.0)
            assert net.num_nodes > 0
            assert net.is_connected()
            assert net.name == symbol

    def test_relative_sizes_preserved(self) -> None:
        ny = scaled_replica("NY", scale=1.0 / 1000.0)
        usa_w = scaled_replica("USA(W)", scale=1.0 / 1000.0)
        # USA(W) is ~24x NY in the paper; replicas keep a wide gap.
        assert usa_w.num_nodes > 5 * ny.num_nodes

    def test_edge_node_ratio_tracks_spec(self) -> None:
        spec = TABLE1_NETWORKS["NY"]
        net = scaled_replica("NY", scale=1.0 / 500.0)
        ratio = net.num_edges / net.num_nodes
        assert ratio == pytest.approx(spec.edge_node_ratio, rel=0.35)

    def test_unknown_symbol(self) -> None:
        with pytest.raises(KeyError, match="unknown network symbol"):
            scaled_replica("MARS")

    def test_bad_scale(self) -> None:
        with pytest.raises(ValueError):
            scaled_replica("NY", scale=0.0)


class TestPois:
    def test_count_and_range(self, medium_grid) -> None:
        pois = generate_pois(medium_grid, 40, seed=1)
        assert len(pois) == 40
        assert len(set(pois)) == 40
        assert all(0 <= p < medium_grid.num_nodes for p in pois)

    def test_clustered(self, medium_grid) -> None:
        """POIs should be spatially clustered, not uniform."""
        pois = generate_pois(medium_grid, 30, num_clusters=3, seed=2)
        coords = [medium_grid.coordinate(p) for p in pois]
        xs = sorted(c[0] for c in coords)
        # Clustered points leave large empty gaps along an axis compared
        # with the spread; uniform points would be roughly evenly spaced.
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert max(gaps) > 3 * (xs[-1] - xs[0]) / len(xs)

    def test_more_pois_than_nodes_capped(self, small_grid) -> None:
        pois = generate_pois(small_grid, small_grid.num_nodes + 100, seed=3)
        assert len(pois) == small_grid.num_nodes

    def test_negative_count_rejected(self, small_grid) -> None:
        with pytest.raises(ValueError):
            generate_pois(small_grid, -1)


def graph_digest(net) -> str:
    """SHA-256 over the CSR arrays, the coordinates and the ``edges()``
    order, so a moved draw, neighbor, edge or float bit fails."""
    h = hashlib.sha256()
    for array in (*net.csr_arrays, net.coord_arrays):
        h.update(np.ascontiguousarray(array).tobytes())
    edges = list(net.edges())
    h.update(np.array([e.u for e in edges], dtype=np.int64).tobytes())
    h.update(np.array([e.v for e in edges], dtype=np.int64).tobytes())
    h.update(np.array([e.weight for e in edges], dtype=np.float64).tobytes())
    return h.hexdigest()


# The benchmark's graphs are ``grid_network(side, side, seed=7)``.
RECORDED_GRAPHS = {
    "grid-plain": (
        lambda: grid_network(12, 15, seed=3),
        "d89d15ac16bafefa1072820635ec6d244f123b3ffa343825977e8c30fcd5ad80",
    ),
    "grid-deletions-diagonals": (
        lambda: grid_network(
            14, 11, seed=5, deletion_fraction=0.2, diagonal_fraction=0.3
        ),
        "0ea2d1412e8c0d78414d86e331c054fe39a43e98bb5fc42c6c987d030e54d952",
    ),
    "ring-radial": (
        lambda: ring_radial_network(6, 10, seed=2),
        "af62292ab61848a19862c09853df8a4eb19aa8995edcc1e3b9c96bf57e53f024",
    ),
    "random-geometric": (
        lambda: random_geometric_network(150, radius=0.1, seed=4),
        "66a36ea977c8baa2ac641dc5237e934ed149b0e74e10e606e47e6efb97d688a0",
    ),
    "scaled-replica-NW": (
        lambda: scaled_replica("NW", scale=0.001, seed=7),
        "2c0ce591a22677de12b23c8a380057d09cf1f7a5dde3e62467b376b36fb163c4",
    ),
    "bench-grid-128": (
        lambda: grid_network(128, 128, seed=7),
        "f75f7a51d549c0c2dec55a1ccffa89f243630e3a0f4ba109a1fa3acf524e9ad7",
    ),
    "bench-grid-256": (
        lambda: grid_network(256, 256, seed=7),
        "4e871cdded49c72234a203fa26597190ddb619522306215c77fb97fcdeea2259",
    ),
}


@pytest.mark.parametrize("graph", list(RECORDED_GRAPHS))
def test_generated_graphs_match_recorded_digests(graph: str) -> None:
    make, digest = RECORDED_GRAPHS[graph]
    assert graph_digest(make()) == digest
