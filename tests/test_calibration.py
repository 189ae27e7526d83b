"""Tests for algorithm profiling and paper-parity profiles."""

import math

import pytest

from repro.knn import DijkstraKNN, measure_profile, paper_profile
from repro.knn.calibration import AlgorithmProfile


class TestAlgorithmProfile:
    def test_gamma_definitions(self) -> None:
        profile = AlgorithmProfile("x", tq=2.0, vq=8.0, tu=1.0, vu=0.5)
        assert profile.gamma_q == pytest.approx(2.0)
        assert profile.gamma_u == pytest.approx(0.5)

    def test_gamma_zero_when_time_zero(self) -> None:
        profile = AlgorithmProfile("x", tq=0.0, vq=0.0, tu=0.0, vu=0.0)
        assert profile.gamma_q == 0.0
        assert profile.gamma_u == 0.0

    def test_negative_values_rejected(self) -> None:
        with pytest.raises(ValueError):
            AlgorithmProfile("x", tq=-1.0, vq=0.0, tu=0.0, vu=0.0)
        for field in ("tq", "vq", "tu", "vu"):
            for bad in (math.nan, math.inf):
                values = {"tq": 1.0, "vq": 1.0, "tu": 1.0, "vu": 1.0, field: bad}
                with pytest.raises(ValueError):
                    AlgorithmProfile("x", **values)

    def test_scaled(self) -> None:
        profile = AlgorithmProfile("x", tq=1.0, vq=1.0, tu=2.0, vu=4.0)
        scaled = profile.scaled(query_factor=2.0, update_factor=0.5)
        assert scaled.tq == 2.0
        assert scaled.vq == 4.0  # variance scales quadratically
        assert scaled.tu == 1.0
        assert scaled.vu == 1.0
        # γ is scale-invariant
        assert scaled.gamma_q == pytest.approx(profile.gamma_q)


class TestMeasureProfile:
    def test_measures_positive_times(self, small_grid, grid_objects) -> None:
        solution = DijkstraKNN(small_grid, grid_objects)
        profile = measure_profile(
            solution, k=3, num_queries=5, num_updates=5,
            num_nodes=small_grid.num_nodes,
        )
        assert profile.name == "Dijkstra"
        assert profile.tq > 0
        assert profile.tu >= 0
        assert profile.vq >= 0

    def test_leaves_solution_state_intact(self, small_grid, grid_objects) -> None:
        solution = DijkstraKNN(small_grid, grid_objects)
        before = solution.object_locations()
        measure_profile(
            solution, num_queries=3, num_updates=3, num_nodes=small_grid.num_nodes
        )
        assert solution.object_locations() == before

    def test_empty_object_set(self, small_grid) -> None:
        solution = DijkstraKNN(small_grid)
        profile = measure_profile(
            solution, num_queries=2, num_updates=2, num_nodes=small_grid.num_nodes
        )
        assert profile.tu == 0.0


class TestPaperProfiles:
    def test_toain_bj_matches_paper_number(self) -> None:
        profile = paper_profile("TOAIN", "BJ")
        assert profile.tq == pytest.approx(170e-6)

    def test_cost_narratives_hold(self) -> None:
        """Section II: Dijkstra update-friendly, V-tree query-friendly."""
        dijkstra = paper_profile("Dijkstra", "BJ")
        vtree = paper_profile("V-tree", "BJ")
        toain = paper_profile("TOAIN", "BJ")
        assert dijkstra.tu < toain.tu < vtree.tu
        assert vtree.tq < toain.tq < dijkstra.tq

    def test_dijkstra_scales_linearly_with_network(self) -> None:
        ny = paper_profile("Dijkstra", "NY")
        usa_w = paper_profile("Dijkstra", "USA(W)")
        assert usa_w.tq > 10 * ny.tq

    def test_indexed_scales_sublinearly(self) -> None:
        ny = paper_profile("V-tree", "NY")
        usa_w = paper_profile("V-tree", "USA(W)")
        assert usa_w.tq < 3 * ny.tq

    def test_more_objects_speed_up_dijkstra_queries(self) -> None:
        sparse = paper_profile("Dijkstra", "BJ", object_count=10_000)
        dense = paper_profile("Dijkstra", "BJ", object_count=80_000)
        assert dense.tq < sparse.tq

    def test_unknown_solution_raises(self) -> None:
        with pytest.raises(KeyError, match="no paper-parity profile"):
            paper_profile("FooTree", "BJ")

    def test_unknown_network_raises(self) -> None:
        with pytest.raises(KeyError, match="unknown network symbol"):
            paper_profile("TOAIN", "ATLANTIS")

    def test_all_pairs_build(self) -> None:
        for solution in ("Dijkstra", "V-tree", "TOAIN", "G-tree"):
            for network in ("BJ", "NW", "NY", "USA(E)", "USA(W)"):
                profile = paper_profile(solution, network)
                assert profile.tq > 0 and profile.tu > 0
