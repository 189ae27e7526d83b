"""Tests for workload generation and the named scenarios."""

import math
import random

import pytest

from repro.objects import TaskKind, seed_stream_with_objects
from repro.workload import (
    BJ_RU_QUERY_HEAVY,
    CASE_STUDY,
    FIGURE6_SCENARIOS,
    NY_RU_UPDATE_HEAVY,
    UpdateMode,
    generate_workload,
    materialize,
    poisson_arrivals,
)

#: Rates and durations no stream can have: each must be a ValueError
#: (a NaN or infinite rate would otherwise never end the draw loop).
BAD_VALUES = [-1.0, math.nan, math.inf]


class TestPoissonArrivals:
    def test_rate_matches(self) -> None:
        rng = random.Random(0)
        times = poisson_arrivals(1000.0, 10.0, rng)
        assert len(times) == pytest.approx(10_000, rel=0.1)

    def test_times_in_window_and_sorted(self) -> None:
        rng = random.Random(1)
        times = poisson_arrivals(100.0, 5.0, rng, start=2.0)
        assert all(2.0 <= t < 7.0 for t in times)
        assert times == sorted(times)

    def test_zero_rate(self) -> None:
        assert poisson_arrivals(0.0, 10.0, random.Random(0)) == []

    def test_negative_rate_rejected(self) -> None:
        with pytest.raises(ValueError):
            poisson_arrivals(-1.0, 1.0, random.Random(0))

    def test_exponential_gaps(self) -> None:
        """Poisson gaps: variance == mean^2 (cv^2 = 1)."""
        rng = random.Random(2)
        times = poisson_arrivals(500.0, 40.0, rng)
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        variance = sum((gap - mean) ** 2 for gap in gaps) / len(gaps)
        assert variance == pytest.approx(mean * mean, rel=0.1)

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("argument", ["rate", "duration"])
    def test_non_finite_or_negative_rejected(self, argument, value) -> None:
        arguments = {"rate": 10.0, "duration": 1.0, argument: value}
        with pytest.raises(ValueError, match=argument):
            poisson_arrivals(rng=random.Random(0), **arguments)


class TestGenerateWorkload:
    def test_ru_stream_is_consistent(self, medium_grid) -> None:
        workload = generate_workload(
            medium_grid, 20, lambda_q=100.0, lambda_u=200.0, duration=2.0,
            mode=UpdateMode.RANDOM, seed=1,
        )
        seed_stream_with_objects(
            workload.tasks, set(workload.initial_objects)
        )

    def test_th_stream_is_consistent(self, medium_grid) -> None:
        workload = generate_workload(
            medium_grid, 20, lambda_q=50.0, lambda_u=200.0, duration=2.0,
            mode=UpdateMode.TAXI_HAILING, seed=2,
        )
        seed_stream_with_objects(
            workload.tasks, set(workload.initial_objects)
        )

    def test_rates_approximate(self, medium_grid) -> None:
        workload = generate_workload(
            medium_grid, 30, lambda_q=300.0, lambda_u=500.0, duration=4.0, seed=3
        )
        assert workload.num_queries == pytest.approx(1200, rel=0.15)
        assert workload.num_updates == pytest.approx(2000, rel=0.15)

    def test_th_updates_come_in_pairs_to_neighbors(self, medium_grid) -> None:
        workload = generate_workload(
            medium_grid, 20, lambda_q=0.0, lambda_u=100.0, duration=2.0,
            mode=UpdateMode.TAXI_HAILING, seed=4,
        )
        tasks = workload.tasks
        assert len(tasks) % 2 == 0
        positions = {}
        for object_id, node in workload.initial_objects.items():
            positions[object_id] = node
        for delete, insert in zip(tasks[::2], tasks[1::2]):
            assert delete.kind is TaskKind.DELETE
            assert insert.kind is TaskKind.INSERT
            assert delete.object_id == insert.object_id
            assert delete.movement_id == insert.movement_id
            origin = positions[delete.object_id]
            neighbors = {v for v, _ in medium_grid.neighbors(origin)}
            assert insert.location in neighbors or insert.location == origin
            positions[delete.object_id] = insert.location

    def test_th_update_rate_counts_both_ops(self, medium_grid) -> None:
        """Movements at λu/2 produce λu update operations."""
        workload = generate_workload(
            medium_grid, 20, lambda_q=0.0, lambda_u=400.0, duration=4.0,
            mode=UpdateMode.TAXI_HAILING, seed=5,
        )
        assert workload.num_updates == pytest.approx(1600, rel=0.15)

    def test_insert_sites_respected(self, medium_grid) -> None:
        sites = [1, 2, 3]
        workload = generate_workload(
            medium_grid, 10, lambda_q=0.0, lambda_u=300.0, duration=2.0,
            mode=UpdateMode.RANDOM, seed=6, insert_sites=sites,
        )
        for task in workload.tasks:
            if task.kind is TaskKind.INSERT:
                assert task.location in sites
        assert all(node in sites for node in workload.initial_objects.values())

    def test_deterministic(self, medium_grid) -> None:
        a = generate_workload(medium_grid, 10, 50.0, 50.0, 1.0, seed=7)
        b = generate_workload(medium_grid, 10, 50.0, 50.0, 1.0, seed=7)
        assert a.tasks == b.tasks
        assert a.initial_objects == b.initial_objects

    def test_query_sites_respected(self, medium_grid) -> None:
        hotspots = [5, 6, 7]
        workload = generate_workload(
            medium_grid, 10, lambda_q=200.0, lambda_u=0.0, duration=1.0,
            seed=9, query_sites=hotspots,
        )
        assert workload.num_queries > 0
        for task in workload.tasks:
            if task.kind is TaskKind.QUERY:
                assert task.location in hotspots

    def test_empty_query_sites_rejected(self, medium_grid) -> None:
        with pytest.raises(ValueError, match="query_sites"):
            generate_workload(
                medium_grid, 5, 1.0, 1.0, 1.0, query_sites=[]
            )

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("argument", ["lambda_q", "lambda_u", "duration"])
    @pytest.mark.parametrize("mode", list(UpdateMode))
    def test_non_finite_or_negative_rate_rejected(
        self, medium_grid, mode, argument, value
    ) -> None:
        """No empty stream and no bad λ recorded for the model to use."""
        arguments = {"lambda_q": 10.0, "lambda_u": 10.0, "duration": 1.0}
        arguments[argument] = value
        with pytest.raises(ValueError, match=argument):
            generate_workload(medium_grid, 5, mode=mode, **arguments)

    def test_invalid_parameters(self, medium_grid) -> None:
        with pytest.raises(ValueError):
            generate_workload(medium_grid, 0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            generate_workload(
                medium_grid, 5, 1.0, 1.0, 1.0, insert_sites=[]
            )


class TestScenarios:
    def test_paper_case_study_parameters(self) -> None:
        assert CASE_STUDY.network_symbol == "BJ"
        assert CASE_STUDY.num_objects == 10_000
        assert CASE_STUDY.lambda_q == 15_000
        assert CASE_STUDY.lambda_u == 50_000
        assert CASE_STUDY.label == "BJ-RU"

    def test_figure5_scenarios(self) -> None:
        assert NY_RU_UPDATE_HEAVY.lambda_u > NY_RU_UPDATE_HEAVY.lambda_q
        assert BJ_RU_QUERY_HEAVY.lambda_q > BJ_RU_QUERY_HEAVY.lambda_u

    def test_figure6_has_six(self) -> None:
        assert len(FIGURE6_SCENARIOS) == 6
        labels = {s.label for s in FIGURE6_SCENARIOS}
        assert "NW-RU" in labels and "BJ-TH" in labels

    def test_scaled_preserves_mixture(self) -> None:
        scaled = CASE_STUDY.scaled(0.01)
        assert scaled.lambda_q / scaled.lambda_u == pytest.approx(
            CASE_STUDY.lambda_q / CASE_STUDY.lambda_u
        )
        assert scaled.num_objects == 100

    def test_scaled_invalid_factor(self) -> None:
        with pytest.raises(ValueError):
            CASE_STUDY.scaled(0.0)

    def test_materialize_runs(self) -> None:
        instance = materialize(
            CASE_STUDY, network_scale=1.0 / 3000.0, load_scale=1.0 / 500.0,
            duration=0.5, seed=1,
        )
        assert instance.network.num_nodes > 0
        assert len(instance.workload.tasks) > 0
        seed_stream_with_objects(
            instance.workload.tasks, set(instance.workload.initial_objects)
        )

    def test_materialize_nw_restricts_to_pois(self) -> None:
        nw = next(s for s in FIGURE6_SCENARIOS if s.network_symbol == "NW")
        instance = materialize(
            nw, network_scale=1.0 / 3000.0, load_scale=1.0 / 500.0,
            duration=0.3, seed=2,
        )
        from repro.graph import generate_pois

        pois = set(
            generate_pois(
                instance.network,
                max(int(13_132 / 3000.0 * 10), 25),
                seed=2,
            )
        )
        for task in instance.workload.tasks:
            if task.kind is TaskKind.INSERT:
                assert task.location in pois
