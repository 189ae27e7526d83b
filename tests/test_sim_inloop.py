"""Tests for the measured-in-the-loop simulation."""

import pytest

from repro.knn import DijkstraKNN, ToainKNN
from repro.mpr import MachineSpec, MPRConfig, run_serial_reference
from repro.sim import find_max_throughput, simulate_with_execution
from repro.workload import generate_workload

MACHINE = MachineSpec(total_cores=32)


@pytest.fixture(scope="module")
def workload(medium_grid):
    return generate_workload(
        medium_grid, num_objects=20, lambda_q=50.0, lambda_u=80.0,
        duration=1.0, seed=31, k=5,
    )


class TestCorrectness:
    @pytest.mark.parametrize(
        "config",
        [MPRConfig(1, 3, 1), MPRConfig(3, 1, 1), MPRConfig(2, 2, 2)],
        ids=lambda c: f"{c.x}x{c.y}x{c.z}",
    )
    def test_answers_match_serial(self, medium_grid, workload, config) -> None:
        prototype = DijkstraKNN(medium_grid)
        reference = run_serial_reference(
            prototype, workload.initial_objects, workload.tasks
        )
        result = simulate_with_execution(
            prototype, config, MACHINE,
            workload.initial_objects, workload.tasks, horizon=1.0,
        )
        assert result.answers == reference

    def test_works_with_indexed_solution(self, medium_grid, workload) -> None:
        prototype = ToainKNN(medium_grid)
        reference = run_serial_reference(
            prototype, workload.initial_objects, workload.tasks
        )
        result = simulate_with_execution(
            prototype, MPRConfig(2, 2, 1), MACHINE,
            workload.initial_objects, workload.tasks, horizon=1.0,
        )
        assert result.answers == reference


class TestAccounting:
    def test_response_times_positive_and_counted(self, medium_grid, workload) -> None:
        result = simulate_with_execution(
            DijkstraKNN(medium_grid), MPRConfig(2, 2, 1), MACHINE,
            workload.initial_objects, workload.tasks, horizon=1.0,
        )
        assert len(result.response_times) == workload.num_queries
        assert all(value > 0 for value in result.response_times.values())
        assert result.mean_response_time > 0

    def test_utilization_split_across_replicas(self, medium_grid, workload) -> None:
        """With y replicas, each worker executes ~1/y of the queries:
        per-worker busy time must be well below the serial total."""
        single = simulate_with_execution(
            DijkstraKNN(medium_grid), MPRConfig(1, 1, 1), MACHINE,
            workload.initial_objects, workload.tasks, horizon=1.0,
        )
        replicated = simulate_with_execution(
            DijkstraKNN(medium_grid), MPRConfig(1, 4, 1), MACHINE,
            workload.initial_objects, workload.tasks, horizon=1.0,
        )
        serial_busy = sum(single.worker_busy.values())
        for worker_id, busy in replicated.worker_busy.items():
            assert busy < serial_busy * 0.75, worker_id

    def test_empty_stream(self, medium_grid) -> None:
        result = simulate_with_execution(
            DijkstraKNN(medium_grid), MPRConfig(1, 1, 1), MACHINE,
            {1: 0}, [], horizon=1.0,
        )
        assert result.answers == {}
        assert result.mean_response_time == float("inf")

    def test_utilization_accessor(self, medium_grid, workload) -> None:
        result = simulate_with_execution(
            DijkstraKNN(medium_grid), MPRConfig(1, 2, 1), MACHINE,
            workload.initial_objects, workload.tasks, horizon=1.0,
        )
        for worker_id in result.worker_busy:
            assert 0.0 <= result.utilization(worker_id)


class TestPercentileSLA:
    def test_p95_bound_is_stricter(self) -> None:
        from repro.knn import paper_profile

        profile = paper_profile("TOAIN", "BJ")
        machine = MachineSpec(total_cores=19)
        config = MPRConfig(1, 5, 3)
        mean_based = find_max_throughput(
            config, profile, machine, 10_000.0, rq_bound=0.001,
            duration=0.3, initial_lambda_q=1_000.0,
        )
        p95_based = find_max_throughput(
            config, profile, machine, 10_000.0, rq_bound=0.001,
            duration=0.3, initial_lambda_q=1_000.0, bound_on_p95=True,
        )
        assert p95_based <= mean_based
        assert p95_based > 0
