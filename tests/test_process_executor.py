"""Tests for the multiprocessing executor (real processes, no GIL).

Speedup is hardware-dependent and measured by mprbench
(``mpr.scaling_y2_over_y1``); these tests pin functional equivalence.
"""

import pytest

from repro.knn import DijkstraKNN, GTreeKNN
from repro.mpr import MPRConfig, build_executor, run_serial_reference
from repro.workload import generate_workload


@pytest.fixture(scope="module")
def workload(small_grid):
    return generate_workload(
        small_grid, num_objects=12, lambda_q=30.0, lambda_u=40.0,
        duration=0.8, seed=21, k=4,
    )


@pytest.mark.parametrize(
    "config",
    [MPRConfig(1, 2, 1), MPRConfig(2, 1, 1), MPRConfig(2, 2, 1)],
    ids=lambda c: f"{c.x}x{c.y}x{c.z}",
)
def test_process_executor_matches_serial(small_grid, workload, config) -> None:
    prototype = DijkstraKNN(small_grid)
    reference = run_serial_reference(
        prototype, workload.initial_objects, workload.tasks
    )
    with build_executor(
        config, prototype, workload.initial_objects,
        mode="process", batch_size=1,
    ) as executor:
        assert executor.run(workload.tasks) == reference


def test_process_executor_with_indexed_solution(small_grid, workload) -> None:
    prototype = GTreeKNN(small_grid)
    reference = run_serial_reference(
        prototype, workload.initial_objects, workload.tasks
    )
    with build_executor(
        MPRConfig(2, 1, 1), prototype, workload.initial_objects,
        mode="process", batch_size=1,
    ) as executor:
        assert executor.run(workload.tasks) == reference


def test_empty_stream(small_grid) -> None:
    with build_executor(
        MPRConfig(1, 1, 1), DijkstraKNN(small_grid), {1: 0},
        mode="process", batch_size=1,
    ) as executor:
        assert executor.run([]) == {}
