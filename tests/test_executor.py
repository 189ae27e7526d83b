"""Tests for the executor over thread workers: serial equivalence and
invariants."""

import pytest

from repro.knn import DijkstraKNN, ToainKNN, VTreeKNN
from repro.mpr import (
    MPRConfig,
    QuiesceTimeout,
    WorkerCrash,
    build_executor,
    run_serial_reference,
)
from repro.objects.tasks import QueryTask
from repro.workload import UpdateMode, generate_workload
from tests.conftest import gated_solution, ok_results

CONFIGS = [
    MPRConfig(1, 4, 1),   # F-Rep shape
    MPRConfig(4, 1, 1),   # F-Part shape
    MPRConfig(2, 2, 1),   # 1MPR shape
    MPRConfig(2, 2, 2),   # multi-layer MPR
]


def canonical(answers):
    return {
        qid: [(round(n.distance, 6), n.object_id) for n in result]
        for qid, result in answers.items()
    }


def canonical_ok(results):
    """``canonical`` of a pool's answers, every one of which is ``OK``."""
    assert all(result.ok for result in results.values())
    return canonical(
        {qid: result.neighbors for qid, result in results.items()}
    )


@pytest.fixture(scope="module")
def workload(medium_grid):
    return generate_workload(
        medium_grid, num_objects=25, lambda_q=60.0, lambda_u=90.0,
        duration=1.0, mode=UpdateMode.RANDOM, k=5, seed=10,
    )


@pytest.fixture(scope="module")
def th_workload(medium_grid):
    return generate_workload(
        medium_grid, num_objects=25, lambda_q=60.0, lambda_u=90.0,
        duration=1.0, mode=UpdateMode.TAXI_HAILING, k=5, seed=11,
    )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.x}x{c.y}x{c.z}")
@pytest.mark.parametrize("solution_cls", [DijkstraKNN, ToainKNN])
def test_equivalent_to_serial_ru(medium_grid, workload, config, solution_cls):
    prototype = solution_cls(medium_grid)
    reference = run_serial_reference(
        prototype, workload.initial_objects, workload.tasks
    )
    with build_executor(
        config, prototype, workload.initial_objects, check_invariants=True
    ) as executor:
        answers = executor.run(workload.tasks)
    assert canonical_ok(answers) == canonical(reference)


@pytest.mark.parametrize("solution_cls", [VTreeKNN, ToainKNN])
def test_equivalent_to_serial_indexed_solutions(medium_grid, workload, solution_cls):
    prototype = solution_cls(medium_grid)
    reference = run_serial_reference(
        prototype, workload.initial_objects, workload.tasks
    )
    with build_executor(
        MPRConfig(2, 2, 2), prototype, workload.initial_objects
    ) as executor:
        assert canonical_ok(executor.run(workload.tasks)) == canonical(reference)


def test_equivalent_to_serial_th_mode(medium_grid, th_workload):
    prototype = DijkstraKNN(medium_grid)
    reference = run_serial_reference(
        prototype, th_workload.initial_objects, th_workload.tasks
    )
    with build_executor(
        MPRConfig(3, 2, 1), prototype, th_workload.initial_objects,
        check_invariants=True,
    ) as executor:
        answers = executor.run(th_workload.tasks)
    assert canonical_ok(answers) == canonical(reference)


def test_final_contents_union_matches_serial(medium_grid, workload):
    prototype = DijkstraKNN(medium_grid)
    serial = prototype.spawn(workload.initial_objects)
    for task in workload.tasks:
        if task.kind.value == "insert":
            serial.insert(task.object_id, task.location)
        elif task.kind.value == "delete":
            serial.delete(task.object_id)
    with build_executor(
        MPRConfig(3, 2, 1), prototype, workload.initial_objects
    ) as executor:
        executor.run(workload.tasks)
        contents = executor.worker_contents()
    union: dict[int, int] = {}
    for column in range(3):
        union.update(contents[(0, 0, column)])
    assert union == serial.object_locations()


def test_empty_stream(medium_grid):
    with build_executor(
        MPRConfig(2, 2, 1), DijkstraKNN(medium_grid), {1: 0}
    ) as executor:
        assert executor.run([]) == {}


def test_worker_error_is_propagated(medium_grid):
    """A solution that raises inside a worker thread surfaces from
    ``run`` as the same ``WorkerCrash`` a process worker's would."""

    class ExplodingKNN(DijkstraKNN):
        def spawn(self, objects):
            return ExplodingKNN(self._network, objects)

        def run_ops(self, ops, op_timings=None):
            raise RuntimeError("boom")

    with build_executor(
        MPRConfig(1, 1, 1), ExplodingKNN(medium_grid), {1: 0}
    ) as executor:
        with pytest.raises(WorkerCrash, match="boom"):
            executor.run([QueryTask(0.0, 7, 3, 1)])


def test_drain_timeout_names_stuck_queries_and_carries_over(small_grid):
    solution, gate = gated_solution(small_grid)
    tasks = [QueryTask(0.0, 7, 3, 1)]
    with build_executor(MPRConfig(1, 1, 1), solution, {1: 0}) as executor:
        executor.submit(tasks[0])
        with pytest.raises(QuiesceTimeout) as info:
            executor.drain(timeout=0.05)
        assert info.value.query_ids == (7,)
        gate.set()
        assert executor.drain(timeout=10.0) == ok_results(run_serial_reference(
            DijkstraKNN(small_grid), {1: 0}, tasks
        ))
