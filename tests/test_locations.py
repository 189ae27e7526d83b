"""A location outside the graph is refused at every door of the library.

The served front door checks frame locations; these are the doors a
library caller uses.  ``ProcessPoolService.submit`` (and so
``MPRSystem.run_results`` / ``submit_async``) refuses a query or insert
whose location is not in ``[0, num_nodes)`` before routing it, so no
worker ever sees it; ``DijkstraKNN.insert`` refuses it before mutating
anything; the top-k kernels raise ``IndexError`` rather than let numpy
or a memoryview wrap a negative index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.knn import DijkstraKNN
from repro.mpr import MPRConfig, MPRSystem, run_serial_reference
from repro.objects.tasks import InsertTask, QueryTask
from tests.conftest import ok_results, place_objects


@pytest.fixture()
def system(small_grid):
    objects = place_objects(small_grid, 8)
    with MPRSystem(
        MPRConfig(1, 1, 1), DijkstraKNN(small_grid), objects, mode="thread"
    ) as system:
        yield system, objects


@pytest.mark.parametrize("location", [-5, 64])
def test_run_results_refuses_a_query_off_the_graph(system, location) -> None:
    system, _ = system
    with pytest.raises(ValueError, match="not a node"):
        system.run_results([QueryTask(0.0, 1, location, 3)])


@pytest.mark.parametrize("location", [-2, 64])
def test_a_refused_insert_leaves_the_pool_serving(
    system, small_grid, location
) -> None:
    """``InsertTask(9, -2)`` used to be stored at -2 while its count
    landed on node 62; ``InsertTask(10, 64)`` crashed the worker and
    failed every later query."""
    system, objects = system
    with pytest.raises(ValueError, match="not a node"):
        system.run_results([InsertTask(0.0, 9, location)])
    queries = [QueryTask(0.0, 1, 62, 4), QueryTask(0.0, 2, 0, 8)]
    expected = run_serial_reference(DijkstraKNN(small_grid), objects, queries)
    assert system.run_results(queries) == ok_results(expected)


def test_run_refuses_the_whole_stream_before_submitting_any(system) -> None:
    system, _ = system
    with pytest.raises(ValueError):
        system.run_results([QueryTask(0.0, 1, 3, 2), InsertTask(0.0, 9, -1)])
    assert system.executor.metrics.tasks_submitted == 0


def test_submit_async_fails_the_future(system, small_grid) -> None:
    system, objects = system
    refused = system.submit_async(QueryTask(0.0, 1, -5, 3))
    with pytest.raises(ValueError, match="not a node"):
        refused.result(timeout=30)
    query = QueryTask(0.0, 2, 5, 3)
    expected = run_serial_reference(DijkstraKNN(small_grid), objects, [query])
    assert system.submit_async(query).result(timeout=30) == ok_results(
        expected
    )[2]


@pytest.mark.parametrize("location", [-2, 64])
def test_dijkstra_insert_refuses_before_mutating(small_grid, location) -> None:
    objects = place_objects(small_grid, 8)
    solution = DijkstraKNN(small_grid, objects)
    solution.query(0, 3)  # builds the counts vector an insert maintains
    counts = solution._object_counts().copy()
    with pytest.raises(ValueError, match="not a node"):
        solution.insert(9, location)
    assert solution.object_locations() == objects
    assert np.array_equal(solution._object_counts(), counts)


@pytest.mark.parametrize("location", [-1, 64])
def test_dijkstra_query_off_the_graph_raises_index_error(
    small_grid, location
) -> None:
    solution = DijkstraKNN(small_grid, place_objects(small_grid, 8))
    with pytest.raises(IndexError):
        solution.query(location, 2)


@pytest.mark.parametrize("objects", [None, 10**9], ids=["sweep", "heap"])
@pytest.mark.parametrize("source", [-1, 64])
def test_topk_kernels_raise_index_error(small_grid, objects, source) -> None:
    counts = np.ones(small_grid.num_nodes, dtype=np.int32)
    kernels = small_grid.kernels
    routing = {} if objects is None else {"objects": objects}
    with pytest.raises(IndexError):
        kernels.topk_objects(source, counts, 2, **routing)
    with pytest.raises(IndexError):
        kernels.knn_batch([0, source], [2, 2], counts, **routing)
