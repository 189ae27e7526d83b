"""kNN behaviour on disconnected networks.

Real road extracts contain islands (ferries trimmed, military zones).
All solutions must agree: objects unreachable from the query location
are simply not answers, never reported with infinite distances.
"""

import pytest

from repro.graph import RoadNetwork, grid_network
from repro.knn import DijkstraKNN, ToainKNN, VTreeKNN

ALL_SOLUTIONS = [DijkstraKNN, VTreeKNN, ToainKNN]


@pytest.fixture(scope="module")
def two_islands():
    """Two 4x4 grids with no connection between them."""
    base = grid_network(4, 4, seed=2)
    offset = base.num_nodes
    edges = [(e.u, e.v, e.weight) for e in base.edges()]
    edges += [(e.u + offset, e.v + offset, e.weight) for e in base.edges()]
    coords = base.coordinates + [
        (x + 10_000.0, y) for x, y in base.coordinates
    ]
    return RoadNetwork(2 * offset, edges, coordinates=coords, name="islands")


@pytest.mark.parametrize("solution_cls", ALL_SOLUTIONS)
def test_unreachable_objects_excluded(two_islands, solution_cls) -> None:
    half = two_islands.num_nodes // 2
    # One object on each island.
    solution = solution_cls(two_islands, {1: 2, 2: half + 2})
    result = solution.query(0, 5)  # query on island A
    assert [n.object_id for n in result] == [1]
    assert all(n.distance < float("inf") for n in result)


@pytest.mark.parametrize("solution_cls", ALL_SOLUTIONS)
def test_query_on_far_island(two_islands, solution_cls) -> None:
    half = two_islands.num_nodes // 2
    solution = solution_cls(two_islands, {1: 2, 2: half + 2})
    result = solution.query(half, 5)  # query on island B
    assert [n.object_id for n in result] == [2]


@pytest.mark.parametrize("solution_cls", ALL_SOLUTIONS)
def test_empty_when_all_objects_unreachable(two_islands, solution_cls) -> None:
    half = two_islands.num_nodes // 2
    solution = solution_cls(two_islands, {7: half + 1})
    assert solution.query(0, 3) == []


@pytest.mark.parametrize("solution_cls", ALL_SOLUTIONS)
def test_agreement_on_islands(two_islands, solution_cls) -> None:
    import random

    rng = random.Random(5)
    objects = {i: rng.randrange(two_islands.num_nodes) for i in range(12)}
    reference = DijkstraKNN(two_islands, objects)
    candidate = solution_cls(two_islands, objects)
    for q in range(0, two_islands.num_nodes, 3):
        got = [(round(n.distance, 6), n.object_id) for n in candidate.query(q, 4)]
        expect = [
            (round(n.distance, 6), n.object_id) for n in reference.query(q, 4)
        ]
        assert got == expect, f"query at {q}"
