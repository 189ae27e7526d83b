"""Cross-solution agreement: every index answers exactly like Dijkstra.

This is the load-bearing correctness suite for the kNN layer: V-tree
and TOAIN must return bit-identical canonical answers to the
index-free Dijkstra reference, across networks, ks, and update
churn (the update paths are where index bugs hide).
"""

import random

import pytest

from repro.graph import grid_network, random_geometric_network, ring_radial_network
from repro.knn import DijkstraKNN, Neighbor, ToainKNN, VTreeKNN

INDEXED = [VTreeKNN, ToainKNN]


def canonical(result):
    return [(round(n.distance, 6), n.object_id) for n in result]


@pytest.fixture(scope="module")
def agreement_net():
    return grid_network(14, 14, seed=11, diagonal_fraction=0.2, deletion_fraction=0.1)


@pytest.mark.parametrize("solution_cls", INDEXED)
def test_static_agreement(agreement_net, solution_cls) -> None:
    rng = random.Random(5)
    objects = {i: rng.randrange(agreement_net.num_nodes) for i in range(30)}
    reference = DijkstraKNN(agreement_net, objects)
    candidate = solution_cls(agreement_net, objects)
    for _ in range(40):
        q = rng.randrange(agreement_net.num_nodes)
        k = rng.choice([1, 2, 5, 10])
        assert canonical(candidate.query(q, k)) == canonical(reference.query(q, k))


@pytest.mark.parametrize("solution_cls", INDEXED)
def test_agreement_under_churn(agreement_net, solution_cls) -> None:
    rng = random.Random(6)
    objects = {i: rng.randrange(agreement_net.num_nodes) for i in range(25)}
    reference = DijkstraKNN(agreement_net, objects)
    candidate = solution_cls(agreement_net, objects)
    next_id = len(objects)
    for step in range(60):
        action = rng.random()
        live = sorted(reference.object_locations())
        if action < 0.3 and len(live) > 3:
            victim = rng.choice(live)
            reference.delete(victim)
            candidate.delete(victim)
        elif action < 0.6:
            node = rng.randrange(agreement_net.num_nodes)
            reference.insert(next_id, node)
            candidate.insert(next_id, node)
            next_id += 1
        else:
            q = rng.randrange(agreement_net.num_nodes)
            k = rng.choice([1, 3, 8])
            assert canonical(candidate.query(q, k)) == canonical(
                reference.query(q, k)
            ), f"divergence at step {step}"


@pytest.mark.parametrize(
    "make_network",
    [
        lambda: ring_radial_network(6, 18, seed=2),
        lambda: random_geometric_network(250, radius=0.09, seed=4),
        lambda: grid_network(6, 40, seed=8),  # long skinny grid
    ],
    ids=["ring-radial", "geometric", "skinny-grid"],
)
@pytest.mark.parametrize("solution_cls", INDEXED)
def test_agreement_across_topologies(make_network, solution_cls) -> None:
    net = make_network()
    rng = random.Random(3)
    objects = {i: rng.randrange(net.num_nodes) for i in range(20)}
    reference = DijkstraKNN(net, objects)
    candidate = solution_cls(net, objects)
    for _ in range(25):
        q = rng.randrange(net.num_nodes)
        assert canonical(candidate.query(q, 5)) == canonical(reference.query(q, 5))


class TestEdgeCases:
    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_k_zero_returns_empty(self, small_grid, solution_cls) -> None:
        solution = solution_cls(small_grid, {0: 1})
        assert solution.query(0, 0) == []

    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_k_exceeds_objects(self, small_grid, solution_cls) -> None:
        solution = solution_cls(small_grid, {0: 1, 1: 5})
        result = solution.query(0, 10)
        assert len(result) == 2

    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_empty_object_set(self, small_grid, solution_cls) -> None:
        solution = solution_cls(small_grid)
        assert solution.query(0, 5) == []

    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_object_at_query_node(self, small_grid, solution_cls) -> None:
        solution = solution_cls(small_grid, {42: 7})
        result = solution.query(7, 1)
        assert result == [Neighbor(0.0, 42)]

    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_multiple_objects_same_node(self, small_grid, solution_cls) -> None:
        solution = solution_cls(small_grid, {1: 9, 2: 9, 3: 9})
        result = solution.query(9, 2)
        assert [n.object_id for n in result] == [1, 2]  # id tie-break
        assert all(n.distance == 0.0 for n in result)

    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_double_insert_rejected(self, small_grid, solution_cls) -> None:
        solution = solution_cls(small_grid, {1: 0})
        with pytest.raises(KeyError):
            solution.insert(1, 2)

    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_delete_missing_rejected(self, small_grid, solution_cls) -> None:
        solution = solution_cls(small_grid)
        with pytest.raises(KeyError):
            solution.delete(404)

    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_paper_interface_aliases(self, small_grid, solution_cls) -> None:
        solution = solution_cls(small_grid)
        solution.I(5, 3)
        assert solution.Q(3, 1) == [Neighbor(0.0, 5)]
        solution.D(5)
        assert solution.Q(3, 1) == []


class TestSpawn:
    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_spawn_holds_given_objects_only(self, small_grid, solution_cls) -> None:
        parent = solution_cls(small_grid, {1: 0, 2: 5})
        child = parent.spawn({3: 7})
        assert child.object_locations() == {3: 7}
        assert parent.object_locations() == {1: 0, 2: 5}

    @pytest.mark.parametrize("solution_cls", INDEXED)
    def test_spawn_shares_network_index(self, small_grid, solution_cls) -> None:
        parent = solution_cls(small_grid, {1: 0})
        child = parent.spawn({2: 3})
        assert child.index is parent.index

    @pytest.mark.parametrize("solution_cls", [DijkstraKNN] + INDEXED)
    def test_spawned_instances_are_isolated(self, small_grid, solution_cls) -> None:
        parent = solution_cls(small_grid, {})
        a = parent.spawn({1: 2})
        b = parent.spawn({1: 9})
        a.delete(1)
        assert b.object_locations() == {1: 9}
