"""Unit tests for the RoadNetwork graph store."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import RoadNetwork


def mirrors(net: RoadNetwork) -> list[str]:
    """The Python list/dict copies of its arrays that ``net`` holds."""
    return sorted(
        key for key, value in vars(net).items()
        if isinstance(value, (list, dict))
    )


class TestConstruction:
    def test_basic_counts(self) -> None:
        net = RoadNetwork(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert net.num_nodes == 3
        assert net.num_edges == 2

    def test_empty_graph(self) -> None:
        net = RoadNetwork(0, [])
        assert net.num_nodes == 0
        assert net.num_edges == 0
        assert net.is_connected()

    def test_parallel_edges_keep_minimum_weight(self) -> None:
        net = RoadNetwork(2, [(0, 1, 5.0), (1, 0, 3.0), (0, 1, 7.0)])
        assert net.num_edges == 1
        assert net.edge_weight(0, 1) == 3.0

    def test_self_loop_rejected(self) -> None:
        with pytest.raises(ValueError, match="self loop"):
            RoadNetwork(2, [(1, 1, 1.0)])

    def test_non_positive_weight_rejected(self) -> None:
        with pytest.raises(ValueError, match="non-positive"):
            RoadNetwork(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError, match="non-positive"):
            RoadNetwork(2, [(0, 1, -1.0)])

    def test_out_of_range_endpoint_rejected(self) -> None:
        with pytest.raises(IndexError):
            RoadNetwork(2, [(0, 2, 1.0)])

    def test_negative_node_count_rejected(self) -> None:
        with pytest.raises(ValueError):
            RoadNetwork(-1, [])

    def test_coordinate_length_mismatch_rejected(self) -> None:
        with pytest.raises(ValueError, match="coordinate"):
            RoadNetwork(2, [(0, 1, 1.0)], coordinates=[(0.0, 0.0)])

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_non_finite_weight_rejected(self, weight: float) -> None:
        with pytest.raises(ValueError, match=r"edge \(0, 1\).*non-finite"):
            RoadNetwork(3, [(0, 1, weight), (1, 2, 1.0)])

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_non_finite_weight_rejected_from_arrays(
        self, weight: float
    ) -> None:
        with pytest.raises(ValueError, match=r"edge \(0, 1\).*non-finite"):
            RoadNetwork.from_edge_arrays(3, [0, 1], [1, 2], [weight, 1.0])

    def test_non_integral_node_id_rejected(self) -> None:
        with pytest.raises(ValueError, match="non-integral node id"):
            RoadNetwork(3, [(0, 1.5, 1.0)])

    def test_non_integral_node_id_rejected_from_arrays(self) -> None:
        with pytest.raises(ValueError, match="non-integral node id"):
            RoadNetwork.from_edge_arrays(3, [0], [1.5], [1.0])

    def test_fresh_network_holds_no_mirror(self) -> None:
        """The arrays are a network's only eager state: each mirror is
        built on first use, and a by-value pickle leaves them behind."""
        net = RoadNetwork(
            3, [(0, 1, 1.0), (1, 2, 2.0)],
            coordinates=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
        )
        assert mirrors(net) == []
        net.csr
        list(net.edges())
        net.coordinates
        assert mirrors(net) == [
            "_coordinates", "_edge_set", "_offsets", "_targets", "_weights",
        ]
        clone = pickle.loads(pickle.dumps(net))
        assert mirrors(clone) == []
        assert clone == net
        assert list(clone.edges()) == list(net.edges())


class TestAccessors:
    def test_neighbors_symmetric(self) -> None:
        net = RoadNetwork(3, [(0, 1, 1.5), (1, 2, 2.5)])
        assert dict(net.neighbors(1)) == {0: 1.5, 2: 2.5}
        assert dict(net.neighbors(0)) == {1: 1.5}

    def test_degree(self) -> None:
        net = RoadNetwork(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        assert net.degree(0) == 3
        assert net.degree(3) == 1

    def test_has_edge_and_weight(self) -> None:
        net = RoadNetwork(3, [(0, 2, 4.0)])
        assert net.has_edge(2, 0)
        assert not net.has_edge(0, 1)
        assert net.edge_weight(2, 0) == 4.0
        with pytest.raises(KeyError):
            net.edge_weight(0, 1)

    def test_edges_iterates_once_per_undirected_edge(self) -> None:
        net = RoadNetwork(3, [(0, 1, 1.0), (1, 2, 2.0)])
        edges = sorted((e.u, e.v) for e in net.edges())
        assert edges == [(0, 1), (1, 2)]

    def test_csr_consistency(self, small_grid) -> None:
        offsets, targets, weights = small_grid.csr
        assert len(offsets) == small_grid.num_nodes + 1
        assert offsets[-1] == 2 * small_grid.num_edges
        for node in small_grid.nodes():
            via_csr = {
                targets[i]: weights[i]
                for i in range(offsets[node], offsets[node + 1])
            }
            assert via_csr == dict(small_grid.neighbors(node))

    def test_coordinates_default_to_origin(self) -> None:
        net = RoadNetwork(2, [(0, 1, 1.0)])
        assert net.coordinate(0) == (0.0, 0.0)

    def test_average_degree(self) -> None:
        net = RoadNetwork(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert net.average_degree() == pytest.approx(1.5)

    def test_total_weight(self) -> None:
        net = RoadNetwork(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert net.total_weight() == pytest.approx(3.0)


class TestStructure:
    def test_connected_components(self) -> None:
        net = RoadNetwork(5, [(0, 1, 1.0), (2, 3, 1.0)])
        components = sorted(sorted(c) for c in net.connected_components())
        assert components == [[0, 1], [2, 3], [4]]
        assert not net.is_connected()

    def test_largest_component_subgraph(self) -> None:
        net = RoadNetwork(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        largest = net.largest_component_subgraph()
        assert largest.num_nodes == 3
        assert largest.num_edges == 2
        assert largest.is_connected()

    def test_induced_subgraph_remaps_ids(self) -> None:
        net = RoadNetwork(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        sub = net.induced_subgraph([1, 2])
        assert sub.num_nodes == 2
        assert sub.edge_weight(0, 1) == 2.0

    def test_induced_subgraph_rejects_duplicates(self) -> None:
        net = RoadNetwork(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            net.induced_subgraph([0, 0])

    def test_equality(self) -> None:
        a = RoadNetwork(2, [(0, 1, 1.0)])
        b = RoadNetwork(2, [(1, 0, 1.0)])
        c = RoadNetwork(2, [(0, 1, 2.0)])
        assert a == b
        assert a != c


edge_lists = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.one_of(
                    st.integers(1, 5).map(float),
                    st.floats(0.01, 100.0, allow_nan=False),
                ),
            ).filter(lambda e: e[0] != e[1]),
            max_size=40,
        ),
    )
)


@settings(deadline=None)
@given(case=edge_lists)
def test_triples_and_arrays_build_the_same_network(case) -> None:
    """``RoadNetwork(n, edges)`` and ``from_edge_arrays`` agree, and
    both keep the first-seen order and minimum weight of every edge."""
    n, edges = case
    net = RoadNetwork(n, edges)
    u, v, w = (np.array(col) for col in zip(*edges)) if edges else ([],) * 3
    other = RoadNetwork.from_edge_arrays(n, u, v, w)
    for got, want in zip(
        (*net.csr_arrays, net.coord_arrays),
        (*other.csr_arrays, other.coord_arrays),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert net.csr == other.csr
    assert list(net.edges()) == list(other.edges())
    assert net.total_weight() == other.total_weight()

    best: dict[tuple[int, int], float] = {}
    for a, b, weight in edges:
        key = (min(a, b), max(a, b))
        best[key] = min(best.get(key, math.inf), weight)
    assert [(e.u, e.v, e.weight) for e in net.edges()] == [
        (*key, weight) for key, weight in best.items()
    ]
    expected: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (a, b), weight in best.items():
        expected[a].append((b, weight))
        expected[b].append((a, weight))
    assert [list(net.neighbors(node)) for node in range(n)] == expected

    # Every other node, in reverse: ids compact in the given order.
    remap = {node: idx for idx, node in enumerate(range(n - 1, -1, -2))}
    sub = net.induced_subgraph(list(remap))
    assert [(e.u, e.v, e.weight) for e in sub.edges()] == [
        (min(remap[a], remap[b]), max(remap[a], remap[b]), weight)
        for (a, b), weight in best.items()
        if a in remap and b in remap
    ]
