"""Property-based oracle tests: indexes vs networkx ground truth.

Random small connected graphs + random object placements + random
queries; the indexed solutions must return exactly the brute-force kNN
computed from networkx single-source distances.  This is the widest
net for catching index edge cases (disconnected leaves, objects at
borders, duplicate distances, unreachable objects).
"""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import RoadNetwork
from repro.knn import GTreeIndex, Neighbor, ToainKNN, VTreeKNN, canonical_knn


@st.composite
def graph_objects_query(draw):
    n = draw(st.integers(min_value=4, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    # Random connected base tree + extra edges.
    edges = [(i, rng.randrange(i), float(rng.randint(1, 20))) for i in range(1, n)]
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, float(rng.randint(1, 20))))
    num_objects = draw(st.integers(min_value=1, max_value=8))
    objects = {i: rng.randrange(n) for i in range(num_objects)}
    query = draw(st.integers(min_value=0, max_value=n - 1))
    k = draw(st.integers(min_value=1, max_value=num_objects + 2))
    return RoadNetwork(n, edges, name=f"h{seed}"), objects, query, k


def oracle_knn(network: RoadNetwork, objects: dict[int, int], query: int, k: int):
    graph = nx.Graph()
    graph.add_nodes_from(network.nodes())
    for edge in network.edges():
        graph.add_edge(edge.u, edge.v, weight=edge.weight)
    dist = nx.single_source_dijkstra_path_length(graph, query)
    pool = {
        object_id: dist[node]
        for object_id, node in objects.items()
        if node in dist
    }
    return canonical_knn(pool, k)


def as_tuples(result: list[Neighbor]):
    return [(round(n.distance, 7), n.object_id) for n in result]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_objects_query())
def test_gtree_matches_oracle(case) -> None:
    """The overlay search V-tree runs, with no cached bound."""
    network, objects, query, k = case
    index = GTreeIndex(network, leaf_size=8, fanout=3)
    occupancy: dict[int, dict[int, set[int]]] = {}
    for object_id, node in objects.items():
        leaf = occupancy.setdefault(index.leaf_of[node], {})
        leaf.setdefault(node, set()).add(object_id)
    assert as_tuples(index.knn_search(query, k, occupancy)) == as_tuples(
        oracle_knn(network, objects, query, k)
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_objects_query())
def test_vtree_matches_oracle(case) -> None:
    network, objects, query, k = case
    solution = VTreeKNN(network, objects, leaf_size=8, fanout=3, cache_size=4)
    assert as_tuples(solution.query(query, k)) == as_tuples(
        oracle_knn(network, objects, query, k)
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_objects_query(), st.sampled_from([0.05, 0.3, 1.0]))
def test_toain_matches_oracle(case, core_fraction) -> None:
    network, objects, query, k = case
    solution = ToainKNN(network, objects, core_fraction=core_fraction)
    assert as_tuples(solution.query(query, k)) == as_tuples(
        oracle_knn(network, objects, query, k)
    )


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_objects_query(), st.integers(min_value=0, max_value=1000))
def test_vtree_matches_oracle_after_churn(case, churn_seed) -> None:
    """V-tree's cache maintenance is its riskiest code path; churn it
    hard (including cache-warming queries between updates) and compare."""
    network, objects, query, k = case
    solution = VTreeKNN(network, objects, leaf_size=8, fanout=3, cache_size=3)
    rng = random.Random(churn_seed)
    live = dict(objects)
    next_id = max(objects) + 1
    for step in range(12):
        if step % 4 == 0:
            solution.query(rng.randrange(network.num_nodes), 2)
        if live and rng.random() < 0.5:
            victim = rng.choice(sorted(live))
            solution.delete(victim)
            del live[victim]
        else:
            node = rng.randrange(network.num_nodes)
            solution.insert(next_id, node)
            live[next_id] = node
            next_id += 1
    assert as_tuples(solution.query(query, k)) == as_tuples(
        oracle_knn(network, live, query, k)
    )
