"""The vectorized contraction-hierarchy engine vs the plain kernels.

The CH engine's correctness story is *bit-identity on integral-weight
networks*: every path sum is exact in float64, so hub-label joins and
plain Dijkstra produce the same floats, and a routed solution
(:class:`DijkstraKNN` with a ``ch=``) must return answers
indistinguishable from the un-routed one.  On float-weight
networks addition order differs in the last ulp, so ``ch.exact`` is
False and auto-routing must stay disengaged.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.graph import ContractionHierarchy, calibrate_ch_cutoff, grid_network
from repro.graph.ch import CHKernels
from repro.graph.road_network import RoadNetwork
from repro.graph.shortest_path import shortest_path_distance
from repro.knn import DijkstraKNN


def int_network(num_nodes: int, seed: int, extra: float = 1.6) -> RoadNetwork:
    """A connected random network with *integral* weights that still
    upper-bound Euclidean node distance."""
    rng = random.Random(seed)
    coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(num_nodes)]

    def weight(u: int, v: int) -> int:
        (ux, uy), (vx, vy) = coords[u], coords[v]
        return max(1, math.ceil(math.hypot(ux - vx, uy - vy) * 1.3))

    edges: list[tuple[int, int, float]] = []
    for v in range(1, num_nodes):  # random spanning tree: connected
        u = rng.randrange(v)
        edges.append((u, v, float(weight(u, v))))
    for _ in range(int(num_nodes * extra)):
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            edges.append((u, v, float(weight(u, v))))
    return RoadNetwork(num_nodes, edges, coordinates=coords, name=f"int-{seed}")


def sample_objects(network: RoadNetwork, count: int, seed: int) -> dict[int, int]:
    rng = random.Random(seed)
    return {oid: rng.randrange(network.num_nodes) for oid in range(count)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_point_to_point_matches_dijkstra(seed: int) -> None:
    network = int_network(90, seed)
    ch = ContractionHierarchy(network, seed=seed)
    assert ch.exact
    kern = ch.kernels
    rng = random.Random(seed + 100)
    for _ in range(40):
        s, t = rng.randrange(90), rng.randrange(90)
        expected = shortest_path_distance(network, s, t)
        assert kern.point_to_point(s, t) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_routed_dijkstra_knn_is_bit_identical(seed: int) -> None:
    network = int_network(120, seed)
    ch = ContractionHierarchy(network, seed=seed)
    objects = sample_objects(network, 14, seed + 7)
    plain = DijkstraKNN(network, dict(objects))
    routed = DijkstraKNN(network, dict(objects), ch=ch, ch_cutoff=0.0)
    assert routed._route_kernels(3) is ch.kernels  # cutoff 0 forces CH
    rng = random.Random(seed + 9)
    for _ in range(25):
        location, k = rng.randrange(120), rng.choice([1, 3, 5, 8])
        assert routed.query(location, k) == plain.query(location, k)


@pytest.mark.parametrize("seed", [0, 1])
def test_routed_batch_is_bit_identical(seed: int) -> None:
    network = int_network(110, seed)
    ch = ContractionHierarchy(network, seed=seed)
    objects = sample_objects(network, 10, seed + 3)
    rng = random.Random(seed + 5)
    locations = [rng.randrange(110) for _ in range(30)]
    ks = [rng.choice([1, 2, 4, 6]) for _ in locations]

    plain = DijkstraKNN(network, dict(objects))
    routed = DijkstraKNN(network, dict(objects), ch=ch, ch_cutoff=0.0)
    assert routed.query_batch(locations, ks) == plain.query_batch(locations, ks)


def test_mutations_rebuild_object_buckets() -> None:
    network = int_network(100, 4)
    ch = ContractionHierarchy(network, seed=4)
    objects = sample_objects(network, 8, 11)
    plain = DijkstraKNN(network, dict(objects))
    routed = DijkstraKNN(network, dict(objects), ch=ch, ch_cutoff=0.0)
    rng = random.Random(12)
    for step in range(12):
        if step % 3 == 0:
            oid = 100 + step
            node = rng.randrange(100)
            plain.insert(oid, node)
            routed.insert(oid, node)
        elif step % 3 == 1 and plain.object_locations():
            oid = next(iter(plain.object_locations()))
            plain.delete(oid)
            routed.delete(oid)
        location, k = rng.randrange(100), rng.choice([2, 4])
        assert routed.query(location, k) == plain.query(location, k)


def test_float_weights_disable_auto_routing() -> None:
    network = grid_network(8, 8, seed=1)  # Euclidean × detour: float weights
    ch = ContractionHierarchy(network)
    assert not ch.exact
    routed = DijkstraKNN(network, {1: 5, 2: 40}, ch=ch, ch_cutoff=0.0)
    assert routed._route_kernels(2) is network.kernels


def test_cutoff_gates_routing() -> None:
    network = int_network(80, 6)
    ch = ContractionHierarchy(network, seed=6)
    # 8 objects, k=2 -> expected settled = 2*80/8 = 20.
    routed = DijkstraKNN(network, sample_objects(network, 8, 6), ch=ch, ch_cutoff=21.0)
    assert routed._route_kernels(2) is network.kernels
    routed = DijkstraKNN(network, sample_objects(network, 8, 6), ch=ch, ch_cutoff=20.0)
    assert routed._route_kernels(2) is ch.kernels
    # No objects: nothing to route to.
    assert DijkstraKNN(network, {}, ch=ch, ch_cutoff=0.0)._route_kernels(2) is (
        network.kernels
    )


def test_mismatched_network_rejected() -> None:
    network = int_network(40, 7)
    other = int_network(40, 8)
    ch = ContractionHierarchy(other)
    with pytest.raises(ValueError, match="different network"):
        DijkstraKNN(network, {1: 0}, ch=ch)


def test_disconnected_components() -> None:
    # Two disjoint triangles with integral weights.
    edges = [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0),
             (3, 4, 2.0), (4, 5, 3.0), (3, 5, 4.0)]
    network = RoadNetwork(6, edges, name="two-triangles")
    ch = ContractionHierarchy(network)
    assert ch.exact
    kern = ch.kernels
    assert kern.point_to_point(0, 4) == math.inf
    assert kern.point_to_point(0, 2) == shortest_path_distance(network, 0, 2)
    plain = DijkstraKNN(network, {1: 4, 2: 5})
    routed = DijkstraKNN(network, {1: 4, 2: 5}, ch=ch, ch_cutoff=0.0)
    for node in range(6):
        assert routed.query(node, 2) == plain.query(node, 2)


def test_hierarchy_structure() -> None:
    network = int_network(70, 9)
    ch = ContractionHierarchy(network, seed=9)
    assert sorted(ch.rank.tolist()) == list(range(70))  # a permutation
    assert ch.num_nodes == 70
    assert ch.num_shortcuts >= 0
    # The up/down halves partition originals + shortcuts: every edge
    # goes up in rank on the up half.
    counts = np.diff(ch.up_indptr)
    srcs = np.repeat(np.arange(70), counts)
    assert np.all(ch.rank[srcs] < ch.rank[ch.up_indices])


def test_pickle_round_trip_preserves_answers() -> None:
    import pickle

    network = int_network(60, 11)
    ch = ContractionHierarchy(network, seed=11)
    clone = pickle.loads(pickle.dumps(ch))
    assert clone.exact
    assert np.array_equal(clone.rank, ch.rank)
    kern, kern2 = ch.kernels, CHKernels(clone)
    for s, t in [(0, 59), (13, 42), (7, 7)]:
        assert kern.point_to_point(s, t) == kern2.point_to_point(s, t)


def test_calibrate_ch_cutoff_runs() -> None:
    network = int_network(90, 12)
    cutoff = calibrate_ch_cutoff(network, samples=3, num_objects=12, k=3)
    assert math.isfinite(cutoff) and cutoff > 0


# ----------------------------------------------------------------------
# Batched builder
# ----------------------------------------------------------------------


def complete_graph(num_nodes: int, seed: int) -> RoadNetwork:
    rng = random.Random(seed)
    edges = [
        (u, v, float(rng.randint(1, 9)))
        for u in range(num_nodes)
        for v in range(u + 1, num_nodes)
    ]
    return RoadNetwork(num_nodes, edges, name=f"K{num_nodes}")


def wheel_graph(rim: int, seed: int) -> RoadNetwork:
    """Hub 0 joined to every node of the cycle ``1 .. rim``."""
    rng = random.Random(seed)
    edges = [(0, v, float(rng.randint(1, 9))) for v in range(1, rim + 1)]
    edges += [
        (v, v % rim + 1, float(rng.randint(1, 9))) for v in range(1, rim + 1)
    ]
    return RoadNetwork(rim + 1, edges, name=f"wheel-{rim}")


DENSE_AND_DEGENERATE = {
    "complete-12": lambda: complete_graph(12, 4),
    "wheel-11": lambda: wheel_graph(11, 5),
    "two-nodes": lambda: RoadNetwork(2, [(0, 1, 3.0)]),
    # Node 0 is isolated; {1, 2, 3} and {4, 5, 6, 7} are two components.
    "isolated-and-two-components": lambda: RoadNetwork(
        8,
        [(1, 2, 2.0), (2, 3, 2.0), (1, 3, 5.0),
         (4, 5, 1.0), (5, 6, 4.0), (6, 7, 1.0), (4, 7, 7.0)],
    ),
    **{f"int-90-seed-{seed}": (lambda s=seed: int_network(90, s))
       for seed in (0, 1, 2)},
}


@pytest.mark.parametrize("graph", sorted(DENSE_AND_DEGENERATE))
def test_builder_exact_on_dense_and_degenerate_graphs(graph: str) -> None:
    """The batched rounds contract every graph down to its last node —
    dense cores where each round's independent set is one node,
    isolated nodes and disconnected parts included — and answer every
    pair exactly."""
    network = DENSE_AND_DEGENERATE[graph]()
    ch = ContractionHierarchy(network, seed=1)
    assert ch.exact
    assert sorted(ch.rank.tolist()) == list(range(network.num_nodes))
    kern = ch.kernels
    for s in range(network.num_nodes):
        for t in range(network.num_nodes):
            assert kern.point_to_point(s, t) == shortest_path_distance(
                network, s, t
            ), (s, t)


@pytest.mark.slow
def test_pooled_build_is_exact_and_deterministic() -> None:
    """workers=2 splits witness sweeps across processes.  Sweep merging
    differs per share, so the shortcut *set* may gain a few redundant
    (still-correct) entries vs the serial build — but the pooled build
    must be deterministic run-to-run and answer bit-exactly."""
    network = int_network(400, 13)
    pooled = ContractionHierarchy(
        network, seed=13, workers=2
    )
    again = ContractionHierarchy(
        network, seed=13, workers=2
    )
    for attr in (
        "rank", "up_indptr", "up_indices", "up_weights",
        "down_indptr", "down_indices", "down_weights",
        "shortcut_u", "shortcut_v", "shortcut_w",
    ):
        assert np.array_equal(getattr(pooled, attr), getattr(again, attr)), attr
    kern = pooled.kernels
    rng = random.Random(13)
    for _ in range(40):
        s, t = rng.randrange(400), rng.randrange(400)
        assert kern.point_to_point(s, t) == shortest_path_distance(
            network, s, t
        )


# ----------------------------------------------------------------------
# Label-cache byte budget
# ----------------------------------------------------------------------


def test_label_cache_respects_byte_budget() -> None:
    """Adversarial access pattern — every query from a location never
    seen before — must not grow the label cache past its byte budget."""
    from repro.graph.kernels import KERNEL_CALLS

    network = int_network(300, 5)
    ch = ContractionHierarchy(network, seed=5)

    unbounded = CHKernels(ch)
    for node in range(300):
        unbounded.label(node)
    full_bytes = unbounded.label_cache_bytes
    assert full_bytes > 0

    budget = full_bytes // 8
    bounded = CHKernels(ch, label_budget_bytes=budget)
    assert bounded.label_budget_bytes == budget
    before = KERNEL_CALLS["ch.label_evictions"]
    order = list(range(300))
    random.Random(0).shuffle(order)
    for node in order:  # never repeats a location
        bounded.label(node)
        assert bounded.label_cache_bytes <= budget
    assert KERNEL_CALLS["ch.label_evictions"] > before

    # Eviction must never change answers: rebuilt labels are identical.
    rng = random.Random(99)
    for _ in range(25):
        s, t = rng.randrange(300), rng.randrange(300)
        assert bounded.point_to_point(s, t) == unbounded.point_to_point(s, t)
        assert bounded.label_cache_bytes <= budget


# ----------------------------------------------------------------------
# Automatic ch_cutoff calibration
# ----------------------------------------------------------------------


def test_auto_cutoff_resolves_lazily() -> None:
    network = int_network(90, 14)
    ch = ContractionHierarchy(network, seed=14)
    solution = DijkstraKNN(network, sample_objects(network, 8, 14), ch=ch)
    assert solution._ch_cutoff is None  # not measured at construction
    measured = solution.ch_cutoff  # first use triggers the probe
    assert math.isfinite(measured) and measured > 0
    assert solution._ch_cutoff == measured  # cached, not re-measured


def test_auto_cutoff_fallback_and_override() -> None:
    from repro.knn.dijkstra_knn import DEFAULT_CH_CUTOFF

    network = int_network(60, 15)
    # No hierarchy: nothing to measure, fall back to the static default.
    plain = DijkstraKNN(network, {1: 0})
    assert plain.ch_cutoff == DEFAULT_CH_CUTOFF
    # Inexact hierarchy: routing is off, probe must not run.
    floats = grid_network(6, 6, seed=2)
    ch = ContractionHierarchy(floats)
    assert not ch.exact
    assert DijkstraKNN(floats, {1: 0}, ch=ch).ch_cutoff == DEFAULT_CH_CUTOFF
    # Explicit override wins and survives spawn().
    ch_int = ContractionHierarchy(network, seed=15)
    forced = DijkstraKNN(network, {1: 0}, ch=ch_int, ch_cutoff=123.0)
    assert forced.ch_cutoff == 123.0
    assert forced.spawn({2: 1}).ch_cutoff == 123.0
