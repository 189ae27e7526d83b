"""Property suite pinning the vectorized kernels to the heapq engines.

The delta-stepping kernels in :mod:`repro.graph.kernels` promise
*bit-for-bit identical* results to the classic ``heapq`` reference
engines — same distances, same settled sets, same top-k answers
including ties.  This suite pins that promise on seeded random graphs
(connected and disconnected, float and integer weights, heavy ties),
plus the bounded variant, buffer reuse across calls, and Dial mode.
"""

from __future__ import annotations

import math
import random
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph import RoadNetwork, grid_network
from repro.graph import kernels as kernels_module
from repro.graph.kernels import KERNEL_CALLS, CSRKernels, dial_delta
from repro.graph.shortest_path import (
    KERNEL_MIN_NODES,
    dijkstra,
    dijkstra_expansion,
    dijkstra_heapq,
)
from repro.knn import DijkstraKNN
from tests.conftest import place_objects, sweeps
from tests.test_knn_batch import canonical, oracle_topk


def random_network(seed: int, tie_heavy: bool = False) -> RoadNetwork:
    """Random graph, possibly disconnected; integer weights breed ties."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if tie_heavy:
            w = float(rng.randint(1, 4))
        else:
            w = rng.uniform(0.1, 8.0)
        edges.append((u, v, w))
    return RoadNetwork(n, edges, name=f"rand-{seed}")


def as_dict(nodes: np.ndarray, values: np.ndarray) -> dict:
    return dict(zip(nodes.tolist(), values.tolist()))


@st.composite
def network_and_source(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    tie_heavy = draw(st.booleans())
    net = random_network(seed, tie_heavy)
    source = draw(st.integers(min_value=0, max_value=net.num_nodes - 1))
    return net, source


class TestSSSPEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(network_and_source())
    def test_exactly_matches_heapq(self, net_source) -> None:
        net, source = net_source
        reference = dijkstra_heapq(net, source)
        nodes, dists = net.kernels.sssp(source)
        assert as_dict(nodes, dists) == reference

    @settings(max_examples=80, deadline=None)
    @given(network_and_source(), st.floats(min_value=0.0, max_value=20.0))
    def test_bounded_matches_heapq(self, net_source, bound) -> None:
        net, source = net_source
        reference = dijkstra_heapq(net, source, max_distance=bound)
        nodes, dists = net.kernels.sssp(source, max_distance=bound)
        assert as_dict(nodes, dists) == reference

    def test_disconnected_components_absent(self) -> None:
        net = RoadNetwork(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)])
        nodes, dists = net.kernels.sssp(0)
        assert as_dict(nodes, dists) == {0: 0.0, 1: 1.0, 2: 3.0}

    @pytest.mark.parametrize("source", [-1, 144])
    def test_source_out_of_range(self, source) -> None:
        net = grid_network(12, 12, seed=9)
        with pytest.raises(IndexError, match="out of range"):
            net.kernels.sssp(source)

    def test_buffer_reuse_is_clean_across_calls(self) -> None:
        net = random_network(421)
        kern = net.kernels
        counts = np.zeros(net.num_nodes, dtype=np.int32)
        counts[::7] = 1
        for source in range(min(net.num_nodes, 12)):
            reference = dijkstra_heapq(net, source)
            nodes, dists = kern.sssp(source)
            assert as_dict(nodes, dists) == reference
            # Interleave bounded searches to dirty the touched set.
            bounded_nodes, bounded_dists = kern.sssp(source, max_distance=2.5)
            assert as_dict(bounded_nodes, bounded_dists) == dijkstra_heapq(
                net, source, max_distance=2.5
            )
            # Top-k and batch sweeps share the buffer too.
            kern.topk_objects(source, counts, 2)
            kern.knn_batch([0, source], [1, 3], counts)


class TestTopKEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        network_and_source(),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=9999),
    )
    def test_topk_matches_heapq_expansion(self, net_source, k, obj_seed) -> None:
        net, source = net_source
        rng = random.Random(obj_seed)
        counts = np.zeros(net.num_nodes, dtype=np.int64)
        for _ in range(rng.randint(0, net.num_nodes)):
            counts[rng.randrange(net.num_nodes)] += 1

        # Reference: the classic expansion-until-kth-settled collection.
        found: list[tuple[float, int]] = []
        kth = float("inf")
        for node, distance in dijkstra_expansion(net, source):
            if len(found) >= k and distance > kth:
                break
            found.extend([(distance, node)] * int(counts[node]))
            if len(found) >= k:
                found.sort()
                kth = found[k - 1][0]
        reference = sorted(found)[:k]

        nodes, dists = net.kernels.topk_objects(source, counts, k)
        result = sorted(
            (float(d), int(node))
            for node, d in zip(nodes, dists)
            for _ in range(int(counts[node]))
        )[:k]
        assert result == reference

    def test_k_zero_returns_empty(self) -> None:
        net = random_network(9)
        counts = np.ones(net.num_nodes, dtype=np.int64)
        nodes, dists = net.kernels.topk_objects(0, counts, 0)
        assert len(nodes) == 0 and len(dists) == 0

    def test_dijkstra_knn_query_equals_legacy_answers(self, small_grid) -> None:
        objects = place_objects(small_grid, 20)
        solution = DijkstraKNN(small_grid, objects)
        for location in (0, 17, small_grid.num_nodes - 1):
            answer = solution.query(location, 5)
            # Legacy reference: expand with heapq, collect, sort, trim.
            found = []
            kth = float("inf")
            obj_at: dict[int, list[int]] = {}
            for oid, node in objects.items():
                obj_at.setdefault(node, []).append(oid)
            for node, distance in dijkstra_expansion(small_grid, location):
                if len(found) >= 5 and distance > kth:
                    break
                for oid in obj_at.get(node, ()):
                    found.append((distance, oid))
                if len(found) >= 5:
                    found.sort()
                    kth = found[4][0]
            found.sort()
            assert [(n.distance, n.object_id) for n in answer] == found[:5]


#: Objects enough that the work model takes the heap for any group of
#: these tiny graphs (``objects=None`` always sweeps).
EVERY_GROUP_ON_THE_HEAP = 10**9


@st.composite
def engine_case(draw):
    """A possibly disconnected graph (integer weights breed ties), a
    count vector, its ordered ``(node, ±1)`` patches, and searches at
    any version — duplicate ``(source, version)`` pairs with different
    ``k``, ``k = 0``, and ``k`` at or past the object count included."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    net = random_network(seed, tie_heavy=draw(st.booleans()))
    n = net.num_nodes
    rng = random.Random(seed + 1)
    counts = np.zeros(n, dtype=np.int32)
    for _ in range(rng.randint(0, 2 * n)):
        counts[rng.randrange(n)] += 1
    current = counts.copy()
    seen_by_version = [current.copy()]
    patches = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        node = rng.randrange(n)
        delta = -1 if current[node] > 0 and rng.random() < 0.5 else 1
        current[node] += delta
        patches.append((node, delta))
        seen_by_version.append(current.copy())
    most = int(max(view.sum() for view in seen_by_version))
    searches = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=len(patches)),
            st.integers(min_value=0, max_value=most + 2),
        ),
        min_size=1, max_size=8,
    ))
    repeats = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(searches) - 1),
            st.integers(min_value=0, max_value=most + 2),
        ),
        max_size=3,
    ))
    searches += [searches[index][:2] + (k,) for index, k in repeats]
    return net, counts, patches, seen_by_version, searches


class TestHeapEngine:
    """The heap expansion, the shared sweep and a full ``dijkstra_heapq``
    oracle give the same top-k, distances bit-identical."""

    @settings(deadline=None)  # max_examples from the profile
    @given(engine_case(), st.booleans())
    def test_heap_equals_sweep_equals_oracle(self, case, cached) -> None:
        net, counts, patches, seen_by_version, searches = case
        if cached:  # int32 CSR arrays memmapped from disk
            with tempfile.TemporaryDirectory() as directory:
                net.save_cache(directory)
                self._check(
                    RoadNetwork.open_cache(directory), net, counts,
                    patches, seen_by_version, searches,
                )
        else:
            self._check(net, net, counts, patches, seen_by_version, searches)

    @staticmethod
    def _check(net, reference, counts, patches, seen_by_version, searches):
        sources, versions, ks = (list(column) for column in zip(*searches))
        kernels = net.kernels
        before = KERNEL_CALLS.copy()
        heap = kernels.knn_batch(
            sources, ks, counts, versions=versions, patches=patches,
            objects=EVERY_GROUP_ON_THE_HEAP,
        )
        assert KERNEL_CALLS["knn_batch"] == before["knn_batch"]
        sweep = kernels.knn_batch(
            sources, ks, counts, versions=versions, patches=patches
        )
        for source, version, k, one, other in zip(
            sources, versions, ks, heap, sweep
        ):
            seen = seen_by_version[version]
            expected = oracle_topk(reference, source, seen, k)
            assert canonical(*one, seen, k) == expected
            assert canonical(*other, seen, k) == expected
            # The solo entry point, on the materialised vector.
            solo = kernels.topk_objects(
                source, seen, k, objects=EVERY_GROUP_ON_THE_HEAP
            )
            assert canonical(*solo, seen, k) == expected

    def test_heap_returns_exactly_the_kth_distance_ball(self) -> None:
        """Every bearing node within the k-th distance (ties too), and
        nothing past it."""
        net = RoadNetwork(5, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 2.0),
                              (3, 4, 1.0)])
        counts = np.array([0, 1, 1, 1, 1], dtype=np.int32)
        nodes, dists = net.kernels.topk_objects(
            0, counts, 1, objects=EVERY_GROUP_ON_THE_HEAP
        )
        assert as_dict(nodes, dists) == {1: 1.0, 2: 1.0}


def sized_network(seed: int, tie_heavy: bool, wide: bool) -> RoadNetwork:
    """A random graph of 1-400 nodes with ``n/2 .. 2n`` edges, so the
    sparse draws fall apart into components; integer weights breed
    ties.  A narrow band keeps every weight within 25 % of the
    smallest; a wide one spreads them over three decades."""
    rng = random.Random(seed)
    n = rng.choice([rng.randint(1, 40), rng.randint(40, 400)])
    edges = []
    for _ in range(rng.randint(n // 2, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            if tie_heavy:
                weight = float(2 ** rng.randint(0, 10) if wide
                               else rng.randint(4, 5))
            else:
                weight = (math.exp(rng.uniform(0.0, math.log(1000.0)))
                          if wide else rng.uniform(1.0, 1.25))
            edges.append((u, v, weight))
    return RoadNetwork(n, edges, name=f"sized-{seed}")


def wide_grid(side: int, ratio: float) -> RoadNetwork:
    """``grid_network(side, side, seed=7)``'s edges with log-uniform
    weights in ``[1, ratio]``: a wide weight band on a narrow grid's
    topology."""
    base = grid_network(side, side, seed=7)
    indptr, indices, _ = base.csr_arrays
    sources = np.repeat(np.arange(base.num_nodes), np.diff(indptr))
    forward = sources < indices
    weights = np.exp(np.random.default_rng(side).uniform(
        0.0, math.log(ratio), int(forward.sum())
    ))
    return RoadNetwork.from_edge_arrays(
        base.num_nodes, sources[forward], indices[forward], weights
    )


def narrow_band(net: RoadNetwork) -> bool:
    """The work model's band verdict on ``net``: one capped window at
    any density."""
    return (
        net.kernels._relaxations_per_node() <= kernels_module._NARROW_BAND
    )


@st.composite
def capped_case(draw):
    """One group of searches and the object density that lands it in
    ``engine`` — ``"one_window"`` (one capped window) or ``"knn_batch"``
    (delta-wide windows) — on a narrow or a wide weight band.

    The density is the ``objects`` hint the work model reads; the real
    counts are drawn on their own (0 to 2n objects, so ``k`` often
    exceeds what a search can reach), and exactness may not lean on
    the hint.  A narrow band sweeps as one capped window at any density
    the hint gives, sparse included; a wide one only at a dense hint.
    Searches sit at any patch version, duplicates and ``k = 0``
    included.
    """
    engine = draw(st.sampled_from(["one_window", "knn_batch"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    net = sized_network(seed, draw(st.booleans()), draw(st.booleans()))
    narrow = narrow_band(net)
    n = net.num_nodes
    rng = random.Random(seed + 1)
    counts = np.zeros(n, dtype=np.int32)
    for _ in range(rng.randint(0, 2 * n)):
        counts[rng.randrange(n)] += 1
    current = counts.copy()
    seen_by_version = [current.copy()]
    patches = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        node = rng.randrange(n)
        delta = -1 if current[node] > 0 and rng.random() < 0.5 else 1
        current[node] += delta
        patches.append((node, delta))
        seen_by_version.append(current.copy())
    searches = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=len(patches)),
            st.integers(min_value=0, max_value=12),
        ),
        min_size=1, max_size=10,
    ))
    # The work model prices a group by its distinct searches' largest k.
    wanted: dict[tuple[int, int], int] = {}
    for source, version, k in searches:
        wanted[source, version] = max(wanted.get((source, version), 0), k)
    total_k = sum(wanted.values())
    kmax = max(wanted.values())
    assume(kmax > 0)
    one_window = kernels_module._ONE_WINDOW_WORK
    if engine == "one_window":
        # Too sparse for the heap, and on a wide band dense enough for
        # one window.
        low = 1 if narrow else max(1, -(-kmax * n // one_window))
        high = -(-total_k * n // kernels_module._HEAP_WORK) - 1
        assume(low <= high)
        objects = draw(st.integers(min_value=low, max_value=high))
    elif not narrow and kmax * n > one_window:
        objects = draw(st.integers(
            min_value=1, max_value=(kmax * n - 1) // one_window
        ))
    else:
        objects = None  # no density: the windowed sweep
    return (engine, narrow, net, counts, patches, seen_by_version, searches,
            objects)


class TestCappedSweep:
    """Every row of a sweep carries its tentative k-th cap, in both
    regimes: one capped window relaxed to a fixpoint (a narrow weight
    band, or dense objects) and delta-wide windows (sparse objects on a
    wide band).  Answers equal a full ``dijkstra_heapq`` oracle bit for
    bit, and every distance a row returns is the oracle's own float."""

    @settings(deadline=None)  # max_examples from the profile
    @given(capped_case())
    def test_capped_sweep_equals_oracle(self, case) -> None:
        (engine, narrow, net, counts, patches, seen_by_version, searches,
         objects) = case
        sources, versions, ks = (list(column) for column in zip(*searches))
        before = KERNEL_CALLS.copy()
        got = net.kernels.knn_batch(
            sources, ks, counts, versions=versions, patches=patches,
            objects=objects,
        )
        ran = Counter({
            name: KERNEL_CALLS[name] - before[name]
            for name in ("heap", "one_window", "knn_batch")
            if KERNEL_CALLS[name] != before[name]
        })
        assert ran == {engine: 1}
        exact: dict[int, dict] = {}
        for source, version, k, (nodes, dists) in zip(
            sources, versions, ks, got
        ):
            seen = seen_by_version[version]
            assert canonical(nodes, dists, seen, k) == oracle_topk(
                net, source, seen, k
            )
            if source not in exact:
                exact[source] = dijkstra_heapq(net, source)
            assert as_dict(nodes, dists) == {
                node: exact[source][node] for node in nodes.tolist()
            }
        # The solo entry point on the first search's materialised counts:
        # the same model, one row.
        source, version, k = searches[0]
        seen = seen_by_version[version]
        n = net.num_nodes
        if k == 0:
            solo_engine = None
        elif objects and k * n <= kernels_module._HEAP_WORK * objects:
            solo_engine = "heap"
        elif objects and (
            narrow or k * n <= kernels_module._ONE_WINDOW_WORK * objects
        ):
            solo_engine = "topk_one_window"
        else:
            solo_engine = "topk"
        before = KERNEL_CALLS.copy()
        solo = net.kernels.topk_objects(source, seen, k, objects=objects)
        assert KERNEL_CALLS - before == (
            Counter({solo_engine: 1}) if solo_engine else Counter()
        )
        assert canonical(*solo, seen, k) == oracle_topk(net, source, seen, k)

    def test_one_window_cap_stops_the_search(self) -> None:
        """Dense objects on a long path: the cap (the k-th tentative
        distance) stops the single window after the k-th object, so the
        search writes a few nodes, not the whole path."""
        n = 2_000
        net = RoadNetwork(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        counts = np.ones(n, dtype=np.int32)
        kernels = net.kernels
        # The densest hint that still keeps a lone search off the heap.
        objects = -(-3 * n // kernels_module._ONE_WINDOW_WORK)
        before = KERNEL_CALLS["one_window"]
        ((nodes, dists),) = kernels.knn_batch(
            [0], [3], counts, objects=objects
        )
        assert KERNEL_CALLS["one_window"] == before + 1
        assert as_dict(nodes, dists) == {0: 0.0, 1: 1.0, 2: 2.0}
        assert sum(map(len, kernels._touched)) < 10


class TestRelax:
    """One relax pass returns exactly the targets whose distance fell,
    sorted and duplicate-free, however many candidates tie on one."""

    def test_exact_tie_duplicates_return_once(self) -> None:
        net = RoadNetwork(6, [
            (1, 3, 1.0), (2, 3, 1.0),  # two candidates of 2.0 for node 3
            (1, 4, 3.0), (2, 4, 1.0),  # node 4: 4.0 loses, 2.0 wins
            (2, 5, 2.0),               # node 5: 3.0, no better than 3.0
            (0, 1, 1.0), (1, 2, 0.5),  # back edges: never better
        ])
        dist = np.array([0.0, 1.0, 1.0, np.inf, np.inf, 3.0])
        changed = net.kernels._relax(
            np.array([1, 2], dtype=np.int64), dist, 1, np.array([np.inf])
        )
        assert changed.tolist() == [3, 4]
        assert dist.tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_returns_exactly_the_fallen_targets(self, seed, wide) -> None:
        net = sized_network(seed, True, wide)  # integer weights: ties
        n = net.num_nodes
        rng = random.Random(seed)
        dist = np.array([
            float(rng.randint(0, 12)) if rng.random() < 0.6 else np.inf
            for _ in range(n)
        ])
        reached = np.flatnonzero(dist < np.inf)
        frontier = np.array(sorted(
            rng.sample(reached.tolist(), min(len(reached), 8))
        ), dtype=np.int64)
        assume(frontier.size)
        expected = dist.copy()
        indptr, indices, weights = net.csr_arrays
        for node in frontier.tolist():
            for edge in range(indptr[node], indptr[node + 1]):
                target = indices[edge]
                expected[target] = min(expected[target],
                                       dist[node] + weights[edge])
        before = dist.copy()
        changed = net.kernels._relax(frontier, dist, 1, np.array([np.inf]))
        assert changed.tolist() == np.flatnonzero(expected < before).tolist()
        assert dist.tolist() == expected.tolist()


class TestWorkModel:
    """The engine each search runs on is the work model's pick: a group
    expected to settle at most ``_HEAP_WORK`` nodes (``rows * k * n /
    objects``) runs on the heap; any other sweeps, as one capped window
    on a narrow weight band or when a search expects at most
    ``_ONE_WINDOW_WORK`` nodes (``k * n / objects``), else in
    delta-wide windows."""

    @staticmethod
    def engines(run) -> Counter:
        before = KERNEL_CALLS.copy()
        run()
        return Counter({
            name: KERNEL_CALLS[name] - before[name]
            for name in ("heap", "topk", "topk_one_window", "knn_batch",
                         "one_window")
            if KERNEL_CALLS[name] != before[name]
        })

    def test_dense_objects_take_the_heap_up_to_two_rows(self) -> None:
        # serve_open's w-core: 1,000 objects on the 128² grid, k = 10.
        net = grid_network(128, 128, seed=7)
        solution = DijkstraKNN(net, place_objects(net, 1000, seed=3))
        assert self.engines(lambda: solution.query(5, 10)) == {"heap": 1}
        assert self.engines(
            lambda: solution.query_batch([0, 97], [10, 10])
        ) == {"heap": 2}
        for rows in (3, 4, 16):
            sources = list(range(0, 97 * rows, 97))
            assert self.engines(
                lambda: solution.query_batch(sources, [10] * rows)
            ) == {"one_window": 1}

    def test_longrange_density_never_takes_the_heap(self) -> None:
        # pool_longrange's w-core: 64 objects on the 256² grid, k = 10.
        # The grid's band is narrow: one capped window, however sparse.
        net = grid_network(256, 256, seed=7)
        assert narrow_band(net)
        solution = DijkstraKNN(net, place_objects(net, 64, seed=3))
        assert self.engines(lambda: solution.query(5, 10)) == {
            "topk_one_window": 1
        }
        for rows in (2, 4):
            sources = list(range(0, 997 * rows, 997))
            assert self.engines(
                lambda: solution.query_batch(sources, [10] * rows)
            ) == {"one_window": 1}

    def test_longrange_density_on_a_wide_band_keeps_windows(self) -> None:
        # The same k*n/m (10,240) on log-uniform weights in [1, 100].
        net = wide_grid(128, 100.0)
        assert not narrow_band(net)
        solution = DijkstraKNN(net, place_objects(net, 16, seed=3))
        assert self.engines(lambda: solution.query(5, 10)) == {"topk": 1}
        for rows in (2, 4):
            sources = list(range(0, 997 * rows, 997))
            assert self.engines(
                lambda: solution.query_batch(sources, [10] * rows)
            ) == {"knn_batch": 1}

    def test_a_solo_search_is_not_a_sweep(self) -> None:
        """A solo search's engine name is one no batch sweep uses, so
        ``sweeps()`` refuses a message whose queries searched alone."""
        net = grid_network(128, 128, seed=7)
        counts = np.zeros(net.num_nodes, dtype=np.int32)
        counts[::64] = 1
        before = KERNEL_CALLS.copy()
        net.kernels.topk_objects(5, counts, 10, objects=int(counts.sum()))
        assert KERNEL_CALLS - before == {"topk_one_window": 1}
        with pytest.raises(AssertionError, match="topk_one_window"):
            sweeps(before)

    def test_unknown_or_zero_objects_keep_the_sweep(self) -> None:
        net = random_network(11)
        counts = np.ones(net.num_nodes, dtype=np.int32)
        kernels = net.kernels
        for objects in (None, 0):
            assert self.engines(
                lambda: kernels.topk_objects(0, counts, 2, objects=objects)
            ) == {"topk": 1}
            assert self.engines(
                lambda: kernels.knn_batch([0, 1], [2, 2], counts,
                                          objects=objects)
            ) == {"knn_batch": 1}


class TestDialMode:
    def test_dial_delta_detection(self) -> None:
        assert dial_delta(np.array([2.0, 3.0, 5.0])) == 2.0
        assert dial_delta(np.array([2.0, 3.5])) is None
        assert dial_delta(np.array([])) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_dial_kernels_match_heapq(self, seed) -> None:
        net = random_network(seed, tie_heavy=True)  # integer weights
        indptr, indices, weights = net.csr_arrays
        delta = dial_delta(weights)
        if delta is None:  # graph with no edges
            delta = 1.0
        kern = CSRKernels(indptr, indices, weights, delta=delta)
        source = seed % net.num_nodes
        assert as_dict(*kern.sssp(source)) == dijkstra_heapq(net, source)


class TestDelegation:
    def test_dijkstra_delegates_on_large_graphs(self) -> None:
        rng = random.Random(1)
        n = KERNEL_MIN_NODES
        edges = [(i, (i + 1) % n, rng.uniform(0.5, 2.0)) for i in range(n)]
        net = RoadNetwork(n, edges)
        before = KERNEL_CALLS["sssp"]
        result = dijkstra(net, 0, max_distance=10.0)
        assert KERNEL_CALLS["sssp"] == before + 1
        assert result == dijkstra_heapq(net, 0, max_distance=10.0)

    def test_dijkstra_stays_on_heapq_for_small_graphs(self, small_grid) -> None:
        before = KERNEL_CALLS["sssp"]
        dijkstra(small_grid, 0)
        assert KERNEL_CALLS["sssp"] == before

    def test_knn_solutions_take_the_kernel_paths(self, small_grid) -> None:
        objects = place_objects(small_grid, 12)
        before = KERNEL_CALLS.copy()
        answer = DijkstraKNN(small_grid, objects).query(7, 5)
        assert KERNEL_CALLS["heap"] == before["heap"] + 1  # 27 nodes: small
        assert len(answer) == 5

    def test_kernels_are_per_thread(self, small_grid) -> None:
        import threading

        seen = []

        def grab() -> None:
            seen.append(id(small_grid.kernels))

        grab()
        thread = threading.Thread(target=grab)
        thread.start()
        thread.join()
        assert small_grid.kernels is small_grid.kernels  # cached per thread
        assert len(set(seen)) == 2
