"""``run_ops`` is the per-op loop, bit for bit.

A w-core executes each dispatched batch through
:meth:`KNNSolution.run_ops`; its contract is serial equivalence with
calling ``query``/``insert``/``delete`` once per op, in order.
:class:`DijkstraKNN` overrides it to answer the whole batch in *one*
kernel sweep whatever updates interleave the queries, which rests on
``CSRKernels.knn_batch``'s ``versions``/``patches`` view.  This suite
pins all three layers — the kernel view, the override, and the
inherited default on every solution — plus the failure semantics: an
op that raises leaves exactly the per-op state behind.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import ContractionHierarchy, RoadNetwork, grid_network
from repro.graph.kernels import KERNEL_CALLS
from repro.knn import SOLUTIONS, DijkstraKNN, KNNSolution
from repro.mpr.transport import _worker_main
from tests.test_ch import int_network
from tests.test_knn_batch import canonical, random_network


def islands(base: RoadNetwork, name: str) -> RoadNetwork:
    """Two disjoint copies of ``base``: half the nodes are unreachable
    from any source, so ``k`` can exceed the reachable objects."""
    offset = base.num_nodes
    edges = [(e.u, e.v, e.weight) for e in base.edges()]
    edges += [(e.u + offset, e.v + offset, e.weight) for e in base.edges()]
    coords = base.coordinates + [
        (x + 10_000.0, y) for x, y in base.coordinates
    ]
    return RoadNetwork(2 * offset, edges, coordinates=coords, name=name)


#: Float weights (distinct distances) and integer weights (ties galore).
NETWORKS = {
    "float": islands(grid_network(5, 5, seed=2), "float-islands"),
    "int": islands(int_network(24, seed=4), "int-islands"),
}

_PROTOTYPES: dict[tuple[str, str], KNNSolution] = {}


def twins(solution: str, network: str, objects: dict[int, int]):
    """Two independent instances over one shared (cached) index."""
    key = (solution, network)
    if key not in _PROTOTYPES:
        _PROTOTYPES[key] = SOLUTIONS[solution](NETWORKS[network])
    prototype = _PROTOTYPES[key]
    return prototype.spawn(objects), prototype.spawn(objects)


def per_op(solution: KNNSolution, ops) -> list[tuple[int, list]]:
    """The reference: one interface call per op, in order."""
    partials = []
    for op in ops:
        if op[0] == "query":
            partials.append((op[1], solution.query(op[2], op[3])))
        elif op[0] == "insert":
            solution.insert(op[1], op[2])
        else:
            solution.delete(op[1])
    return partials


KINDS = (
    "query", "requery", "insert", "stack", "delete", "move", "again", "bounce",
)

draws = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=24,
)


def build_ops(draws, objects: dict[int, int], num_nodes: int) -> list[tuple]:
    """Interpret abstract draws as a *valid* op batch over ``objects``.

    ``requery`` repeats an earlier source (same source, later version);
    ``stack`` inserts onto an occupied node; ``move`` is delete+insert;
    ``again`` moves the last-moved object once more; ``bounce`` deletes
    an object and reinserts it on the same node.  ``k`` ranges over
    ``0..8`` against a handful of objects, so both ``k = 0`` and ``k``
    beyond the object count occur.
    """
    live = dict(objects)
    next_id = max(live, default=-1) + 1
    ops: list[tuple] = []
    sources: list[int] = []
    last_moved: int | None = None

    def pick(a: int) -> int:
        return sorted(live)[a % len(live)]

    for kind, a, b in draws:
        if kind == "query":
            sources.append(a % num_nodes)
            ops.append(("query", len(ops), sources[-1], b % 9))
        elif kind == "requery" and sources:
            ops.append(("query", len(ops), sources[a % len(sources)], b % 9))
        elif kind == "insert" or (kind == "stack" and not live):
            live[next_id] = a % num_nodes
            ops.append(("insert", next_id, live[next_id]))
            next_id += 1
        elif kind == "stack":
            live[next_id] = live[pick(a)]
            ops.append(("insert", next_id, live[next_id]))
            next_id += 1
        elif not live:
            continue
        elif kind == "delete":
            victim = pick(a)
            del live[victim]
            ops.append(("delete", victim))
        else:  # move / again / bounce: delete + insert of one object
            mover = pick(a)
            if kind == "again" and last_moved in live:
                mover = last_moved
            target = live[mover] if kind == "bounce" else b % num_nodes
            live[mover] = target
            ops.append(("delete", mover))
            ops.append(("insert", mover, target))
            last_moved = mover
    return ops


@st.composite
def batch_on(draw, network: str):
    num_nodes = NETWORKS[network].num_nodes
    objects = draw(st.dictionaries(
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=num_nodes - 1),
        max_size=8,
    ))
    return objects, build_ops(draw(draws), objects, num_nodes)


@st.composite
def any_batch(draw):
    network = draw(st.sampled_from(sorted(NETWORKS)))
    objects, ops = draw(batch_on(network))
    return network, objects, ops


def assert_same_state(candidate: DijkstraKNN, reference: DijkstraKNN) -> None:
    assert candidate.object_locations() == reference.object_locations()
    assert np.array_equal(
        candidate._object_counts(), reference._object_counts()
    )


class TestKernelPatchView:
    """``knn_batch(versions=, patches=)`` == ``topk_objects`` on the
    count vector each row is defined to see."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tie_heavy=st.booleans(),
        group_size=st.sampled_from([1, 2, 4, 16]),
    )
    def test_matches_topk_on_materialised_counts(
        self, seed, tie_heavy, group_size
    ) -> None:
        net = random_network(seed, tie_heavy)
        rng = random.Random(seed + 1)
        n = net.num_nodes
        counts = np.zeros(n, dtype=np.int32)
        for _ in range(rng.randint(0, 2 * n)):
            counts[rng.randrange(n)] += 1
        current = counts.copy()
        seen_by_version = [current.copy()]
        patches = []
        for _ in range(rng.randint(0, 8)):
            node = rng.randrange(n)
            delta = -1 if current[node] > 0 and rng.random() < 0.5 else 1
            current[node] += delta
            patches.append((node, delta))
            seen_by_version.append(current.copy())
        batch = rng.randint(1, 12)
        sources = [rng.randrange(n) for _ in range(batch)]
        ks = [rng.randint(0, 8) for _ in range(batch)]
        versions = [rng.randint(0, len(patches)) for _ in range(batch)]
        frozen = counts.copy()
        batched = net.kernels.knn_batch(
            sources, ks, counts,
            versions=versions, patches=patches, group_size=group_size,
        )
        assert np.array_equal(counts, frozen)  # base vector never written
        for source, k, version, (nodes, dists) in zip(
            sources, ks, versions, batched
        ):
            seen = seen_by_version[version]
            solo = net.kernels.topk_objects(source, seen, k)
            assert canonical(nodes, dists, seen, k) == canonical(
                *solo, seen, k
            )

    def test_rejects_bad_versions(self) -> None:
        net = random_network(7)
        counts = np.zeros(net.num_nodes, dtype=np.int32)
        with pytest.raises(ValueError):
            net.kernels.knn_batch([0], [1], counts, versions=[0, 0])
        with pytest.raises(ValueError):
            net.kernels.knn_batch(
                [0], [1], counts, versions=[2], patches=[(0, 1)]
            )
        with pytest.raises(ValueError):
            net.kernels.knn_batch([0], [1], counts, versions=[-1])

    def test_narrow_sweep_after_wide_one_starts_clean(self) -> None:
        """The reset touches only the prefix the last sweep used; a
        stale distance beyond it must never leak into a later, wider
        sweep."""
        net = grid_network(10, 10, seed=5)
        counts = np.zeros(net.num_nodes, dtype=np.int32)
        counts[::7] = 1
        kernels = net.kernels
        wide = list(range(0, 96, 8))
        expected = [kernels.topk_objects(s, counts, 3) for s in wide]
        for sources in (wide, wide[:2], wide[:5], wide):
            got = kernels.knn_batch(sources, [3] * len(sources), counts)
            for source, (nodes, dists), solo in zip(sources, got, expected):
                assert canonical(nodes, dists, counts, 3) == canonical(
                    *solo, counts, 3
                )


class TestDijkstraRunOps:
    @settings(max_examples=150, deadline=None)
    @given(case=any_batch(), warm=st.booleans())
    def test_equals_per_op_loop(self, case, warm) -> None:
        network, objects, ops = case
        candidate, reference = twins("Dijkstra", network, objects)
        if warm:  # counts vector already built vs built inside the batch
            candidate.query(0, 1)
        timings: list[tuple] = []
        assert candidate.run_ops(ops, timings) == per_op(reference, ops)
        assert_same_state(candidate, reference)
        stamped = [
            query_id
            for entry in timings if entry[0] != "u"
            for query_id in ((entry[1],) if entry[0] == "q" else entry[1])
        ]
        assert sorted(stamped) == [op[1] for op in ops if op[0] == "query"]
        assert sum(entry[0] == "u" for entry in timings) == sum(
            op[0] != "query" for op in ops
        )

    def test_interleaved_batch_is_one_sweep(self) -> None:
        """Sparse objects: the batch's three searches share one sweep.
        Dense ones: three heap searches.  Never a solo ``topk``."""
        ops = [
            ("query", 0, 0, 2), ("delete", 2), ("query", 1, 0, 2),
            ("insert", 2, 4), ("query", 2, 7, 2),
        ]
        objects = {1: 3, 2: 9, 3: 14}
        sparse = DijkstraKNN(grid_network(40, 40, seed=2), objects)
        before = KERNEL_CALLS.copy()
        sparse.run_ops(ops)
        assert KERNEL_CALLS - before == {"knn_batch": 1}
        dense, _ = twins("Dijkstra", "float", objects)
        before = KERNEL_CALLS.copy()
        dense.run_ops(ops)
        assert KERNEL_CALLS - before == {"heap": 3}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ch_routed_batches_keep_exact_answers(self, seed) -> None:
        network = int_network(80, seed)
        ch = ContractionHierarchy(network, seed=seed)
        rng = random.Random(seed)
        objects = {i: rng.randrange(80) for i in range(6)}
        routed = DijkstraKNN(network, objects, ch=ch, ch_cutoff=0.0)
        reference = DijkstraKNN(network, objects)
        ops = build_ops(
            [(rng.choice(KINDS), rng.randrange(999), rng.randrange(999))
             for _ in range(30)],
            objects, 80,
        )
        assert routed.run_ops(ops) == per_op(reference, ops)
        assert_same_state(routed, reference)


class TestDefaultRunOps:
    """The inherited run-grouping loop, on every solution."""

    @pytest.mark.parametrize("solution", sorted(SOLUTIONS))
    @settings(max_examples=25, deadline=None)
    @given(case=any_batch())
    def test_equals_per_op_loop(self, solution, case) -> None:
        network, objects, ops = case
        candidate, reference = twins(solution, network, objects)
        assert KNNSolution.run_ops(candidate, ops) == per_op(reference, ops)
        assert candidate.object_locations() == reference.object_locations()


def failing_batches():
    """``(objects, ops, index of the op that must raise)``."""
    objects = {1: 3, 2: 9, 3: 14}
    head = [("query", 0, 0, 2), ("delete", 2), ("query", 1, 5, 3)]
    tail = [("query", 9, 1, 1), ("insert", 50, 2)]
    return [
        pytest.param(
            objects, head + [("delete", 77)] + tail, 3, id="delete-absent",
        ),
        pytest.param(
            objects, head + [("insert", 3, 4)] + tail, 3, id="insert-live",
        ),
        pytest.param(
            objects, head + [("delete", 2)] + tail, 3,
            id="delete-twice-in-batch",
        ),
        pytest.param(
            objects,
            head + [("insert", 2, 6), ("query", 4, 6, 1), ("insert", 2, 7)]
            + tail,
            5, id="reinsert-twice-in-batch",
        ),
        pytest.param(
            objects, [("delete", 77)] + head, 0, id="first-op",
        ),
    ]


class TestErrorParity:
    @pytest.mark.parametrize("objects, ops, bad", failing_batches())
    def test_same_exception_and_state(self, objects, ops, bad) -> None:
        candidate, reference = twins("Dijkstra", "float", objects)
        with pytest.raises(Exception) as expected:
            per_op(reference, ops)
        with pytest.raises(type(expected.value)) as raised:
            candidate.run_ops(ops)
        assert str(raised.value) == str(expected.value)
        # Ops before the bad one applied, none after.
        survivor, _ = twins("Dijkstra", "float", objects)
        per_op(survivor, [op for op in ops[:bad] if op[0] != "query"])
        assert_same_state(candidate, reference)
        assert_same_state(candidate, survivor)

    def test_worker_reports_error_and_stops(self) -> None:
        """Pool level: a raising batch is answered ``("error", ...)``
        carrying the per-op exception, and the worker exits (the parent
        decides between respawn+replay and poisoning)."""

        class Inbox:
            def __init__(self, messages):
                self.messages = list(messages)

            def get(self):
                return self.messages.pop(0)

        class Results:
            def __init__(self):
                self.sent = []

            def send(self, message):
                self.sent.append(message)

        solution, reference = twins("Dijkstra", "float", {1: 3, 2: 9})
        good = (("query", 0, 0, 1), ("delete", 1), ("query", 1, 0, 1))
        bad = (("query", 2, 0, 1), ("delete", 1), ("query", 3, 0, 1))
        never = (("insert", 60, 0),)
        inbox = Inbox([("batch", 0, good), ("batch", 1, bad), ("batch", 2, never)])
        results = Results()
        _worker_main(solution, (0, 0, 0), inbox, results)
        done, error = results.sent
        assert done == ("done", (0, 0, 0), 0, per_op(reference, good))
        with pytest.raises(KeyError) as expected:
            per_op(reference, bad)
        assert error == ("error", (0, 0, 0), 1, repr(expected.value))
        assert len(inbox.messages) == 1  # nothing served after the error
        assert_same_state(solution, reference)
