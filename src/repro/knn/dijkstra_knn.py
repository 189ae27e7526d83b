"""Index-free Dijkstra kNN — the paper's update-friendly baseline.

"To answer a kNN query from a query point q, we run Dijkstra from q and
explore the graph just enough to locate the k closest objects to q.
Dijkstra does not use an elaborate index and therefore has very low
object update costs." (Section II)  At the sizes this repository
builds, no other solution beat it by more than the noise in any cell
of the per-regime cost table (EXPERIMENTS.md, "Per-regime cost of the
real Python solutions").

The only bookkeeping is the per-node object bucket, so inserts and
deletes are O(1); queries pay an incremental Dijkstra expansion —
executed by the early-terminating top-k kernels
(:meth:`repro.graph.kernels.CSRKernels.topk_objects` /
:meth:`~repro.graph.kernels.CSRKernels.knn_batch`), which return
exactly the answers the classic expansion produced
(``tests/test_kernels.py`` pins the equivalence).

Routing: every search is expected to settle about ``k * n / m`` nodes
(``n`` nodes, ``m`` objects), and that one estimate picks the engine.
On an integral-weight network with a contraction hierarchy, a search
past the CH cutoff takes the hub-label path first.  Otherwise the
solution hands the kernels its object count and their work model
decides per group of searches that would share a sweep: ``rows * k *
n / m`` at most the measured heap limit runs each search as a heap
expansion paying per settled node (a lone query on dense objects);
anything larger runs the shared numpy sweep, as one capped window
paying per hop on a narrow weight band or when each search is small
(dense objects), else in distance windows (sparse objects on a wide
band).  Answers are bit-identical on every route.

Being index-free also makes the search *update-transparent*: distances
never depend on the object set, only termination and which nodes bear
objects do.  :meth:`DijkstraKNN.run_ops` uses that to answer a whole
worker batch in one shared kernel sweep however many updates interleave
its queries (``tests/test_run_ops.py`` pins it to the per-op loop).

Long-range routing: pass a :class:`~repro.graph.ch.ContractionHierarchy`
to route queries whose plain expansion would settle a large fraction of
the graph (sparse objects, large ``k``) to the CH engine's hub-label
path instead.  Auto-routing only engages on integral-weight networks
(``ch.exact``), where CH distances are bit-identical to the kernels, so
answers never change — only the time to produce them.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..graph.road_network import RoadNetwork
from ..objects.object_set import ObjectSet
from .base import KNNSolution, Neighbor, _neighbors

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.ch import ContractionHierarchy

#: Fallback expected-settled-node crossover for routing to the CH path,
#: used when the measured calibration cannot run (no hierarchy, inexact
#: weights, empty graph).  With ``ch_cutoff=None`` (the default) a routed
#: solution measures the real crossover on its own graph via
#: :func:`repro.graph.ch.calibrate_ch_cutoff` at the first routing
#: decision and cache it; pass an explicit value to skip the probe.
DEFAULT_CH_CUTOFF = 4096.0


def _calibrated_cutoff(network: RoadNetwork, ch) -> float:
    """Resolve an automatic cutoff: measure when possible, else default."""
    if ch is None or not ch.exact or network.num_nodes == 0:
        return DEFAULT_CH_CUTOFF
    from ..graph.ch import calibrate_ch_cutoff

    try:
        measured = float(calibrate_ch_cutoff(network, ch, samples=3))
    except Exception:  # pragma: no cover - probe must never break queries
        return DEFAULT_CH_CUTOFF
    if not np.isfinite(measured) or measured <= 0:
        return DEFAULT_CH_CUTOFF
    return measured


class DijkstraKNN(KNNSolution):
    """Plain Dijkstra-expansion kNN over per-node object buckets.

    :meth:`query` and :meth:`query_batch` return :class:`Neighbor`
    lists; :meth:`run_ops` — the w-core's entry point — returns each
    answer as ``(distance, object_id)`` pairs, ranked without building
    a :class:`Neighbor`, so a worker's ack pickles plain tuples.
    """

    name = "Dijkstra"

    def __init__(
        self,
        network: RoadNetwork,
        objects: Mapping[int, int] | None = None,
        *,
        ch: "ContractionHierarchy | None" = None,
        ch_cutoff: float | None = None,
    ) -> None:
        self._network = network
        self._objects = ObjectSet(dict(objects) if objects else None)
        if ch is not None and ch.network is not network:
            raise ValueError(
                "contraction hierarchy was built over a different network"
            )
        self._ch = ch
        # None = auto: measure the crossover on first routing decision.
        self._ch_cutoff = None if ch_cutoff is None else float(ch_cutoff)
        # Per-node object counts for the top-k kernel; derived data,
        # built lazily on first query and maintained incrementally.
        self._counts: np.ndarray | None = None

    def _route_kernels(self, k: int):
        """Pick the engine for this query: plain kernels or the CH path.

        The plain top-k expansion settles ≈ ``k * num_nodes / objects``
        nodes on uniform objects; past the cutoff the CH sweep+join is
        cheaper.  Only exact (integral-weight) hierarchies are routed
        to, keeping answers bit-identical either way.
        """
        ch = self._ch
        if ch is None or not ch.exact:
            return self._network.kernels
        total = len(self._objects)
        if total == 0:
            return self._network.kernels
        expected_settled = k * self._network.num_nodes / total
        if expected_settled >= self.ch_cutoff:
            return ch.kernels
        return self._network.kernels

    @property
    def ch_cutoff(self) -> float:
        """The routing crossover, measuring it on first use if needed."""
        if self._ch_cutoff is None:
            self._ch_cutoff = _calibrated_cutoff(self._network, self._ch)
        return self._ch_cutoff

    def _object_counts(self) -> np.ndarray:
        if self._counts is None:
            counts = np.zeros(self._network.num_nodes, dtype=np.int32)
            for node in self._objects.snapshot().values():
                counts[node] += 1
            self._counts = counts
        return self._counts

    # ------------------------------------------------------------------
    # KNNSolution interface
    # ------------------------------------------------------------------
    def query(self, location: int, k: int) -> list[Neighbor]:
        if k <= 0:
            return []
        nodes, dists = self._route_kernels(k).topk_objects(
            location, self._object_counts(), k, objects=len(self._objects)
        )
        return _neighbors(self._nearest(nodes, dists, k))

    def _nearest(
        self, nodes: np.ndarray, dists: np.ndarray, k: int
    ) -> list[tuple[float, int]]:
        """The canonical top ``k`` over a kernel's bearing nodes, as
        ``(distance, object_id)`` pairs.

        Candidates are ranked as plain tuples, in the order
        :class:`Neighbor` defines.  Reads the *current* object buckets.
        """
        if k <= 0:  # a k=0 query may share a row with a k>0 one
            return []
        objects_at = self._objects.objects_at
        found = [
            (distance, object_id)
            for node, distance in zip(nodes.tolist(), dists.tolist())
            for object_id in objects_at(node)
        ]
        found.sort()
        del found[k:]
        return found

    def query_batch(self, locations, ks) -> list[list[Neighbor]]:
        """Batch queries via the shared top-k kernel sweep."""
        locations = list(locations)
        ks = list(ks)
        if len(locations) != len(ks):
            raise ValueError("locations and ks must have equal length")
        ops = [
            ("query", position, location, k)
            for position, (location, k) in enumerate(zip(locations, ks))
        ]
        plan = (locations, ks, [0] * len(ops), [])
        return [
            _neighbors(answer) for _, answer in self._sweep_ops(ops, plan, None)
        ]

    def run_ops(
        self, ops: Sequence[tuple], op_timings: list[tuple] | None = None
    ) -> list[tuple[int, list[tuple[float, int]]]]:
        """One kernel sweep for the whole batch, whatever updates interleave.

        Distances do not depend on the object set, so the batch's
        queries share one :meth:`~repro.graph.kernels.CSRKernels.
        knn_batch` sweep over the *pre-batch* counts in which each
        query sees the count patches of the updates ahead of it; the
        ops are then walked in order, updates applied for real and
        each query's answer read off the object buckets at its own
        FCFS position — bit-identical to the per-op loop.  Answers are
        ranked and returned as ``(distance, object_id)`` pairs, the
        shape of every ``run_ops`` partial: no :class:`Neighbor` is
        built on the w-core, and the ack pickles plain tuples.

        Batches the sweep cannot serve take the inherited loop: fewer
        than two queries (nothing to share), an op that will raise
        (the loop stops at it in exactly the per-op state), or a batch
        with updates routed to the CH engine, which has no patch view.
        """
        plan = self._plan_ops(ops)
        if plan is None:
            return super().run_ops(ops, op_timings)
        return self._sweep_ops(ops, plan, op_timings)

    def _plan_ops(self, ops):
        """Scan a batch once: ``(locations, ks, versions, patches)``.

        ``patches`` lists the ``(node, ±1)`` count changes of the
        batch's updates in order and ``versions[i]`` how many precede
        query ``i``.  A delete's node comes from the live object set
        overlaid with the batch's own earlier moves.  ``None`` means
        the batch belongs to the per-op loop (see :meth:`run_ops`).
        """
        num_nodes = self._network.num_nodes
        objects = self._objects
        moved: dict[int, int | None] = {}  # object -> node, None = deleted
        locations: list[int] = []
        ks: list[int] = []
        versions: list[int] = []
        patches: list[tuple[int, int]] = []
        for op in ops:
            kind = op[0]
            if kind == "query":
                if not 0 <= op[2] < num_nodes:
                    return None
                locations.append(op[2])
                ks.append(op[3])
                versions.append(len(patches))
                continue
            object_id = op[1]
            if object_id in moved:
                node = moved[object_id]
            else:
                node = (
                    objects.location_of(object_id)
                    if object_id in objects else None
                )
            if kind == "insert":
                if node is not None or not 0 <= op[2] < num_nodes:
                    return None
                moved[object_id] = op[2]
                patches.append((op[2], 1))
            else:
                if node is None:
                    return None
                moved[object_id] = None
                patches.append((node, -1))
        if len(locations) < 2:
            return None
        if patches and self._route_kernels(max(ks)) is not self._network.kernels:
            return None
        return locations, ks, versions, patches

    def _sweep_ops(self, ops, plan, op_timings):
        """Sweep once on the pre-batch counts, then walk ``ops`` in order."""
        locations, ks, versions, patches = plan
        started = time.monotonic() if op_timings is not None else 0.0
        partials: list[tuple[int, list[tuple[float, int]]]] = []
        batched: list[tuple[np.ndarray, np.ndarray]] = []
        if locations:
            kernels = self._route_kernels(max(ks))
            counts = self._object_counts()
            objects = len(self._objects)
            if patches:
                batched = kernels.knn_batch(
                    locations, ks, counts, versions=versions,
                    patches=patches, objects=objects,
                )
            else:
                batched = kernels.knn_batch(
                    locations, ks, counts, objects=objects
                )
        settled = iter(batched)
        for op in ops:
            if op[0] == "query":
                partials.append(
                    (op[1], self._nearest(*next(settled), op[3]))
                )
            else:
                self._apply_update(op, op_timings)
        if op_timings is not None and partials:
            op_timings.append((
                "qb", tuple(query_id for query_id, _ in partials),
                started, time.monotonic(),
            ))
        return partials

    def insert(self, object_id: int, location: int) -> None:
        if not 0 <= location < self._network.num_nodes:
            raise ValueError(
                f"location {location} is not a node of the network "
                f"(0 <= location < {self._network.num_nodes})"
            )
        self._objects.insert(object_id, location)
        if self._counts is not None:
            self._counts[location] += 1

    def delete(self, object_id: int) -> None:
        node = self._objects.delete(object_id)
        if self._counts is not None:
            self._counts[node] -= 1

    def spawn(self, objects: Mapping[int, int]) -> "DijkstraKNN":
        return DijkstraKNN(
            self._network, objects, ch=self._ch, ch_cutoff=self._ch_cutoff
        )

    def object_locations(self) -> dict[int, int]:
        return self._objects.snapshot()

    # ------------------------------------------------------------------
    # Pickling: the counts vector is derived data (4 bytes/node); drop
    # it so spawned workers ship only the object map + the graph token.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_counts"] = None
        return state

    # ------------------------------------------------------------------
    # Extras
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        return self._network
