"""TOAIN: throughput-optimizing adaptive kNN index (Luo et al., PVLDB 2018).

TOAIN answers kNN queries with the SCOB index — shortcuts from a
contraction hierarchy (CH) combined with per-node object lists — and its
signature feature is a *family* of index configurations trading query
time against update time, from which it picks the one that maximizes
throughput for a given workload.

Our implementation realizes the same design space with a CH **core
threshold**:

* a full contraction hierarchy is built once — by the array-based
  engine in :mod:`repro.graph.ch` (re-exported here as
  :class:`ContractionHierarchy`); this module consumes its ``rank``,
  ``edges`` and ``up_adj`` views and is now a thin adapter over it;
* a *core fraction* ``rho`` designates the top ``rho``-ranked nodes as the
  core; the CH shortcut set restricted to core nodes is a distance-
  preserving overlay (the classic CH/CRP property);
* an object **registers** along its upward CH search, truncated at the
  core boundary: it writes ``(object, distance)`` into every settled
  periphery node and into its core *entry* nodes;
* a query runs its own truncated upward search, harvesting candidates
  from periphery registrations, then a Dijkstra over the (small) core
  from its entry nodes, harvesting entry registrations.

Exactness follows from the CH up-down path property: the meeting node of
a shortest query-object path either lies in the periphery (settled and
registered by both sides) or the path's core segment is fully inside the
core overlay, connecting the two sides' entry nodes.

The knob: a **small core** makes objects register far up (slow updates)
and queries scan a tiny core (fast queries); a **large core** truncates
registration early (fast updates) and pushes work to the query's core
Dijkstra (slower queries).  :func:`choose_core_fraction` picks the best
family member for a workload, exactly TOAIN's throughput-driven tuning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Mapping, Sequence

from ..graph.ch import ContractionHierarchy
from ..graph.road_network import RoadNetwork
from ..graph.shortest_path import INFINITY
from .base import KNNSolution, Neighbor, canonical_knn

__all__ = [
    "DEFAULT_CORE_FRACTION",
    "DEFAULT_FAMILY",
    "ContractionHierarchy",  # re-export: lives in repro.graph.ch now
    "ToainIndex",
    "ToainKNN",
    "choose_core_fraction",
]

#: The SCOB family: candidate core fractions from query-optimized (small
#: core) to update-optimized (large core).
DEFAULT_FAMILY: tuple[float, ...] = (0.01, 0.03, 0.08, 0.15, 0.30)
DEFAULT_CORE_FRACTION = 0.08


class ToainIndex:
    """Immutable network-side SCOB structure (CH + core overlay)."""

    def __init__(
        self,
        network: RoadNetwork,
        core_fraction: float = DEFAULT_CORE_FRACTION,
        ch: ContractionHierarchy | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 < core_fraction <= 1.0:
            raise ValueError("core_fraction must be in (0, 1]")
        self.network = network
        self.core_fraction = core_fraction
        self.ch = ch or ContractionHierarchy(network, seed=seed)
        if self.ch.network is not network:
            raise ValueError("contraction hierarchy built over a different network")
        n = network.num_nodes
        threshold = max(n - max(int(n * core_fraction), 1), 0)
        self.is_core = (self.ch.rank >= threshold).tolist()
        # Core overlay adjacency (undirected) among core nodes.
        self.core_adj: dict[int, list[tuple[int, float]]] = {}
        for (u, v), w in self.ch.edges.items():
            if self.is_core[u] and self.is_core[v]:
                self.core_adj.setdefault(u, []).append((v, w))
                self.core_adj.setdefault(v, []).append((u, w))

    def point_to_point(self, source: int, target: int) -> float:
        """Exact network distance via the classic CH up-up meeting.

        Runs both truncated upward searches and joins them over the
        periphery (shared settled nodes) and the core (a Dijkstra over
        the core overlay from the source's entries towards the
        target's).  Returns ``inf`` when unreachable.
        """
        if source == target:
            return 0.0
        periphery_s, entries_s = self.truncated_upward(source)
        periphery_t, entries_t = self.truncated_upward(target)

        best = INFINITY
        for node, d in periphery_s.items():
            other = periphery_t.get(node)
            if other is not None and d + other < best:
                best = d + other

        if entries_s and entries_t:
            # Multi-source Dijkstra over the core from the source side.
            dist: dict[int, float] = {}
            heap = sorted((d, node) for node, d in entries_s.items())
            while heap:
                d, node = heappop(heap)
                if node in dist:
                    continue
                if d >= best:
                    break
                dist[node] = d
                other = entries_t.get(node)
                if other is not None and d + other < best:
                    best = d + other
                for nxt, weight in self.core_adj.get(node, ()):
                    if nxt not in dist:
                        heappush(heap, (d + weight, nxt))
        return best

    def truncated_upward(self, source: int) -> tuple[dict[int, float], dict[int, float]]:
        """Upward Dijkstra from ``source`` stopping at the core boundary.

        Returns ``(periphery, entries)``: settled periphery nodes with
        distances, and core entry nodes with distances (entries are
        settled but not expanded).
        """
        if self.is_core[source]:
            return {}, {source: 0.0}
        up_adj = self.ch.up_adj
        is_core = self.is_core
        periphery: dict[int, float] = {}
        entries: dict[int, float] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, node = heappop(heap)
            if node in periphery or node in entries:
                continue
            if is_core[node]:
                entries[node] = d
                continue
            periphery[node] = d
            for nxt, weight in up_adj[node]:
                if nxt not in periphery and nxt not in entries:
                    heappush(heap, (d + weight, nxt))
        return periphery, entries


@dataclass
class _Registration:
    """Where an object is registered and at what upward distances."""

    sites: list[int]


class ToainKNN(KNNSolution):
    """TOAIN kNN solution over a shared :class:`ToainIndex`."""

    name = "TOAIN"

    def __init__(
        self,
        network: RoadNetwork,
        objects: Mapping[int, int] | None = None,
        index: ToainIndex | None = None,
        core_fraction: float = DEFAULT_CORE_FRACTION,
    ) -> None:
        self._index = index or ToainIndex(network, core_fraction=core_fraction)
        if self._index.network is not network:
            raise ValueError("index was built over a different network")
        self._location: dict[int, int] = {}
        # node -> {object_id: upward distance} (periphery and entry regs).
        self._registry: dict[int, dict[int, float]] = {}
        self._registration: dict[int, _Registration] = {}
        if objects:
            for object_id, node in objects.items():
                self.insert(object_id, node)

    # ------------------------------------------------------------------
    # KNNSolution interface
    # ------------------------------------------------------------------
    def query(self, location: int, k: int) -> list[Neighbor]:
        if k <= 0:
            return []
        periphery, entries = self._index.truncated_upward(location)
        candidates: dict[int, float] = {}

        def harvest(node: int, base: float) -> None:
            registered = self._registry.get(node)
            if registered:
                for object_id, upward in registered.items():
                    total = base + upward
                    prior = candidates.get(object_id)
                    if prior is None or total < prior:
                        candidates[object_id] = total

        for node, d in periphery.items():
            harvest(node, d)

        # Core phase: multi-source Dijkstra over the core overlay.
        core_adj = self._index.core_adj
        dist: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for entry, d in entries.items():
            heap.append((d, entry))
        heap.sort()
        while heap:
            d, node = heappop(heap)
            if node in dist:
                continue
            if len(candidates) >= k:
                bound = sorted(candidates.values())[k - 1]
                if d > bound:
                    break
            dist[node] = d
            harvest(node, d)
            for nxt, weight in core_adj.get(node, ()):
                if nxt not in dist:
                    heappush(heap, (d + weight, nxt))
        return canonical_knn(candidates, k)

    def insert(self, object_id: int, location: int) -> None:
        if object_id in self._location:
            raise KeyError(f"object {object_id} already present")
        self._location[object_id] = location
        periphery, entries = self._index.truncated_upward(location)
        sites: list[int] = []
        for node, d in periphery.items():
            self._registry.setdefault(node, {})[object_id] = d
            sites.append(node)
        for node, d in entries.items():
            self._registry.setdefault(node, {})[object_id] = d
            sites.append(node)
        self._registration[object_id] = _Registration(sites)

    def delete(self, object_id: int) -> None:
        try:
            del self._location[object_id]
        except KeyError:
            raise KeyError(f"object {object_id} not present") from None
        registration = self._registration.pop(object_id)
        for node in registration.sites:
            bucket = self._registry.get(node)
            if bucket is not None:
                bucket.pop(object_id, None)
                if not bucket:
                    del self._registry[node]

    def spawn(self, objects: Mapping[int, int]) -> "ToainKNN":
        return ToainKNN(self._index.network, objects, index=self._index)

    def object_locations(self) -> dict[int, int]:
        return dict(self._location)

    # ------------------------------------------------------------------
    # Extras
    # ------------------------------------------------------------------
    @property
    def index(self) -> ToainIndex:
        return self._index

    @property
    def core_fraction(self) -> float:
        return self._index.core_fraction


def choose_core_fraction(
    network: RoadNetwork,
    objects: Mapping[int, int],
    lambda_q: float,
    lambda_u: float,
    k: int = 10,
    family: Sequence[float] = DEFAULT_FAMILY,
    sample_queries: int = 30,
    sample_updates: int = 30,
    ch: ContractionHierarchy | None = None,
    query_locations: Iterable[int] | None = None,
) -> tuple[float, dict[float, tuple[float, float]]]:
    """TOAIN's workload-driven tuning: pick the family member that
    minimizes per-task core load ``λq·tq + λu·tu`` (which maximizes the
    sustainable throughput for the given update load).

    Returns ``(best_core_fraction, {rho: (tq, tu)})`` with the measured
    mean query and update times per family member.
    """
    if lambda_q < 0 or lambda_u < 0:
        raise ValueError("arrival rates must be non-negative")
    shared_ch = ch or ContractionHierarchy(network)
    objects = dict(objects)
    if query_locations is None:
        step = max(network.num_nodes // max(sample_queries, 1), 1)
        query_locations = list(range(0, network.num_nodes, step))[:sample_queries]
    else:
        query_locations = list(query_locations)

    profile: dict[float, tuple[float, float]] = {}
    best_rho = family[0]
    best_load = INFINITY
    for rho in family:
        index = ToainIndex(network, core_fraction=rho, ch=shared_ch)
        solution = ToainKNN(network, objects, index=index)
        start = time.perf_counter()
        for location in query_locations:
            solution.query(location, k)
        tq = (time.perf_counter() - start) / max(len(query_locations), 1)

        victims = list(objects)[:sample_updates]
        start = time.perf_counter()
        for object_id in victims:
            node = solution.object_locations()[object_id]
            solution.delete(object_id)
            solution.insert(object_id, node)
        elapsed = time.perf_counter() - start
        tu = elapsed / max(2 * len(victims), 1)

        profile[rho] = (tq, tu)
        load = lambda_q * tq + lambda_u * tu
        if load < best_load:
            best_load = load
            best_rho = rho
    return best_rho, profile
