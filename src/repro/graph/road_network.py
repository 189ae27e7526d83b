"""Road-network graph store.

A road network is modelled, exactly as in the paper, as an undirected
weighted graph whose nodes are road junctions and whose edges are road
segments.  The class below is the substrate shared by every kNN solution
in :mod:`repro.knn` — the paper notes (end of Section III) that the road
network index is *shared* by all cores while only the object set is
partitioned, so a single immutable :class:`RoadNetwork` instance backs
every worker in the MPR machinery.

A network's state is its contiguous **numpy arrays**: the adjacency in
CSR (compressed sparse row) form — ``int32`` indptr/indices, ``float64``
weights — and ``float64`` coordinates.  They are the substrate for the
vectorized kernels in :mod:`repro.graph.kernels` and the exact buffers
published zero-copy by :mod:`repro.graph.shared` and
:mod:`repro.graph.cache`.  Every edge list becomes those arrays one way:
``RoadNetwork(...)`` and :meth:`RoadNetwork.from_edge_arrays` run the
same numpy routine (validate, collapse parallel edges, lay out the
CSR), and :meth:`RoadNetwork.from_csr_arrays` adopts arrays that are
already laid out.

The list and dict views (``csr``, ``neighbors``, ``edges``,
``coordinates``) are *mirrors*: Python copies of the arrays, kept for
the classic ``heapq`` engines whose inner loops index lists faster than
arrays.  A mirror is built on first use and never pickled, so a network
that sticks to the kernel path never copies the graph at all.

Networks attached from a disk cache (:meth:`RoadNetwork.open_cache`) or
from shared memory go one step further: their list/dict mirrors are
*guarded* — touching ``csr``, ``neighbors``, ``edges`` or
``coordinates`` raises :class:`MirrorMaterializationError` instead of
silently spending O(n) time and memory turning a continental-scale
memmap into Python lists.  Call :meth:`RoadNetwork.allow_mirrors` to
opt in explicitly where the cost is intended.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cache import GraphCacheMeta
    from .kernels import CSRKernels


class MirrorMaterializationError(RuntimeError):
    """A guarded network was asked to build its O(n) Python mirrors.

    Raised by list/dict accessors (``csr``, ``neighbors``, ``edges``,
    ``coordinates``, …) on networks attached from a memmap cache or a
    shared-memory segment, where materializing Python containers would
    copy the whole graph into the process.  Kernel-backed callers should
    use :attr:`RoadNetwork.csr_arrays` / :attr:`RoadNetwork.coord_arrays`
    instead; callers that genuinely need lists opt in via
    :meth:`RoadNetwork.allow_mirrors`.
    """


@dataclass(frozen=True)
class Edge:
    """A single undirected road segment."""

    u: int
    v: int
    weight: float

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)


def _half_edges(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each undirected edge of a symmetric CSR once, from its lower
    endpoint, as ``(lo, hi, w)`` arrays in CSR order."""
    counts = np.diff(indptr.astype(np.int64))
    srcs = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    half = srcs < indices
    return (
        srcs[half],
        indices[half].astype(np.int64),
        weights[half].astype(np.float64),
    )


def _dedup_edges(
    num_nodes: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Collapse parallel edges to their minimum weight.

    Returns ``(lo, hi, w, first)`` sorted by ``(lo, hi)``, where
    ``first`` is the position of each edge's first occurrence in the
    input.
    """
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    key = lo * max(num_nodes, 1) + hi
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    group = np.empty(len(key_sorted), dtype=bool)
    if len(key_sorted):
        group[0] = True
        np.not_equal(key_sorted[1:], key_sorted[:-1], out=group[1:])
    starts = np.flatnonzero(group)
    if len(starts):
        w_min = np.minimum.reduceat(w[order], starts)
    else:
        w_min = np.empty(0, dtype=np.float64)
    first = order[starts]
    return lo[first], hi[first], w_min, first


def _arcs_to_csr(
    num_nodes: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices, weights)`` of directed arcs, each node's
    arcs in input order."""
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, dst[order], w[order]


def _build_csr(
    num_nodes: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    coordinates: np.ndarray | Sequence[tuple[float, float]] | None,
) -> tuple[np.ndarray, ...]:
    """Validate an edge list and lay it out as CSR arrays.

    Parallel edges collapse to their minimum weight; the surviving
    edges keep the order in which each ``(min(u,v), max(u,v))`` key was
    first seen, and every node lists its neighbors in that order.
    Returns ``(indptr, indices, weights, coordinates, first_seen)``,
    where ``first_seen`` is the deduplicated ``(lo, hi, w)`` edge
    arrays in that order.
    """
    if num_nodes < 0:
        raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
    u = np.asarray(u)
    v = np.asarray(v)
    w = np.asarray(w, dtype=np.float64)
    if not (len(u) == len(v) == len(w)):
        raise ValueError("u, v, w arrays must have equal length")

    # Vectorized validation, reporting the first offender.
    for ids in (u, v):
        if ids.dtype.kind not in "iu":
            as_float = ids.astype(np.float64)
            bad = ~np.isfinite(as_float) | (np.floor(as_float) != as_float)
            if bad.any():
                at = int(np.argmax(bad))
                raise ValueError(
                    f"edge ({u[at]}, {v[at]}) has a non-integral node id"
                )
    u = u.astype(np.int64)
    v = v.astype(np.int64)
    for ids in (u, v):
        bad = (ids < 0) | (ids >= num_nodes)
        if bad.any():
            node = int(ids[int(np.argmax(bad))])
            raise IndexError(
                f"node {node} out of range for graph with {num_nodes} nodes"
            )
    loops = u == v
    if loops.any():
        node = int(u[int(np.argmax(loops))])
        raise ValueError(f"self loop on node {node} is not allowed")
    bad = ~(w > 0) | np.isinf(w)  # NaN fails ``w > 0``
    if bad.any():
        at = int(np.argmax(bad))
        raise ValueError(
            f"edge ({int(u[at])}, {int(v[at])}) has non-positive or "
            f"non-finite weight {w[at]}"
        )

    lo, hi, w_min, first = _dedup_edges(num_nodes, u, v, w)
    seen_order = np.argsort(first, kind="stable")
    edge_u, edge_v, edge_w = lo[seen_order], hi[seen_order], w_min[seen_order]

    # Interleave the two directed arcs of each edge so that every node
    # lists its neighbors in first-seen order.
    src = np.empty(2 * len(edge_u), dtype=np.int64)
    dst = np.empty(2 * len(edge_u), dtype=np.int64)
    wt = np.empty(2 * len(edge_u), dtype=np.float64)
    src[0::2], src[1::2] = edge_u, edge_v
    dst[0::2], dst[1::2] = edge_v, edge_u
    wt[0::2] = wt[1::2] = edge_w
    indptr, indices, weights = _arcs_to_csr(num_nodes, src, dst, wt)

    if coordinates is None:
        coord_arr = np.zeros((num_nodes, 2), dtype=np.float64)
    else:
        coord_arr = np.asarray(coordinates, dtype=np.float64)
        if coord_arr.size == 0:
            coord_arr = coord_arr.reshape(0, 2)
        if coord_arr.shape != (num_nodes, 2):
            raise ValueError(
                f"expected {num_nodes} coordinate pairs, got {len(coord_arr)}"
            )
    return (
        indptr.astype(np.int32),
        indices.astype(np.int32),
        weights,
        coord_arr,
        (edge_u, edge_v, edge_w),
    )


class RoadNetwork:
    """An immutable undirected weighted graph in CSR form.

    Parameters
    ----------
    num_nodes:
        Number of junctions; nodes are the integers ``0 .. num_nodes-1``.
    edges:
        Iterable of ``(u, v, weight)`` triples.  Parallel edges are
        collapsed to the minimum weight; self loops, non-integral node
        ids and weights that are not positive and finite are rejected.
    coordinates:
        Optional ``(x, y)`` pair per node (used by IER's Euclidean lower
        bounds and by the generators).  When omitted, all coordinates
        default to ``(0.0, 0.0)``.
    name:
        Human-readable label (e.g. ``"BJ"``), carried into reports.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int, float]],
        coordinates: Sequence[tuple[float, float]] | None = None,
        name: str = "road-network",
    ) -> None:
        rows = list(edges)
        triples = np.array(rows, dtype=np.float64) if rows else np.empty((0, 3))
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError("edges must be (u, v, weight) triples")
        *arrays, first_seen = _build_csr(
            num_nodes, triples[:, 0], triples[:, 1], triples[:, 2], coordinates
        )
        self._adopt(*arrays, name, first_seen=first_seen)

    def _adopt(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        coordinates: np.ndarray | None,
        name: str,
        *,
        first_seen: tuple[np.ndarray, ...] | None = None,
        allow_mirrors: bool = True,
    ) -> None:
        """Take the arrays as this network's state, mirrors unbuilt."""
        self._num_nodes = int(len(indptr) - 1)
        self._name = name
        self._indptr = np.asarray(indptr, dtype=np.int32)
        self._indices = np.asarray(indices, dtype=np.int32)
        self._weight_arr = np.asarray(weights, dtype=np.float64)
        if coordinates is None:
            self._coord_arr = np.zeros((self._num_nodes, 2), dtype=np.float64)
        else:
            self._coord_arr = np.asarray(coordinates, dtype=np.float64).reshape(
                self._num_nodes, 2
            )
        #: The deduplicated ``(lo, hi, w)`` edges in first-seen order
        #: (see :func:`_build_csr`): ``edges()`` iterates in this order,
        #: which save_dimacs round trips depend on.  ``None`` for
        #: adopted CSR arrays, whose edges iterate in CSR order.
        self._first_seen = first_seen
        self._mirrors_allowed = bool(allow_mirrors)
        self._init_runtime_state()

    def _init_runtime_state(self) -> None:
        """Per-instance bits that are never pickled: thread-local
        kernels, shared-memory and cache tokens, and the mirrors."""
        self._tls = threading.local()
        #: Shared-memory publication token (see :mod:`repro.graph.shared`);
        #: when set, pickling this network ships the token, not the arrays.
        self._shared_meta = None
        #: Keep-alive reference to an attached SharedMemory segment.
        self._shm = None
        #: Disk-cache attach token (see :mod:`repro.graph.cache`); when
        #: set, pickling ships the token and receivers re-memmap files.
        self._cache_meta = None
        self._offsets: list[int] | None = None
        self._targets: list[int] | None = None
        self._weights: list[float] | None = None
        self._edge_set: dict[tuple[int, int], float] | None = None
        self._coordinates: list[tuple[float, float]] | None = None

    # ------------------------------------------------------------------
    # Alternative constructors (vectorized / zero-copy)
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_arrays(
        cls,
        num_nodes: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        coordinates: np.ndarray | Sequence[tuple[float, float]] | None = None,
        name: str = "road-network",
    ) -> "RoadNetwork":
        """Constructor from parallel edge arrays.

        Runs the same routine as ``RoadNetwork(num_nodes, zip(u, v, w),
        ...)`` without building the triples, so the two produce
        identical networks.  This is the batch path used by
        :func:`repro.graph.io.load_dimacs`.
        """
        *arrays, first_seen = _build_csr(num_nodes, u, v, w, coordinates)
        net = cls.__new__(cls)
        net._adopt(*arrays, name, first_seen=first_seen)
        return net

    @classmethod
    def from_csr_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        coordinates: np.ndarray | None = None,
        name: str = "road-network",
        allow_mirrors: bool = True,
    ) -> "RoadNetwork":
        """Wrap existing CSR arrays without copying them.

        The arrays are adopted as-is (e.g. views into a shared-memory
        segment or a memmapped cache); the mirrors are derived lazily
        on first use.  The caller is responsible for the arrays being a
        valid symmetric CSR adjacency.  With ``allow_mirrors=False`` the
        lazy mirrors are guarded: any accessor that would materialize
        O(n) Python containers raises :class:`MirrorMaterializationError`
        until :meth:`allow_mirrors` is called.
        """
        net = cls.__new__(cls)
        net._adopt(
            indptr, indices, weights, coordinates, name,
            allow_mirrors=allow_mirrors,
        )
        return net

    # ------------------------------------------------------------------
    # Lazy mirrors
    # ------------------------------------------------------------------
    def allow_mirrors(self) -> "RoadNetwork":
        """Opt this network in to O(n) Python list/dict mirrors.

        Guarded networks (memmap-cache or shared-memory attached) raise
        :class:`MirrorMaterializationError` from list-backed accessors;
        calling this declares the materialization cost is intended (e.g.
        a ``heapq`` engine on a small attached graph).  Returns ``self``
        so it chains: ``network.allow_mirrors().csr``.
        """
        self._mirrors_allowed = True
        return self

    @property
    def mirrors_allowed(self) -> bool:
        """Whether O(n) Python mirrors may be materialized lazily."""
        return self._mirrors_allowed

    def _check_mirrors(self, what: str) -> None:
        if not self._mirrors_allowed:
            raise MirrorMaterializationError(
                f"materializing {what} on guarded network {self._name!r} "
                f"({self._num_nodes} nodes) would copy the whole graph "
                "into Python containers; use the csr_arrays/coord_arrays "
                "kernel path, or opt in via RoadNetwork.allow_mirrors()"
            )

    def _ensure_lists(self) -> tuple[list[int], list[int], list[float]]:
        if self._offsets is None:
            self._check_mirrors("CSR list mirrors")
            self._offsets = self._indptr.tolist()
            self._targets = self._indices.tolist()
            self._weights = self._weight_arr.tolist()
        return self._offsets, self._targets, self._weights  # type: ignore[return-value]

    def _edge_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected edge once, as ``(lo, hi, w)`` arrays in
        ``edges()`` order: first-seen for a built network, CSR order
        (each edge from its lower endpoint) for adopted arrays."""
        if self._first_seen is not None:
            return self._first_seen
        return _half_edges(self._indptr, self._indices, self._weight_arr)

    def _edge_dict(self) -> dict[tuple[int, int], float]:
        if self._edge_set is None:
            self._check_mirrors("the edge dict")
            edge_u, edge_v, edge_w = self._edge_triples()
            self._edge_set = dict(
                zip(zip(edge_u.tolist(), edge_v.tolist()), edge_w.tolist())
            )
        return self._edge_set

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return len(self._indices) // 2

    def nodes(self) -> range:
        return range(self._num_nodes)

    def degree(self, node: int) -> int:
        self._check_endpoint(node)
        return int(self._indptr[node + 1] - self._indptr[node])

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        """Yield ``(neighbor, weight)`` pairs for ``node``."""
        self._check_endpoint(node)
        offsets, targets, weights = self._ensure_lists()
        start, end = offsets[node], offsets[node + 1]
        for idx in range(start, end):
            yield targets[idx], weights[idx]

    @property
    def csr(self) -> tuple[list[int], list[int], list[float]]:
        """The raw ``(offsets, targets, weights)`` lists, shared not copied.

        Exposed for the classic ``heapq`` shortest-path engines, whose
        inner loops index Python lists directly.  The numpy counterpart
        is :attr:`csr_arrays`.
        """
        return self._ensure_lists()

    @property
    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The contiguous ``(indptr, indices, weights)`` numpy arrays.

        ``indptr``/``indices`` are ``int32``, ``weights`` ``float64``.
        These are the arrays the vectorized kernels run on and the exact
        buffers published to workers via shared memory — treat them as
        immutable.
        """
        return self._indptr, self._indices, self._weight_arr

    @property
    def coord_arrays(self) -> np.ndarray:
        """Node coordinates as a contiguous ``(num_nodes, 2)`` float64 array."""
        return self._coord_arr

    @property
    def kernels(self) -> "CSRKernels":
        """A per-thread :class:`~repro.graph.kernels.CSRKernels` instance.

        Kernels reuse preallocated distance/bucket buffers across calls,
        so one instance must never be driven from two threads; this
        property hands every thread its own instance over the same
        (shared, immutable) CSR arrays.
        """
        kern = getattr(self._tls, "kernels", None)
        if kern is None:
            from .kernels import CSRKernels

            kern = CSRKernels(self._indptr, self._indices, self._weight_arr)
            self._tls.kernels = kern
        return kern

    def edges(self) -> Iterator[Edge]:
        for (u, v), w in self._edge_dict().items():
            yield Edge(u, v, w)

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edge_dict()

    def edge_weight(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_dict()[key]
        except KeyError:
            raise KeyError(f"no edge between {u} and {v}") from None

    def coordinate(self, node: int) -> tuple[float, float]:
        self._check_endpoint(node)
        if self._coordinates is not None:
            return self._coordinates[node]
        return (float(self._coord_arr[node, 0]), float(self._coord_arr[node, 1]))

    @property
    def coordinates(self) -> list[tuple[float, float]]:
        if self._coordinates is None:
            self._check_mirrors("the coordinate list")
            self._coordinates = [
                (float(x), float(y)) for x, y in self._coord_arr.tolist()
            ]
        return list(self._coordinates)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def connected_components(self) -> list[list[int]]:
        """Connected components as lists of nodes (BFS, iterative)."""
        seen = [False] * self._num_nodes
        components: list[list[int]] = []
        offsets, targets, _ = self._ensure_lists()
        for root in range(self._num_nodes):
            if seen[root]:
                continue
            seen[root] = True
            component = [root]
            frontier = [root]
            while frontier:
                node = frontier.pop()
                for idx in range(offsets[node], offsets[node + 1]):
                    nxt = targets[idx]
                    if not seen[nxt]:
                        seen[nxt] = True
                        component.append(nxt)
                        frontier.append(nxt)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if self._num_nodes <= 1:
            return True
        return len(self.connected_components()) == 1

    def largest_component_subgraph(self) -> "RoadNetwork":
        """Return the subgraph induced by the largest connected component.

        Node ids are compacted to ``0 .. len(component)-1``; the mapping is
        deterministic (sorted by original id).
        """
        components = self.connected_components()
        if not components:
            return RoadNetwork(0, [], name=self._name)
        largest = sorted(max(components, key=len))
        return self.induced_subgraph(largest)

    def induced_subgraph(self, nodes: Sequence[int]) -> "RoadNetwork":
        """Subgraph induced by ``nodes`` with ids compacted in given order."""
        nodes = np.asarray(nodes, dtype=np.int64)
        bad = (nodes < 0) | (nodes >= self._num_nodes)
        if bad.any():
            self._check_endpoint(int(nodes[np.argmax(bad)]))
        if len(np.unique(nodes)) != len(nodes):
            raise ValueError("duplicate nodes in induced_subgraph")
        remap = np.full(self._num_nodes, -1, dtype=np.int64)
        remap[nodes] = np.arange(len(nodes))
        edge_u, edge_v, edge_w = self._edge_triples()
        sub_u, sub_v = remap[edge_u], remap[edge_v]
        keep = (sub_u >= 0) & (sub_v >= 0)
        return RoadNetwork.from_edge_arrays(
            len(nodes), sub_u[keep], sub_v[keep], edge_w[keep],
            coordinates=self._coord_arr[nodes], name=self._name,
        )

    def average_degree(self) -> float:
        if self._num_nodes == 0:
            return 0.0
        return 2.0 * self.num_edges / self._num_nodes

    def total_weight(self) -> float:
        return sum(self._edge_triples()[2].tolist())

    # ------------------------------------------------------------------
    # Disk cache (memmap tier; see :mod:`repro.graph.cache`)
    # ------------------------------------------------------------------
    def save_cache(self, directory) -> "GraphCacheMeta":
        """Write this network's CSR arrays as a memmappable disk cache.

        See :func:`repro.graph.cache.save_cache`.  Build once, then
        :meth:`open_cache` attaches in O(1) regardless of graph size.
        """
        from .cache import save_cache

        return save_cache(self, directory)

    @classmethod
    def open_cache(
        cls, directory, *, verify: bool = False
    ) -> "RoadNetwork":
        """Attach a cache written by :meth:`save_cache` via ``np.memmap``.

        O(1) in graph size: only the manifest is read eagerly; array
        pages fault in on demand.  The returned network is mirror-
        guarded and re-pickles as a tiny attach token, so handing it to
        :class:`~repro.mpr.ProcessPoolService` lets every worker map the
        same files instead of copying segments.
        """
        from .cache import open_cache

        return open_cache(directory, verify=verify)

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __reduce__(self):
        if self._shared_meta is not None:
            # Published to shared memory: ship the (tiny) token; the
            # receiving process re-attaches zero-copy.
            from .shared import attach_shared_graph

            return (attach_shared_graph, (self._shared_meta,))
        if self._cache_meta is not None:
            # Attached from a disk cache: ship the token; the receiver
            # re-memmaps the same files in O(1).
            from .cache import attach_cached_graph

            return (attach_cached_graph, (self._cache_meta,))
        # By value: the arrays travel; the receiver builds its own
        # mirrors if it asks for them.
        return (
            _rebuild_network,
            (self._indptr, self._indices, self._weight_arr, self._coord_arr,
             self._name, self._first_seen, self._mirrors_allowed),
        )

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoadNetwork(name={self._name!r}, nodes={self._num_nodes}, "
            f"edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoadNetwork):
            return NotImplemented
        if self._num_nodes != other._num_nodes or not np.array_equal(
            self._coord_arr, other._coord_arr
        ):
            return False
        if not (self._mirrors_allowed and other._mirrors_allowed):
            # Guarded side(s): compare the canonical CSR arrays instead
            # of materializing O(n) dict mirrors.  Attached copies are
            # byte-identical to their source, so this stays an
            # equivalence for every graph this repo constructs.
            return (
                np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices)
                and np.array_equal(self._weight_arr, other._weight_arr)
            )
        return self._edge_dict() == other._edge_dict()

    def __hash__(self) -> int:  # frozen enough for dict keys by identity
        return id(self)

    def _check_endpoint(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise IndexError(
                f"node {node} out of range for graph with {self._num_nodes} nodes"
            )


def _rebuild_network(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    coordinates: np.ndarray,
    name: str,
    first_seen: tuple[np.ndarray, ...] | None,
    allow_mirrors: bool,
) -> RoadNetwork:
    """Unpickle helper: adopt the pickled arrays."""
    net = RoadNetwork.__new__(RoadNetwork)
    net._adopt(
        indptr, indices, weights, coordinates, name,
        first_seen=first_seen, allow_mirrors=allow_mirrors,
    )
    return net
