"""Vectorized CSR graph kernels (bucketed Dijkstra over numpy arrays).

Every kNN solution in this repro bottoms out in Dijkstra expansion; the
classic engines in :mod:`repro.graph.shortest_path` run a pure-Python
``heapq`` loop that pays interpreter overhead per *edge*.  The kernels
here pay it per *bucket*: a delta-stepping search settles one distance
window ``[pivot, pivot + delta)`` at a time, relaxing every outgoing
edge of the window's frontier in a handful of numpy operations
(``np.repeat`` gather, ``np.minimum.at`` scatter-min).  On road
networks — bounded degree, weights in a narrow band — this turns the
per-edge cost into a per-window cost and yields order-of-magnitude
speedups on large graphs (see ``benchmarks/bench_knn_kernels.py``).

One bucket loop, :meth:`CSRKernels._windows`, runs every search: it
settles any number of searches at once over a flattened ``(row, node)``
space (one row each) and yields each settled window, so ``sssp`` is one
row with a distance bound, a top-k sweep is one row per query
(:meth:`CSRKernels.knn_batch`; a solo :meth:`CSRKernels.topk_objects`
is one row) stopped at its k-th distance, and
:class:`IncrementalSSSP` keeps the loop open over a buffer of its own.

Every row carries a cap, and :meth:`CSRKernels._relax` drops any
candidate distance past its row's cap before the scatter.  ``sssp``'s
cap is its bound.  A top-k row's cap is its *tentative* k-th distance:
the k-th smallest tentative distance, objects counted, among the
object-bearing nodes the row has reached, lowered after every relax
pass.  A row's answer is every bearing node at or inside its final
cap.

Three top-k engines, one work model
-----------------------------------
Delta-wide windows cost ~40 numpy calls each whether they hold ten
nodes or ten thousand.  A *small* search (dense objects, a few hundred
nodes inside the k-th distance) pays for that in two ways, and the
work model (O(1), no count is read) picks the engine per group of
searches that would share a sweep:

* **Heap** (:meth:`CSRKernels._heap_pays`): a group of ``rows``
  searches is expected to settle ``rows * k * n / objects`` nodes; at
  most :data:`_HEAP_WORK` of them run as plain heap expansions that
  pay per settled node (a lone query on dense objects).
* **One capped window** (:meth:`CSRKernels._window_width`): a group
  whose largest search is expected to settle at most
  :data:`_ONE_WINDOW_WORK` nodes (``k * n / objects``) sweeps as one
  infinitely wide window relaxed to a fixpoint.  Its tentative caps
  stop it, so it pays a few numpy calls per hop instead of ~40 per
  window.
* **Delta-wide windows**: every other group (sparse objects), and
  every search whose caller does not pass the object count
  (``objects=None``).  Past a few hundred nodes per search on a wide
  weight band, a fixpoint re-relaxes nodes that a window would have
  settled once.

Both constants are measured, not chosen:
``benchmarks/bench_knn_kernels.py`` times heap against sweep and
windowed against capped sweeps by rows per group, on mprbench's w-core
cells and on a wide-weight grid (results in
``benchmarks/results/knn_kernels.txt``).

Exactness
---------
Within a window the kernel iterates relaxation to a fixpoint before
declaring the window settled, so results are *bit-for-bit identical*
to the ``heapq`` engines: every settled distance is the same float
minimum over the same candidate sums.  The property suite
(``tests/test_kernels.py``) pins this, including tie-breaking,
disconnected components, and the bounded variant.

Caps keep that argument.  A tentative distance is never below the true
one, so a row's tentative k-th distance is never below its true k-th
distance.  Every node within the true k-th distance therefore has its
whole shortest path inside the cap: with positive weights each node on
the path is closer still, and the candidate sums along the path are
never dropped.  Those nodes reach the same float minimum as without a
cap.  A candidate the cap drops only reaches nodes past the true k-th
distance, and no answer needs those.  The row stops when no tentative
distance inside its cap is left to relax (one window's fixpoint), or
when its next window starts past the cap.  At that point the
bearing nodes inside the cap are exactly those within the true k-th
distance, and the cap equals it.

Buffer-reuse contract
---------------------
A :class:`CSRKernels` instance allocates its distance buffer once
(growing it for wider batches) and reuses it across calls, resetting
only the entries the previous search touched.  Consequently an instance is **not
thread-safe**: use :attr:`repro.graph.RoadNetwork.kernels`, which hands
each thread its own instance over the same shared arrays.  Results
returned to callers are fresh arrays, never views into the buffers.

Dial mode
---------
When every weight is an integer (or, generally, when ``delta`` does not
exceed the minimum edge weight), each window can be settled in a single
relaxation sweep — the classic Dial bucket queue.  :func:`dial_delta`
picks that delta for integer-weight networks; the default delta (4x
the mean edge weight) trades a little re-relaxation for far fewer
windows, which measures fastest across sparse/dense/bounded workloads
on the float-weight networks our generators produce.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["KERNEL_CALLS", "QUERIES_PER_SWEEP", "CSRKernels",
           "IncrementalSSSP", "dial_delta"]

INFINITY = math.inf

#: Diagnostic call counters, keyed by the engine that ran: ``"topk"``
#: one solo top-k sweep in delta-wide windows, ``"knn_batch"`` one
#: batch call that ran such sweeps, ``"one_window"`` one call (solo or
#: batch) that ran one-capped-window sweeps, ``"heap"`` one heap
#: expansion, and one per call of the other entry points.  Tests assert
#: against these to prove which path ran.
KERNEL_CALLS: Counter = Counter()

#: The heap/sweep crossover, in expected settled nodes per group (see
#: :meth:`CSRKernels._heap_pays`), measured by
#: ``benchmarks/bench_knn_kernels.py`` (module docstring).
_HEAP_WORK = 400

#: The one-window crossover, in expected settled nodes per search (see
#: :meth:`CSRKernels._window_width`), measured by
#: ``benchmarks/bench_knn_kernels.py`` (module docstring).
_ONE_WINDOW_WORK = 500

#: How many searches share one batched sweep: per-query cost falls
#: steeply up to about this width (EXPERIMENTS.md, "Rows per sweep").
#: The one definition — :meth:`CSRKernels.knn_batch`'s ``group_size``
#: default *and* the pool's ``batch_size`` default (queries per worker
#: message), so by default a message is exactly one sweep.
QUERIES_PER_SWEEP = 16

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)

# The hot loops' numpy calls, bound once: a ufunc method skips the
# Python-level dispatch of its ``np.*`` wrapper, which costs more than
# the work itself on the few-hundred-element arrays a pass handles.
_accumulate = np.add.accumulate
_add = np.add.reduce
_minimum_at = np.minimum.at
_min = np.minimum.reduce
_arange = np.arange


def _dedup(ids: np.ndarray) -> np.ndarray:
    """Sorted unique of an id array.

    Same result as ``np.unique`` but via a plain sort + neighbour
    comparison: on the small frontier arrays the bucket loop emits,
    ``np.unique``'s hash-table path costs ~10x more per call and
    dominated the whole search in profiles.
    """
    if ids.size <= 1:
        return ids
    ids = ids.copy()
    ids.sort()
    keep = np.empty(ids.shape, dtype=bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _check_node(node: int, num_nodes: int) -> None:
    """Refuse a node id outside ``[0, num_nodes)``."""
    if not 0 <= node < num_nodes:
        raise IndexError(
            f"node {node} out of range for graph with {num_nodes} nodes"
        )


def _view(array: np.ndarray) -> memoryview:
    """A zero-copy memoryview of ``array`` (copying only a
    non-contiguous one): per-element reads return plain Python numbers,
    which is what the heap search's inner loop indexes."""
    return memoryview(np.ascontiguousarray(array))


def _patch_map(pairs: Sequence[tuple[int, int]]) -> dict[int, int] | None:
    """Net count delta per node of ``(node, ±count)`` patches."""
    if not pairs:
        return None
    net: dict[int, int] = {}
    for node, delta in pairs:
        net[node] = net.get(node, 0) + delta
    return net


def dial_delta(weights: np.ndarray) -> float | None:
    """The Dial bucket width for integer-weight networks, else ``None``.

    With ``delta <= min(weight)`` no edge can re-enter its own window,
    so every bucket settles in exactly one sweep.  Returns the minimum
    weight when all weights are integral, ``None`` otherwise.
    """
    if len(weights) == 0:
        return None
    if not np.equal(np.floor(weights), weights).all():
        return None
    return float(weights.min())


def _adopt_index_array(array: np.ndarray) -> np.ndarray:
    """Return ``array`` as a contiguous signed-integer ndarray, no copy
    when it already is one (any width — int32 CSR arrays from a memmap
    cache or shared memory are adopted as-is)."""
    arr = np.asarray(array)
    if arr.dtype.kind == "i" and arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr, dtype=np.int64)


class CSRKernels:
    """Array-based Dijkstra kernels over one CSR adjacency.

    Parameters
    ----------
    indptr, indices, weights:
        The CSR arrays (``RoadNetwork.csr_arrays``).  Held by reference,
        never copied — they may live in shared memory.
    delta:
        Bucket width of the delta-stepping loop.  Defaults to 4x the
        mean edge weight; pass :func:`dial_delta`'s result for
        single-sweep Dial buckets on integer-weight networks.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        delta: float | None = None,
    ) -> None:
        # Adopt integer index arrays in their native dtype when possible:
        # converting a memmapped int32 indptr/indices pair to int64 would
        # copy hundreds of MB into every worker at continental scale and
        # defeat the O(1) cache attach.  int32 fancy indexing works
        # everywhere these arrays are used, and mixed int32/int64
        # arithmetic promotes safely, so results are unchanged.
        self._indptr = _adopt_index_array(indptr)
        self._indices = _adopt_index_array(indices)
        self._weights = np.ascontiguousarray(weights, dtype=np.float64)
        self._num_nodes = len(self._indptr) - 1
        if delta is None:
            delta = (
                4.0 * float(self._weights.mean())
                if len(self._weights)
                else 1.0
            )
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self._delta = float(delta)
        # The reusable distance buffer (the thread-unsafety documented
        # above): one row per search of the flattened (row, node)
        # space, grown on demand; `_touched` lists what the last search
        # wrote in its `_used`-entry prefix.
        self._dist: np.ndarray | None = None
        self._touched: list[np.ndarray] | None = []
        self._used = 0
        # The CSR arrays as memoryviews for the heap search; on first use.
        self._views: tuple[memoryview, memoryview, memoryview] | None = None

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def delta(self) -> float:
        return self._delta

    # ------------------------------------------------------------------
    # Public kernels
    # ------------------------------------------------------------------
    def sssp(
        self, source: int, max_distance: float = INFINITY
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-source distances: ``(nodes, dists)`` with dist <= bound.

        Equivalent to the settled set of the ``heapq`` engine: every
        node whose network distance from ``source`` is at most
        ``max_distance``, with bit-identical distances.
        """
        _check_node(source, self._num_nodes)
        KERNEL_CALLS["sssp"] += 1
        dist = self._reset(self._num_nodes)
        touched: list[np.ndarray] = []
        settled = [
            part for parts, _ in self._windows(
                dist, np.array([source], dtype=np.int64),
                np.array([max_distance], dtype=np.float64), touched,
            )
            for part in parts
        ]
        self._touched = touched
        nodes = _dedup(np.concatenate(settled or [_EMPTY_I8]))
        dists = dist[nodes]
        # The last window may reach past the bound by less than delta.
        if max_distance < INFINITY:
            mask = dists <= max_distance
            return nodes[mask], dists[mask]
        return nodes, dists

    def topk_objects(
        self,
        source: int,
        object_counts: np.ndarray,
        k: int,
        *,
        objects: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Early-terminating top-k expansion over per-node object counts.

        Expands from ``source`` until the ``k`` nearest objects are
        guaranteed settled: nothing is left to relax inside the
        tentative k-th distance (the module docstring's cap).  Returns
        the object-bearing nodes within the k-th distance and their
        distances — a superset of the true top-k containing *every*
        object at distance <= the k-th distance, so downstream
        canonical ``(distance, object_id)`` sorting reproduces the
        ``heapq`` expansion's answers exactly, ties included.

        ``objects`` is the number of objects ``object_counts`` holds,
        when the caller knows it: the work model then runs a search
        expected to settle few nodes as a heap expansion
        (:meth:`_heap_pays`), and a dense one as one capped window
        (:meth:`_window_width`).  ``None`` always runs delta-wide
        windows.  ``KERNEL_CALLS`` counts ``"heap"``, ``"one_window"``
        or ``"topk"`` (delta-wide windows).
        """
        _check_node(source, self._num_nodes)
        if k <= 0:
            return _EMPTY_I8, _EMPTY_F8
        if self._heap_pays(k, objects):
            return self._heap_topk(source, k, _view(object_counts), None)
        width = self._window_width(k, objects)
        KERNEL_CALLS["topk" if width < INFINITY else "one_window"] += 1
        return self._batch_topk(
            np.array([source], dtype=np.int64), np.array([k], dtype=np.int64),
            object_counts, np.zeros(1, dtype=np.int64), _EMPTY_I8, _EMPTY_I8,
            width,
        )[0]

    def knn_batch(
        self,
        sources: Sequence[int],
        ks: Sequence[int],
        object_counts: np.ndarray,
        *,
        versions: Sequence[int] | None = None,
        patches: Sequence[tuple[int, int]] = (),
        group_size: int = QUERIES_PER_SWEEP,
        objects: int | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Answer many top-k queries via shared sweeps.

        The batch counterpart of :meth:`topk_objects`: ``sources[i]``
        and ``ks[i]`` describe one query, and the return value is one
        ``(nodes, dists)`` pair per query, aligned with the input.
        Each pair has the same contract as :meth:`topk_objects` — the
        settled object-bearing nodes, a superset of the true top-k
        containing every object at distance <= the k-th distance, with
        distances bit-identical to the per-query kernel — so canonical
        ``(distance, object_id)`` sorting downstream reproduces the
        per-query answers exactly.

        Update transparency: distances do not depend on the object
        set — only termination and which nodes bear objects do — so
        queries separated by object updates can still share a sweep.
        ``patches`` is the ordered list of ``(node, ±count)`` changes
        the updates make to ``object_counts`` and ``versions[i]`` says
        how many of them query ``i`` has seen: it is answered as if
        ``object_counts`` carried the first ``versions[i]`` patches,
        exactly what :meth:`topk_objects` returns on that materialised
        vector.  ``object_counts`` itself is never copied or written.

        Execution: queries with the same ``(source, version)`` collapse
        to one search (served with the largest requested ``k``); the
        distinct searches are sorted by source (node-id order is the
        locality proxy on our generated networks) and cut into
        ``ceil(n / group_size)`` *balanced* groups (17 → 9 + 8, never
        16 + a solo search).
        One group runs as a *single* sweep over the flattened ``(row,
        node)`` product space — every relax pass relaxes the
        concatenated frontiers of all group members in the same handful
        of numpy operations, amortizing the interpreter cost that
        dominates small per-query searches.  Each row keeps its own
        tentative k-th cap, so a finished member stops contributing
        frontier work while its neighbours keep expanding.  With
        ``objects`` (as in :meth:`topk_objects`), a group the work
        model prices below the sweep runs its members as heap
        expansions instead, and a dense group sweeps as one capped
        window.  ``KERNEL_CALLS`` counts one ``"one_window"`` and/or
        one ``"knn_batch"`` (delta-wide windows) per call that swept.

        Queries sharing a source may receive the *same* array objects;
        treat results as read-only.
        """
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        src = np.asarray(sources, dtype=np.int64)
        kreq = np.asarray(ks, dtype=np.int64)
        if src.shape != kreq.shape or src.ndim != 1:
            raise ValueError("sources and ks must be 1-D and equal length")
        if src.size == 0:
            return []
        if src.size and (src.min() < 0 or src.max() >= self._num_nodes):
            raise IndexError(
                f"source out of range for graph with {self._num_nodes} nodes"
            )
        patch = np.asarray(patches, dtype=np.int64).reshape(-1, 2)
        patch_nodes, patch_deltas = patch[:, 0], patch[:, 1]
        if versions is None:
            seen = np.zeros(src.shape, dtype=np.int64)
        else:
            seen = np.asarray(versions, dtype=np.int64)
            if seen.shape != src.shape:
                raise ValueError("versions must align with sources")
            if seen.min() < 0 or seen.max() > len(patch_nodes):
                raise ValueError(
                    f"versions must lie in [0, {len(patch_nodes)}]"
                )
        # One search per distinct (source, version), source-major.
        span = len(patch_nodes) + 1
        unique, inverse = np.unique(src * span + seen, return_inverse=True)
        kmax = np.zeros(unique.shape, dtype=np.int64)
        np.maximum.at(kmax, inverse, kreq)
        per_unique: list[tuple[np.ndarray, np.ndarray]] = [
            (_EMPTY_I8, _EMPTY_F8)
        ] * len(unique)
        wanted = np.nonzero(kmax > 0)[0]
        groups = -(-len(wanted) // group_size)
        engines: set[str] = set()
        for chunk in np.array_split(wanted, groups) if groups else ():
            if self._heap_pays(int(kmax[chunk].sum()), objects):
                counts = _view(object_counts)
                patch_pairs = list(zip(patch_nodes.tolist(),
                                       patch_deltas.tolist()))
                answers = [
                    self._heap_topk(
                        key // span, k, counts,
                        _patch_map(patch_pairs[:key % span]),
                    )
                    for key, k in zip(unique[chunk].tolist(),
                                      kmax[chunk].tolist())
                ]
            else:
                width = self._window_width(int(kmax[chunk].max()), objects)
                engines.add("knn_batch" if width < INFINITY else "one_window")
                answers = self._batch_topk(
                    unique[chunk] // span, kmax[chunk], object_counts,
                    unique[chunk] % span, patch_nodes, patch_deltas, width,
                )
            for position, unique_index in enumerate(chunk.tolist()):
                per_unique[unique_index] = answers[position]
        KERNEL_CALLS.update(engines)
        return [per_unique[index] for index in inverse.tolist()]

    def expander(self, source: int) -> "IncrementalSSSP":
        """An incremental single-source search (IER's verification tool)."""
        KERNEL_CALLS["expander"] += 1
        return IncrementalSSSP(self, source)

    # ------------------------------------------------------------------
    # Heap expansion (small searches) and the work model that picks it
    # ------------------------------------------------------------------
    def _heap_pays(self, total_k: int, objects: int | None) -> bool:
        """The work model: does a group of searches with ``total_k``
        requested neighbours over ``objects`` objects run cheaper as
        heap expansions than as one shared sweep?

        Uniform objects put ``k * n / objects`` nodes inside a search's
        k-th distance, so the group is expected to settle ``total_k * n /
        objects`` nodes; the heap wins at or below :data:`_HEAP_WORK`.
        Unknown (``None``) or zero objects — a search that may settle
        the whole graph — keep the sweep.  O(1): no count is read.
        """
        if not objects:
            return False
        return total_k * self._num_nodes <= _HEAP_WORK * objects

    def _window_width(self, k: int, objects: int | None) -> float:
        """The work model's second rule: the window width of a sweep
        whose largest search asks for ``k`` neighbours over ``objects``
        objects.

        A search expected to settle at most :data:`_ONE_WINDOW_WORK`
        nodes (``k * n / objects``) runs as one capped window, ``inf``
        wide, relaxed to a fixpoint; any other, or one with unknown or
        zero ``objects``, as :attr:`delta`-wide windows.
        """
        if objects and k * self._num_nodes <= _ONE_WINDOW_WORK * objects:
            return INFINITY
        return self._delta

    def _heap_topk(
        self,
        source: int,
        k: int,
        counts: memoryview,
        patch: dict[int, int] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One top-k search as a classic ``heapq`` Dijkstra expansion.

        The same contract as :meth:`topk_objects`, over ``counts`` (a
        :func:`_view` of the count vector) plus ``patch``'s per-node
        deltas: returns every object-bearing node at distance <= the
        k-th object distance.  Distances are bit-identical to the sweep
        — both compute the same minimum over the same candidate sums —
        and the search pays per settled node instead of per numpy
        window, which is what a search settling a few hundred nodes
        costs.  Reads the CSR arrays through zero-copy memoryviews, so
        int32 memmap and shared-memory graphs cost no per-worker copy.
        """
        KERNEL_CALLS["heap"] += 1
        views = self._views
        if views is None:
            views = self._views = (
                _view(self._indptr), _view(self._indices),
                _view(self._weights),
            )
        indptr, indices, weights = views
        pop, push = heapq.heappop, heapq.heappush
        dist = {source: 0.0}
        heap = [(0.0, source)]
        nodes: list[int] = []
        dists: list[float] = []
        found = 0
        kth = INFINITY
        while heap:
            d, u = pop(heap)
            if d > kth:
                break
            if d > dist[u]:
                continue  # stale entry: u settled at a smaller distance
            count = counts[u]
            if patch and u in patch:
                count += patch[u]
            if count > 0:
                nodes.append(u)
                dists.append(d)
                found += count
                if found >= k and kth == INFINITY:
                    kth = d  # nodes settle in distance order: ties follow
            for edge in range(indptr[u], indptr[u + 1]):
                v = indices[edge]
                candidate = d + weights[edge]
                if candidate < dist.get(v, INFINITY):
                    dist[v] = candidate
                    push(heap, (candidate, v))
        return (
            np.array(nodes, dtype=np.int64),
            np.array(dists, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # The bucket loop
    # ------------------------------------------------------------------
    def _reset(self, size: int) -> np.ndarray:
        """The shared distance buffer, clean over its first ``size``
        entries (grown on demand).  The caller hands the search's
        ``touched`` list to :attr:`_touched` once the search completes;
        until then a full fill is the fallback."""
        dist = self._dist
        if dist is None or len(dist) < size:
            dist = self._dist = np.full(size, np.inf, dtype=np.float64)
        else:
            # Only the prefix the previous search ran in can be dirty: a
            # buffer grown by one wide batch must not cost every later,
            # narrower one a full-length fill.
            used = self._used
            touched = self._touched
            if touched is None or sum(map(len, touched)) * 8 > used:
                dist[:used].fill(np.inf)
            else:
                # Duplicates are harmless in the reset scatter.
                dist[np.concatenate(touched)] = np.inf
        self._touched = None
        self._used = size
        return dist

    def _windows(
        self,
        dist: np.ndarray,
        sources: np.ndarray,
        limit: np.ndarray,
        touched: list[np.ndarray] | None,
        width: float | None = None,
        lower: Callable[[np.ndarray], None] | None = None,
    ) -> Iterator[tuple[list[np.ndarray], float]]:
        """The bucket loop: one delta-stepping search per row of the
        flattened ``(row, node)`` space, settled one window at a time.

        Row ``r`` owns the flat ids ``[r*n, (r+1)*n)`` of ``dist`` (a
        clean buffer the caller owns) and searches from ``sources[r]``;
        every window relaxes the concatenated frontiers of all rows in
        one :meth:`_relax`.  Windows are ``width`` wide (default
        :attr:`delta`; ``inf`` makes the whole search one window) and
        aligned to the *global* minimum tentative distance, so a row may
        settle a few more nodes than a solo run would; settled distances
        are bit-identical regardless (the window fixpoint argument is
        per-row).

        ``limit[r]`` is row ``r``'s cap: :meth:`_relax` drops every
        candidate past it, and the row stops expanding once its minimum
        tentative distance exceeds it.  ``sssp`` passes its bound; a
        top-k sweep passes its tentative k-th distances, which ``lower``
        — called with the flat ids of the sources and then of every
        relax pass's changed nodes — lowers in place.

        Yields ``(parts, high)`` once the flat ids in ``parts`` (a list
        of arrays, possibly overlapping) are settled: every distance
        below ``high`` is final.  The loop ends when no row has work
        left, so a caller that keeps the generator can resume it
        (:class:`IncrementalSSSP`).  Every flat id written is appended
        to ``touched`` (``None``: a private buffer nobody resets).
        """
        n = self._num_nodes
        rows = len(sources)
        flat_src = np.arange(rows, dtype=np.int64) * n + sources
        dist[flat_src] = 0.0
        if touched is not None:
            touched.append(flat_src)
        if lower is not None:
            lower(flat_src)
        if width is None:
            width = self._delta
        active_parts = [flat_src]
        bound = 0.0
        while True:
            active = (
                active_parts[0]
                if len(active_parts) == 1
                else _dedup(np.concatenate(active_parts))
            )
            active_dist = dist[active]
            # Drop nodes settled by an earlier window (they re-enter the
            # worklist only as stale duplicates, never with a better
            # distance, so a bound check filters them).
            live = active_dist >= bound
            active, active_dist = active[live], active_dist[live]
            if active.size == 0:
                return
            if rows > 1 and limit.min() < INFINITY:
                # Per-row termination: drop the rows whose minimum
                # tentative distance clears their limit.
                row = active // n
                row_min = np.full(rows, np.inf, dtype=np.float64)
                np.minimum.at(row_min, row, active_dist)
                keep = (row_min <= limit)[row]
                if not keep.all():
                    active, active_dist = active[keep], active_dist[keep]
                    if active.size == 0:
                        return
            pivot = float(active_dist.min())
            if rows == 1 and pivot > limit[0]:
                return
            high = pivot + width
            in_window = active_dist < high
            frontier = active[in_window]
            active_parts = [active[~in_window]]
            window_parts = [frontier]
            # Inner fixpoint: relax window nodes until no distance below
            # `high` changes; positive weights guarantee no candidate
            # from outside the window can undercut it later.
            while frontier.size:
                changed = self._relax(frontier, dist, rows, limit)
                if changed.size == 0:
                    break
                if touched is not None:
                    touched.append(changed)
                if lower is not None:
                    lower(changed)
                if high == INFINITY:
                    frontier = changed
                else:
                    inside = dist[changed] < high
                    frontier = changed[inside]
                    spill = changed[~inside]
                    if spill.size:
                        active_parts.append(spill)
                if frontier.size:
                    window_parts.append(frontier)
            bound = high
            yield window_parts, high
            if len(active_parts) == 1 and not active_parts[0].size:
                return

    def _relax(
        self,
        frontier: np.ndarray,
        dist: np.ndarray,
        rows: int,
        limit: np.ndarray,
    ) -> np.ndarray:
        """Relax every out-edge of ``frontier``; return changed flat ids.

        ``frontier`` holds flat ids ``row*n + node``; edges come from
        the node part while candidates stay inside the row's slice, so
        one scatter-min relaxes every row's frontier at once.  A
        candidate past its row's ``limit``, or no better than its
        target's distance, is dropped before the scatter.
        """
        indptr, indices, weights = self._indptr, self._indices, self._weights
        if rows == 1:
            nodes = frontier
        else:
            row = frontier // self._num_nodes
            offset = row * self._num_nodes
            nodes = frontier - offset
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        cum = _accumulate(counts)
        total = int(cum[-1])
        if total == 0:
            return _EMPTY_I8
        # Edge ids of every frontier node, back to back.
        edge_ids = _arange(total)
        edge_ids += (starts - cum + counts).repeat(counts)
        targets = indices[edge_ids]
        if rows > 1:
            targets = targets + offset.repeat(counts)
        cand = dist[frontier].repeat(counts)
        cand += weights[edge_ids]
        keep = cand < dist[targets]
        if rows == 1:
            if limit[0] < INFINITY:
                keep &= cand <= limit[0]
        elif _min(limit) < INFINITY:
            keep &= cand <= limit[row].repeat(counts)
        targets = targets[keep]
        if not targets.size:
            return _EMPTY_I8
        _minimum_at(dist, targets, cand[keep])
        return _dedup(targets)

    # ------------------------------------------------------------------
    # Top-k over the bucket loop (a solo sweep is one row)
    # ------------------------------------------------------------------
    def _batch_topk(
        self,
        sources: np.ndarray,
        ks: np.ndarray,
        object_counts: np.ndarray,
        versions: np.ndarray,
        patch_nodes: np.ndarray,
        patch_deltas: np.ndarray,
        width: float | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """One shared sweep answering ``len(sources)`` top-k queries
        (every ``ks[r] > 0``).

        Runs :meth:`_windows` with one row per query and ``width`` wide
        windows (``inf``: one capped window).  Row ``r``'s cap is the
        ``ks[r]``-th smallest *tentative* distance, objects counted,
        among the object-bearing nodes it has reached, lowered after
        every relax pass; the row's answer is every bearing node at or
        inside its final cap, which is then its exact k-th distance.

        Row ``r`` reads ``object_counts`` with the first
        ``versions[r]`` of the ``(patch_nodes, patch_deltas)`` changes
        applied (see :meth:`knn_batch`).  Relaxation never looks at
        counts, so rows at different versions still share every window.
        """
        n = self._num_nodes
        rows = len(sources)
        patch_order = np.arange(len(patch_nodes), dtype=np.int64)
        patched: np.ndarray | None = None
        if patch_nodes.size:
            patched = np.zeros(n, dtype=bool)
            patched[patch_nodes] = True

        def bearing(changed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The object-bearing flat ids among ``changed`` and their
            counts, each node read at its row's patch version.

            The one place the sweep reads counts.  Few nodes are ever
            patched, so the common case is one gather plus one probe
            of the patched-node mask.
            """
            # A flat id wraps onto its node: ``take(..., mode="wrap")``
            # reads ``array[flat % n]`` without the temporary.
            counts = object_counts.take(changed, mode="wrap")
            if patched is not None:
                hit = patched.take(changed, mode="wrap").nonzero()[0]
                if hit.size:
                    flat = changed[hit]
                    applies = (patch_nodes == (flat % n)[:, None]) & (
                        patch_order < versions[flat // n][:, None]
                    )
                    counts[hit] += applies @ patch_deltas
            found = (counts > 0).nonzero()[0]
            return changed[found], counts[found]

        dist = self._reset(rows * n)
        touched: list[np.ndarray] = []
        cap = np.full(rows, np.inf, dtype=np.float64)
        # Every reached bearing node: flat ids (duplicate-free) and
        # object counts.
        held = _EMPTY_I8
        held_counts = _EMPTY_I8

        def lower(changed: np.ndarray) -> None:
            """Take in the changed flat ids; lower every full row's cap
            to the k-th smallest tentative distance it has reached."""
            nonlocal held, held_counts
            fresh, fresh_counts = bearing(changed)
            if not fresh.size:
                return
            if held.size:
                # `fresh` is sorted: keep the entries it does not repeat.
                slot = fresh.searchsorted(held)
                np.minimum(slot, fresh.size - 1, out=slot)
                kept = (fresh[slot] != held).nonzero()[0]
                held = np.concatenate((held[kept], fresh))
                held_counts = np.concatenate((held_counts[kept], fresh_counts))
            else:
                held, held_counts = fresh, fresh_counts
            tentative = dist[held]
            if rows == 1:
                if _add(held_counts) < ks[0]:
                    return
                order = tentative.argsort(kind="stable")
                cumulative = _accumulate(held_counts[order])
                cap[0] = tentative[order[cumulative.searchsorted(ks[0])]]
                return
            held_rows = held // n
            per_row = np.bincount(held_rows, held_counts, rows)
            full = per_row >= ks
            if not np.count_nonzero(full):
                return
            order = np.lexsort((tentative, held_rows))
            cumulative = _accumulate(held_counts[order])
            # The k-th object of row r sits ks[r] past the rows before it.
            position = cumulative.searchsorted(
                _accumulate(per_row) - per_row + ks
            )
            np.minimum(position, held.size - 1, out=position)
            np.copyto(cap, tentative[order[position]], where=full)

        for _ in self._windows(dist, sources, cap, touched, width, lower):
            pass
        self._touched = touched
        # Each row's answer: its reached bearing nodes inside its cap.
        held.sort()
        held_rows = held // n
        tentative = dist[held]
        inside = tentative <= cap[held_rows]
        held, held_rows, tentative = (
            held[inside], held_rows[inside], tentative[inside]
        )
        bounds = held_rows.searchsorted(np.arange(rows + 1))
        nodes = held - held_rows * n
        return [
            (nodes[bounds[r]:bounds[r + 1]],
             tentative[bounds[r]:bounds[r + 1]])
            for r in range(rows)
        ]


class IncrementalSSSP:
    """A resumable single-source search over a private distance buffer.

    IER refines Euclidean candidates with exact network distances, all
    from the *same* query location; instead of one A* per candidate,
    this object keeps the bucket loop (:meth:`CSRKernels._windows`)
    open, expands it just far enough to settle each requested target,
    and keeps the explored region for the next one.  Its buffer is its
    own, so other searches on the same kernels may run in between.
    Not thread-safe; build via :meth:`CSRKernels.expander`.
    """

    def __init__(self, kernels: CSRKernels, source: int) -> None:
        n = kernels.num_nodes
        _check_node(source, n)
        self._num_nodes = n
        self._dist = np.full(n, np.inf, dtype=np.float64)
        self._windows = kernels._windows(
            self._dist, np.array([source], dtype=np.int64),
            np.array([INFINITY]), None,
        )
        self._bound = 0.0  # distances below this are final
        self._exhausted = False

    def distance_to(self, target: int) -> float:
        """Exact network distance to ``target`` (``inf`` if unreachable)."""
        _check_node(target, self._num_nodes)
        dist = self._dist
        while not (dist[target] < self._bound) and not self._exhausted:
            step = next(self._windows, None)
            if step is None:
                self._exhausted = True
            else:
                self._bound = step[1]
        return float(dist[target])

    def settled_bound(self) -> float:
        """All distances strictly below this value are final."""
        return self._bound
