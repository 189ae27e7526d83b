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

Exactness: within a window the kernel iterates relaxation to a
fixpoint before declaring the window settled, so results are
*bit-for-bit identical* to the ``heapq`` engines — every settled
distance is the same float minimum over the same candidate sums.  The
property suite (``tests/test_kernels.py``) pins this, including
tie-breaking, disconnected components, and the bounded/multi-source
variants.

Buffer-reuse contract
---------------------
A :class:`CSRKernels` instance preallocates its distance/owner/settled
buffers once and reuses them across calls (resetting only the entries
the previous search touched).  Consequently an instance is **not
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

import math
from collections import Counter
from typing import Sequence

import numpy as np

__all__ = ["KERNEL_CALLS", "QUERIES_PER_SWEEP", "CSRKernels",
           "IncrementalSSSP", "dial_delta"]

INFINITY = math.inf

#: Diagnostic call counters, keyed by kernel entry point.  The
#: bench-smoke tool and the delegation tests assert against these to
#: prove the vectorized path is actually being exercised.
KERNEL_CALLS: Counter = Counter()

#: How many searches share one batched sweep: per-query cost falls
#: steeply up to about this width (EXPERIMENTS.md, "Rows per sweep").
#: The one definition — :meth:`CSRKernels.knn_batch`'s ``group_size``
#: default *and* the pool's ``batch_size`` default (queries per worker
#: message), so by default a message is exactly one sweep.
QUERIES_PER_SWEEP = 16

#: Sentinel owner for nodes whose distance just improved and whose
#: owning source is about to be recomputed.
_NO_OWNER = np.iinfo(np.int64).max

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)


def _dedup(ids: np.ndarray) -> np.ndarray:
    """Sorted unique of an id array.

    Same result as ``np.unique`` but via a plain sort + neighbour
    comparison: on the small frontier arrays the bucket loop emits,
    ``np.unique``'s hash-table path costs ~10x more per call and
    dominated the whole search in profiles.
    """
    if ids.size <= 1:
        return ids
    ids = np.sort(ids)
    keep = np.empty(ids.shape, dtype=bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


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
        # Reusable buffers (the thread-unsafety documented above).
        self._dist = np.full(self._num_nodes, np.inf, dtype=np.float64)
        self._owner = None  # allocated on first multi-source call
        self._touched: np.ndarray | None = _EMPTY_I8
        # Batch-query buffer: one distance row per grouped source over
        # the flattened (row, node) product space; grown on demand.
        self._batch_dist: np.ndarray | None = None
        self._batch_touched: np.ndarray | None = None
        self._batch_used = 0  # prefix of the buffer the last sweep ran in

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
        KERNEL_CALLS["sssp"] += 1
        return self._finish(
            *self._search([source], max_distance=max_distance)[:2],
            max_distance,
        )

    def sssp_multi(
        self,
        sources: Sequence[int],
        max_distance: float = INFINITY,
        with_owners: bool = False,
    ):
        """Distances from the nearest of several sources.

        Returns ``(nodes, dists)`` or, with ``with_owners=True``,
        ``(nodes, dists, owners)`` where ``owners[i]`` is the source
        realizing ``dists[i]`` (smallest source id on ties — the same
        tie-break the ``heapq`` engine's ordered tuples produce).
        """
        KERNEL_CALLS["sssp_multi"] += 1
        if len(sources) == 0:
            if with_owners:
                return _EMPTY_I8, _EMPTY_F8, _EMPTY_I8
            return _EMPTY_I8, _EMPTY_F8
        nodes, dists, _ = self._search(
            sources, max_distance=max_distance, track_owners=with_owners
        )
        nodes, dists = self._finish(nodes, dists, max_distance)
        if with_owners:
            return nodes, dists, self._owner[nodes].copy()
        return nodes, dists

    def topk_objects(
        self, source: int, object_counts: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Early-terminating top-k expansion over per-node object counts.

        Expands from ``source`` until the ``k`` nearest objects are
        guaranteed settled, i.e. until the next bucket's minimum
        tentative distance exceeds the k-th best candidate distance.
        Returns the settled object-bearing nodes and their distances —
        a superset of the true top-k containing *every* object at
        distance <= the k-th distance, so downstream canonical
        ``(distance, object_id)`` sorting reproduces the ``heapq``
        expansion's answers exactly, ties included.
        """
        KERNEL_CALLS["topk"] += 1
        if k <= 0:
            return _EMPTY_I8, _EMPTY_F8
        nodes, dists, _ = self._search(
            [source], object_counts=object_counts, k=k
        )
        mask = object_counts[nodes] > 0
        return nodes[mask], dists[mask]

    def knn_batch(
        self,
        sources: Sequence[int],
        ks: Sequence[int],
        object_counts: np.ndarray,
        *,
        versions: Sequence[int] | None = None,
        patches: Sequence[tuple[int, int]] = (),
        group_size: int = QUERIES_PER_SWEEP,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Answer many top-k queries via shared multi-source sweeps.

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
        One group runs as a *single* delta-stepping sweep over the
        flattened ``(row, node)`` product space — every bucket relaxes
        the concatenated frontiers of all group members in the same
        handful of numpy operations, amortizing the per-window
        interpreter cost that dominates small per-query searches.
        Each row keeps its own early-termination bound, so a finished
        member stops contributing frontier work while its neighbours
        keep expanding.

        Queries sharing a source may receive the *same* array objects;
        treat results as read-only.
        """
        KERNEL_CALLS["knn_batch"] += 1
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
        for chunk in np.array_split(wanted, groups) if groups else ():
            answers = self._batch_topk(
                unique[chunk] // span, kmax[chunk], object_counts,
                unique[chunk] % span, patch_nodes, patch_deltas,
            )
            for position, unique_index in enumerate(chunk.tolist()):
                per_unique[unique_index] = answers[position]
        return [per_unique[index] for index in inverse.tolist()]

    def expander(self, source: int) -> "IncrementalSSSP":
        """An incremental single-source search (IER's verification tool)."""
        KERNEL_CALLS["expander"] += 1
        return IncrementalSSSP(self, source)

    # ------------------------------------------------------------------
    # Core bucketed search
    # ------------------------------------------------------------------
    def _reset(self) -> np.ndarray:
        dist = self._dist
        touched = self._touched
        if touched is None or len(touched) * 8 > self._num_nodes:
            dist.fill(np.inf)
        else:
            dist[touched] = np.inf
        self._touched = None
        return dist

    def _search(
        self,
        sources: Sequence[int],
        *,
        max_distance: float = INFINITY,
        object_counts: np.ndarray | None = None,
        k: int = 0,
        track_owners: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Run the bucket loop; returns ``(nodes, dists, settled_bound)``.

        ``nodes``/``dists`` are every node settled before termination
        (some may exceed ``max_distance`` by less than one bucket; the
        public wrappers trim).  ``settled_bound`` is the pivot below
        which all distances are final — used by the incremental search.
        """
        dist = self._reset()
        owner = None
        if track_owners:
            owner = self._owner
            if owner is None:
                owner = self._owner = np.full(
                    self._num_nodes, _NO_OWNER, dtype=np.int64
                )
        src = np.unique(np.asarray(sources, dtype=np.int64))
        if src.size == 0 or self._num_nodes == 0:
            self._touched = _EMPTY_I8
            return _EMPTY_I8, _EMPTY_F8, 0.0
        dist[src] = 0.0
        if owner is not None:
            owner[src] = src
        delta = self._delta
        active_parts = [src]
        settled_parts: list[np.ndarray] = []
        object_parts: list[np.ndarray] = []
        touched_parts = [src]
        kth_bound = np.inf
        found = 0
        bound = 0.0
        while active_parts:
            active = (
                active_parts[0]
                if len(active_parts) == 1
                else _dedup(np.concatenate(active_parts))
            )
            active_dist = dist[active]
            # Drop nodes settled by an earlier bucket (they re-enter the
            # worklist only as stale duplicates, never with a better
            # distance, so a bound check filters them).
            live = active_dist >= bound
            active, active_dist = active[live], active_dist[live]
            if active.size == 0:
                break
            pivot = float(active_dist.min())
            if pivot > max_distance or (found >= k > 0 and pivot > kth_bound):
                break
            high = pivot + delta
            in_window = active_dist < high
            frontier = active[in_window]
            active_parts = [active[~in_window]]
            window_parts = [frontier]
            # Inner fixpoint: relax window nodes until no distance (or
            # owner) below `high` changes; positive weights guarantee no
            # candidate from outside the window can undercut it later.
            while frontier.size:
                changed = self._relax(frontier, dist, owner)
                if changed.size == 0:
                    break
                touched_parts.append(changed)
                inside = dist[changed] < high
                frontier = changed[inside]
                if frontier.size:
                    window_parts.append(frontier)
                spill = changed[~inside]
                if spill.size:
                    active_parts.append(spill)
            window = (
                window_parts[0]
                if len(window_parts) == 1
                else _dedup(np.concatenate(window_parts))
            )
            settled_parts.append(window)
            bound = high
            if k > 0 and window.size:
                counts = object_counts[window]
                bearing = window[counts > 0]
                if bearing.size:
                    object_parts.append(bearing)
                    found += int(counts.sum())
                if found >= k:
                    kth_bound = self._kth_distance(
                        object_parts, dist, object_counts, k
                    )
            if not active_parts[0].size and len(active_parts) == 1:
                break
        # Duplicates are harmless in the reset scatter; skip dedup.
        self._touched = np.concatenate(touched_parts)
        if settled_parts:
            nodes = np.concatenate(settled_parts)
            return nodes, dist[nodes].copy(), bound
        return _EMPTY_I8, _EMPTY_F8, bound

    def _relax(
        self,
        frontier: np.ndarray,
        dist: np.ndarray,
        owner: np.ndarray | None,
    ) -> np.ndarray:
        """Relax every out-edge of ``frontier``; return changed nodes."""
        indptr, indices, weights = self._indptr, self._indices, self._weights
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_I8
        cum = np.cumsum(counts)
        edge_ids = np.arange(total, dtype=np.int64) + np.repeat(
            starts - (cum - counts), counts
        )
        targets = indices[edge_ids]
        cand = np.repeat(dist[frontier], counts) + weights[edge_ids]
        before = dist[targets]
        np.minimum.at(dist, targets, cand)
        changed = _dedup(targets[dist[targets] < before])
        if owner is None:
            return changed
        # Owner maintenance: a strictly-improved node forgets its owner;
        # then every candidate that ties the (new) distance competes and
        # the smallest source id wins — the heapq tuple-order tie-break.
        owner[changed] = _NO_OWNER
        owner_before = owner[targets]
        ties = cand == dist[targets]
        np.minimum.at(
            owner, targets[ties], np.repeat(owner[frontier], counts)[ties]
        )
        owner_changed = targets[owner[targets] < owner_before]
        if owner_changed.size == 0:
            return changed
        return _dedup(np.concatenate([changed, owner_changed]))

    # ------------------------------------------------------------------
    # Batched multi-query search (shared sweep over a source group)
    # ------------------------------------------------------------------
    def _batch_reset(self, size: int) -> np.ndarray:
        """A clean flat distance buffer of at least ``size`` entries."""
        dist = self._batch_dist
        if dist is None or len(dist) < size:
            dist = self._batch_dist = np.full(size, np.inf, dtype=np.float64)
        else:
            # Only the prefix the previous sweep ran in can be dirty: a
            # buffer grown by one wide batch must not cost every later,
            # narrower one a full-length fill.
            used = self._batch_used
            touched = self._batch_touched
            if touched is None or len(touched) * 8 > used:
                dist[:used].fill(np.inf)
            else:
                dist[touched] = np.inf
        self._batch_touched = None
        self._batch_used = size
        return dist

    def _batch_topk(
        self,
        sources: np.ndarray,
        ks: np.ndarray,
        object_counts: np.ndarray,
        versions: np.ndarray,
        patch_nodes: np.ndarray,
        patch_deltas: np.ndarray,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """One shared sweep answering ``len(sources)`` top-k queries.

        Runs the bucket loop of :meth:`_search` over the flattened
        ``(row, node)`` product space — row ``r`` owns flat ids
        ``[r*n, (r+1)*n)`` and evolves exactly like an independent
        :meth:`topk_objects` search, except that all rows share each
        window's vectorized relaxation.  Windows are aligned to the
        *global* minimum tentative distance, so a row may settle a few
        more nodes than its solo run would have; settled distances are
        bit-identical regardless (the window fixpoint argument is
        per-row), which is all the top-k contract needs.

        Row ``r`` reads ``object_counts`` with the first
        ``versions[r]`` of the ``(patch_nodes, patch_deltas)`` changes
        applied (see :meth:`knn_batch`).  Relaxation never looks at
        counts, so rows at different versions still share every window.
        """
        n = self._num_nodes
        rows = len(sources)
        patch_order = np.arange(len(patch_nodes), dtype=np.int64)
        patched = _dedup(patch_nodes)
        last = len(patched) - 1

        def counts_seen(nodes: np.ndarray, seen: np.ndarray) -> np.ndarray:
            """Object count of ``nodes[i]`` as of patch version ``seen[i]``.

            The one place the sweep reads counts.  Few nodes are ever
            patched, so the common case is the plain gather plus one
            sorted-membership probe (``np.isin`` without its set-up
            cost, which dominated at these sizes).
            """
            counts = object_counts[nodes]
            if last >= 0:
                slot = np.minimum(np.searchsorted(patched, nodes), last)
                hit = np.nonzero(patched[slot] == nodes)[0]
                if hit.size:
                    applies = (patch_nodes == nodes[hit, None]) & (
                        patch_order < seen[hit, None]
                    )
                    counts[hit] += applies @ patch_deltas
            return counts

        dist = self._batch_reset(rows * n)
        flat_src = np.arange(rows, dtype=np.int64) * n + sources
        dist[flat_src] = 0.0
        delta = self._delta
        active_parts = [flat_src]
        touched_parts = [flat_src]
        found = np.zeros(rows, dtype=np.int64)
        kth_bound = np.full(rows, np.inf, dtype=np.float64)
        done = ks <= 0
        #: Per row: settled object-bearing local node ids (duplicate-free
        #: — a node settles in exactly one window).
        row_objects: list[list[np.ndarray]] = [[] for _ in range(rows)]
        row_dirty = np.zeros(rows, dtype=bool)
        bound = 0.0
        while active_parts:
            active = (
                active_parts[0]
                if len(active_parts) == 1
                else _dedup(np.concatenate(active_parts))
            )
            active_dist = dist[active]
            live = active_dist >= bound
            active, active_dist = active[live], active_dist[live]
            if active.size and done.any():
                keep = ~done[active // n]
                active, active_dist = active[keep], active_dist[keep]
            if active.size == 0:
                break
            # Per-row early termination, the batched analogue of the
            # solo kernel's `pivot > kth_bound` break: a row is finished
            # once its own minimum tentative distance clears its k-th
            # candidate distance.
            ready = found >= ks
            if ready.any():
                row_min = np.full(rows, np.inf, dtype=np.float64)
                np.minimum.at(row_min, active // n, active_dist)
                finished = ready & ~done & (row_min > kth_bound)
                if finished.any():
                    done |= finished
                    if done.all():
                        break
                    keep = ~done[active // n]
                    active, active_dist = active[keep], active_dist[keep]
                    if active.size == 0:
                        break
            pivot = float(active_dist.min())
            high = pivot + delta
            in_window = active_dist < high
            frontier = active[in_window]
            active_parts = [active[~in_window]]
            window_parts = [frontier]
            while frontier.size:
                changed = self._relax_flat(frontier, dist)
                if changed.size == 0:
                    break
                touched_parts.append(changed)
                inside = dist[changed] < high
                frontier = changed[inside]
                if frontier.size:
                    window_parts.append(frontier)
                spill = changed[~inside]
                if spill.size:
                    active_parts.append(spill)
            window = (
                window_parts[0]
                if len(window_parts) == 1
                else _dedup(np.concatenate(window_parts))
            )
            bound = high
            if window.size:
                window_rows = window // n
                window_nodes = window - window_rows * n
                window_counts = counts_seen(
                    window_nodes, versions[window_rows]
                )
                bearing = window_counts > 0
                if bearing.any():
                    bearing_rows = window_rows[bearing]
                    np.add.at(found, bearing_rows, window_counts[bearing])
                    bearing_nodes = window_nodes[bearing]
                    for row in _dedup(bearing_rows).tolist():
                        row_objects[row].append(
                            bearing_nodes[bearing_rows == row]
                        )
                        row_dirty[row] = True
                    refresh = np.nonzero(row_dirty & (found >= ks) & ~done)[0]
                    for row in refresh.tolist():
                        parts = row_objects[row]
                        nodes = (
                            parts[0] if len(parts) == 1
                            else np.concatenate(parts)
                        )
                        row_objects[row] = [nodes]
                        dists = dist[row * n + nodes]
                        order = np.argsort(dists, kind="stable")
                        row_counts = counts_seen(
                            nodes, np.full(nodes.shape, versions[row])
                        )
                        cumulative = np.cumsum(row_counts[order])
                        position = int(np.searchsorted(cumulative, ks[row]))
                        kth_bound[row] = float(dists[order][position])
                        row_dirty[row] = False
            if not active_parts[0].size and len(active_parts) == 1:
                break
        self._batch_touched = np.concatenate(touched_parts)
        results: list[tuple[np.ndarray, np.ndarray]] = []
        for row in range(rows):
            parts = row_objects[row]
            if not parts:
                results.append((_EMPTY_I8, _EMPTY_F8))
                continue
            nodes = parts[0] if len(parts) == 1 else np.concatenate(parts)
            results.append((nodes, dist[row * n + nodes].copy()))
        return results

    def _relax_flat(self, frontier: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """:meth:`_relax` over the flattened ``(row, node)`` space.

        ``frontier`` holds flat ids ``row*n + node``; edges come from
        the node part while candidates stay inside the row's slice, so
        one scatter-min relaxes every group member's frontier at once.
        """
        indptr, indices, weights = self._indptr, self._indices, self._weights
        n = self._num_nodes
        nodes = frontier % n
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_I8
        cum = np.cumsum(counts)
        edge_ids = np.arange(total, dtype=np.int64) + np.repeat(
            starts - (cum - counts), counts
        )
        targets = indices[edge_ids] + np.repeat(frontier - nodes, counts)
        cand = np.repeat(dist[frontier], counts) + weights[edge_ids]
        before = dist[targets]
        np.minimum.at(dist, targets, cand)
        return _dedup(targets[dist[targets] < before])

    @staticmethod
    def _kth_distance(
        object_parts: list[np.ndarray],
        dist: np.ndarray,
        object_counts: np.ndarray,
        k: int,
    ) -> float:
        """Distance of the k-th nearest object among settled nodes."""
        nodes = np.concatenate(object_parts)
        dists = dist[nodes]
        order = np.argsort(dists, kind="stable")
        cumulative = np.cumsum(object_counts[nodes][order])
        position = int(np.searchsorted(cumulative, k))
        return float(dists[order][position])

    @staticmethod
    def _finish(
        nodes: np.ndarray, dists: np.ndarray, max_distance: float
    ) -> tuple[np.ndarray, np.ndarray]:
        if math.isinf(max_distance):
            return nodes, dists
        mask = dists <= max_distance
        return nodes[mask], dists[mask]


class IncrementalSSSP:
    """A resumable single-source search over private buffers.

    IER refines Euclidean candidates with exact network distances, all
    from the *same* query location; instead of one A* per candidate,
    this object expands the bucketed search just far enough to settle
    each requested target and keeps the explored region for the next
    one.  Not thread-safe (it owns its buffers); build via
    :meth:`CSRKernels.expander`.
    """

    def __init__(self, kernels: CSRKernels, source: int) -> None:
        self._k = kernels
        n = kernels.num_nodes
        self._dist = np.full(n, np.inf, dtype=np.float64)
        if not 0 <= source < n:
            raise IndexError(f"node {source} out of range for graph with {n} nodes")
        self._dist[source] = 0.0
        self._active_parts: list[np.ndarray] = [
            np.asarray([source], dtype=np.int64)
        ]
        self._bound = 0.0  # distances below this are final
        self._exhausted = False

    def distance_to(self, target: int) -> float:
        """Exact network distance to ``target`` (``inf`` if unreachable)."""
        dist = self._dist
        while not (dist[target] < self._bound) and not self._exhausted:
            self._advance()
        d = float(dist[target])
        return d if d < math.inf else math.inf

    def settled_bound(self) -> float:
        """All distances strictly below this value are final."""
        return self._bound

    def _advance(self) -> None:
        """Settle one more bucket (mirrors ``CSRKernels._search``)."""
        kern = self._k
        dist = self._dist
        delta = kern.delta
        active = (
            self._active_parts[0]
            if len(self._active_parts) == 1
            else _dedup(np.concatenate(self._active_parts))
        )
        active_dist = dist[active]
        live = active_dist >= self._bound
        active, active_dist = active[live], active_dist[live]
        if active.size == 0:
            self._exhausted = True
            return
        pivot = float(active_dist.min())
        high = pivot + delta
        in_window = active_dist < high
        frontier = active[in_window]
        self._active_parts = [active[~in_window]]
        while frontier.size:
            changed = kern._relax(frontier, dist, None)
            if changed.size == 0:
                break
            inside = dist[changed] < high
            frontier = changed[inside]
            spill = changed[~inside]
            if spill.size:
                self._active_parts.append(spill)
        self._bound = high
        if len(self._active_parts) == 1 and not self._active_parts[0].size:
            self._exhausted = True
