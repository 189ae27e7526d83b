"""Vectorized contraction-hierarchy engine over CSR road networks.

Extracted from :mod:`repro.knn.toain` (which now adapts over this
module) and rebuilt array-first, in the spirit of SALT's "one shared
hierarchy serving every query family":

* :class:`ContractionHierarchy` contracts *batches* of independent
  (non-adjacent) nodes at once: per round it scores every live node's
  edge difference from vectorized degree/deleted-neighbor arrays,
  selects the nodes that are local minima of ``(priority, id)`` among
  their neighbors (a maximal-progress independent set), runs all their
  witness searches as one bounded multi-source sweep in flat key space
  (:func:`_witness_block`, the same gather/scatter idiom as
  :class:`~repro.graph.kernels.CSRKernels`), and applies the
  contraction with array ops.  The dense endgame (last few thousand
  nodes) falls back to the classic lazy-heap loop
  (:meth:`~ContractionHierarchy._contract_endgame`; with
  ``endgame_nodes >= num_nodes`` it contracts the whole graph).  With
  ``workers=N`` the witness phase fans out across forked worker
  processes that re-attach the base CSR from the graph-cache memmap
  token (or inherit it copy-on-write) and maintain replica edge arrays
  via per-round deltas.
* :class:`CHKernels` runs queries on the output arrays.  The key reuse:
  the delta-stepping :class:`~repro.graph.kernels.CSRKernels` never
  assumes a symmetric CSR, so a private instance over the upward half
  *is* the vectorized bounded upward sweep.  On top of it sit
  :meth:`~CHKernels.point_to_point` (two upward sweeps + a hub join),
  hub-label object buckets, and CH-backed
  :meth:`~CHKernels.topk_objects` / :meth:`~CHKernels.knn_batch` with
  the same contract as the plain kernels — which is what lets
  ``DijkstraKNN``/``IERKNN`` route long-range queries here untouched.
  The hub-label cache is LRU-bounded by *bytes* (``LABEL_CACHE_BYTES``)
  and reported through the ``ch.label_bytes`` / ``ch.label_evictions``
  kernel counters; labels persisted in a graph cache (see
  :func:`repro.graph.cache.save_ch_cache`) are served from the static
  store without touching the LRU.

Batch correctness
-----------------
Contracting a whole independent set is only sound if each member's
witness searches avoid *every* node contracted this round, not just its
own center: two batch members on a common cycle can otherwise each
"witness" the other away and both drop out, losing the path (picture a
4-cycle ``u - v1 - w - v2 - u`` with both ``v1`` and ``v2`` selected).
:func:`_witness_block` therefore takes the whole batch as a forbidden
set.  Truncating a witness search (the ``hop_limit``) errs the safe
way: a missed witness only adds a redundant shortcut, while any found
witness is a genuine path.  Node order itself is a heuristic — any
contraction order yields a correct hierarchy — so the batched builder's
different (still deterministic) order changes sizes, never answers.

Exactness and bit-identity
--------------------------
CH distances are sums over precomputed shortcut weights, and float
addition is not associative — on arbitrary float weights a CH distance
can differ from the Dijkstra distance in the last ulp.  On
integer-weight networks (all DIMACS road graphs; our generated grids)
every path sum is exactly representable in float64, so CH results are
*bit-identical* to the kernels.  :attr:`ContractionHierarchy.exact`
records this (the same integral test as
:func:`~repro.graph.kernels.dial_delta`), and the kNN solutions only
auto-route to the CH path when it is set.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import OrderedDict
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .kernels import KERNEL_CALLS, QUERIES_PER_SWEEP, CSRKernels, dial_delta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .road_network import RoadNetwork

__all__ = [
    "CHKernels",
    "CHDistanceOracle",
    "ContractionHierarchy",
    "LABEL_CACHE_BYTES",
    "WITNESS_HOP_LIMIT",
    "WITNESS_SETTLE_LIMIT",
    "build_core_labels",
    "calibrate_ch_cutoff",
]

INFINITY = float("inf")

#: Witness-search effort bound for the scalar endgame loop.
#: Hitting the bound conservatively adds the shortcut, which preserves
#: correctness.
WITNESS_SETTLE_LIMIT = 60

#: Relaxation-round bound for the batched witness sweeps: witnesses of
#: more than this many hops are not found, which (conservatively and
#: correctly) adds their shortcut.
WITNESS_HOP_LIMIT = 12

#: Per-search label budget for the batched witness sweep — the
#: vectorized counterpart of WITNESS_SETTLE_LIMIT, with headroom
#: because a label-correcting sweep touches more nodes than a Dijkstra
#: settles.  Abandoning a search is conservative: its unresolved pairs
#: just get redundant shortcuts.
WITNESS_LABEL_LIMIT = 256

#: Below this many live nodes the batched builder hands the dense core
#: to the lazy-heap loop.  Kept small: the shrinking-bound witness
#: sweep stays profitable deep into the dense core, and the scalar
#: loop's per-node witness Dijkstras dominate the whole build if the
#: hand-off happens while thousands of high-degree nodes remain.
ENDGAME_NODES = 64

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)

#: Byte budget for the cached hub labels of one :class:`CHKernels`
#: (hub ids + distances).  Least-recently-used labels are evicted past
#: it; the hot high-rank core that every query traverses stays
#: resident.  Overridable per instance via ``label_budget_bytes``.
LABEL_CACHE_BYTES = 128 << 20


# ----------------------------------------------------------------------
# Batched-contraction primitives (module level: shared with the witness
# worker processes)
# ----------------------------------------------------------------------
def _seg_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` — one arange per segment, flattened."""
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I8
    cum = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)


def _half_edges(
    n: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each undirected CSR edge once, as ``(lo, hi, w)`` arrays."""
    counts = np.diff(indptr.astype(np.int64))
    srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
    half = srcs < indices
    return (
        srcs[half],
        indices[half].astype(np.int64),
        weights[half].astype(np.float64),
    )


def _edges_to_csr(
    n: int, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR of the live graph from its half-edge arrays."""
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    wts = np.concatenate([ew, ew])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    if len(src):
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], wts[order]


def _merge_edges(
    n: int,
    eu: np.ndarray,
    ev: np.ndarray,
    ew: np.ndarray,
    sc_a: np.ndarray,
    sc_b: np.ndarray,
    sc_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold new shortcuts into the half-edge arrays, keeping the min
    weight per node pair (the array form of ``adjacency[u][w] =
    min(...)``)."""
    if len(sc_a):
        eu = np.concatenate([eu, np.minimum(sc_a, sc_b)])
        ev = np.concatenate([ev, np.maximum(sc_a, sc_b)])
        ew = np.concatenate([ew, sc_w])
    if len(eu) == 0:
        return eu, ev, ew
    key = eu * n + ev
    order = np.lexsort((ew, key))
    key = key[order]
    keep = np.empty(len(key), dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return eu[order][keep], ev[order][keep], ew[order][keep]


def _select_batch(
    priority: np.ndarray,
    tie: np.ndarray,
    remaining: np.ndarray,
    eu: np.ndarray,
    ev: np.ndarray,
) -> np.ndarray:
    """Live nodes that are strict ``(priority, tie)`` minima among
    their neighbors — an independent set (adjacent nodes can't both win
    their shared edge) that always contains the global minimum.

    ``tie`` is a random permutation of the node ids: on graphs where
    many nodes share a priority (any regular region), breaking ties by
    raw id would leave only a handful of local minima when ids are
    spatially correlated (e.g. row-major grids), collapsing the batch
    size; a random total order keeps the expected independent set at
    ~1/(avg degree + 1) of the live nodes.
    """
    beaten = np.zeros(len(priority), dtype=bool)
    pu = priority[eu]
    pv = priority[ev]
    u_wins = (pu < pv) | ((pu == pv) & (tie[eu] < tie[ev]))
    beaten[ev[u_wins]] = True
    beaten[eu[~u_wins]] = True
    return np.flatnonzero(remaining & ~beaten)


def _sort_triples(
    n: int, a: np.ndarray, b: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical ``(lo, hi, w)`` order, so serial and pooled witness
    phases emit byte-identical shortcut arrays."""
    if len(a) == 0:
        return a, b, w
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    order = np.lexsort((w, lo * n + hi))
    return lo[order], hi[order], w[order]


def _witness_block(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vs: np.ndarray,
    *,
    hop_limit: int,
    forbidden: np.ndarray | None = None,
    chunk: int = 65536,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched bounded witness searches for contracting every ``v`` in
    ``vs`` at once.

    For each ``v`` and each unordered pair ``(u, w)`` of its neighbors,
    look for a path ``u -> w`` of length <= ``w(u,v) + w(v,w)`` that
    avoids ``v`` and every node in ``forbidden`` (the whole batch — see
    the module docstring), within ``hop_limit`` relaxation rounds.
    Pairs with no such witness need a shortcut; returns their
    ``(u, w, weight)`` triples.

    All searches of a chunk run together as label-correcting rounds in
    a flat ``search * n + node`` key space: gather the frontier's
    out-edges, drop forbidden/over-bound candidates, reduce to the min
    per (search, node), and merge improvements into the sorted known
    set — the multi-source analogue of ``CSRKernels._relax``, with the
    per-search bound (the largest ``through`` value) capping the
    explored region exactly like the scalar witness Dijkstra.

    Two dedups make this much cheaper than one search per (center,
    neighbor): searches avoid the *whole batch*, so searches from the
    same source node on behalf of different centers are identical and
    are merged (one search per unique source); and duplicate
    (source, target) pairs arising from different centers keep only
    the minimum ``through`` — a valid path that dominates the others.
    """
    out_a: list[np.ndarray] = [_EMPTY_I8]
    out_b: list[np.ndarray] = [_EMPTY_I8]
    out_w: list[np.ndarray] = [_EMPTY_F8]
    vs = np.asarray(vs, dtype=np.int64)
    if len(vs):
        deg = indptr[vs + 1] - indptr[vs]
        vs = vs[deg >= 2]  # fewer than two neighbors: no pairs
    for start in range(0, len(vs), chunk):
        cvs = vs[start:start + chunk]
        if forbidden is None:
            # Standalone use: batch semantics still require routing
            # around every center in the chunk.
            forbid = np.zeros(n, dtype=bool)
            forbid[cvs] = True
        else:
            forbid = forbidden
        d = (indptr[cvs + 1] - indptr[cvs]).astype(np.int64)
        # One source slot per (v, neighbor index i < deg-1): source u
        # is the i-th neighbor, targets are neighbors j > i.
        s_counts = d - 1
        if int(s_counts.sum()) == 0:
            continue
        s_v = np.repeat(cvs, s_counts)
        s_i = _seg_arange(s_counts)
        s_edge = indptr[s_v] + s_i
        slot_u = indices[s_edge].astype(np.int64)
        s_du = weights[s_edge].astype(np.float64)
        t_counts = np.repeat(d, s_counts) - 1 - s_i
        slot_of_pair = np.repeat(
            np.arange(len(slot_u), dtype=np.int64), t_counts
        )
        t_j = s_i[slot_of_pair] + 1 + _seg_arange(t_counts)
        t_edge = indptr[s_v[slot_of_pair]] + t_j
        raw_node = indices[t_edge].astype(np.int64)
        raw_through = s_du[slot_of_pair] + weights[t_edge]

        # Merge slots that share a source node, then dedup pairs on
        # (search, target) keeping the smallest through value.  The
        # pair-key sort doubles as the per-search grouping (sid is the
        # key's high part).
        s_u, inv = np.unique(slot_u, return_inverse=True)
        num_s = len(s_u)
        pk0 = inv[slot_of_pair] * n + raw_node
        order = np.lexsort((raw_through, pk0))
        pk_sorted = pk0[order]
        keep = np.empty(len(pk_sorted), dtype=bool)
        if len(keep):
            keep[0] = True
            np.not_equal(pk_sorted[1:], pk_sorted[:-1], out=keep[1:])
        pk = pk_sorted[keep]
        through = raw_through[order][keep]
        t_sid = pk // n
        t_node = pk - t_sid * n
        group_starts = np.cumsum(np.bincount(t_sid, minlength=num_s))
        group_starts -= np.bincount(t_sid, minlength=num_s)

        known_keys = np.arange(num_s, dtype=np.int64) * n + s_u
        known_dist = np.zeros(num_s, dtype=np.float64)

        def _lookup(keys: np.ndarray) -> np.ndarray:
            """Known distance per key (inf when unsettled)."""
            pos = np.searchsorted(known_keys, keys)
            pos_c = np.minimum(pos, len(known_keys) - 1)
            have = (pos < len(known_keys)) & (known_keys[pos_c] == keys)
            return np.where(have, known_dist[pos_c], np.inf)

        # Per-search bound: the largest *unresolved* target's through
        # value.  Re-shrunk every hop as witnesses land, so a search
        # dies the moment its last pair is witnessed — the batched
        # analogue of the scalar loop's ``remaining == 0`` early exit.
        # ``live`` indexes the still-unresolved pairs so the per-hop
        # re-check touches only them, not the whole chunk.  A search
        # that accumulates more than WITNESS_LABEL_LIMIT distance
        # labels is abandoned (its remaining pairs get conservative
        # shortcuts) — the batched analogue of the scalar witness
        # Dijkstra's settle cap, with headroom because label-correcting
        # sweeps touch more nodes than Dijkstra settles.
        tmask = through.copy()
        live = np.arange(len(pk), dtype=np.int64)
        bound = np.maximum.reduceat(tmask, group_starts)
        labels = np.ones(num_s, dtype=np.int64)
        f_keys = known_keys
        f_dist = known_dist
        for _ in range(hop_limit):
            f_sid = f_keys // n
            # Prune before the edge gather: entries of searches whose
            # bound has shrunk below the frontier distance (dead or
            # nearly-done searches) can never yield a candidate, since
            # weights are positive.
            alive = f_dist < bound[f_sid]
            if not alive.all():
                f_keys = f_keys[alive]
                f_dist = f_dist[alive]
                f_sid = f_sid[alive]
            if len(f_keys) == 0:
                break
            f_node = f_keys % n
            st = indptr[f_node]
            cnt = indptr[f_node + 1] - st
            eids = _seg_arange(cnt) + np.repeat(st, cnt)
            tg = indices[eids].astype(np.int64, copy=False)
            cd = np.repeat(f_dist, cnt) + weights[eids]
            # The contracted centers are all batch members, so the
            # forbidden mask subsumes any per-search center skip.
            ok = cd <= np.repeat(bound[f_sid], cnt)
            ok &= ~forbid[tg]
            if not ok.any():
                break
            # key = sid*n + node; sid*n is f_keys - f_node, expanded.
            ck = np.repeat(f_keys - f_node, cnt)[ok] + tg[ok]
            cd = cd[ok]
            # Min distance per unique key: one stable sort by key, then
            # a segmented min — cheaper than a two-key lexsort.
            order = np.argsort(ck, kind="stable")
            ck = ck[order]
            first = np.empty(len(ck), dtype=bool)
            first[0] = True
            np.not_equal(ck[1:], ck[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            cd = np.minimum.reduceat(cd[order], starts)
            ck = ck[first]
            pos = np.searchsorted(known_keys, ck)
            pos_c = np.minimum(pos, len(known_keys) - 1)
            have = (pos < len(known_keys)) & (known_keys[pos_c] == ck)
            better = cd < np.where(have, known_dist[pos_c], np.inf)
            if not better.any():
                break
            upd = better & have
            known_dist[pos[upd]] = cd[upd]
            new = better & ~have
            if new.any():
                known_keys = np.insert(known_keys, pos[new], ck[new])
                known_dist = np.insert(known_dist, pos[new], cd[new])
            f_keys = ck[better]
            f_dist = cd[better]
            rebound = False
            resolved = _lookup(pk[live]) <= through[live]
            if resolved.any():
                tmask[live[resolved]] = -np.inf
                live = live[~resolved]
                if len(live) == 0:
                    break
                rebound = True
            if new.any():
                labels += np.bincount(ck[new] // n, minlength=num_s)
                over = labels[t_sid[live]] > WITNESS_LABEL_LIMIT
                if over.any():
                    tmask[live[over]] = -np.inf
                    # Capped pairs stay in ``live``: the final check
                    # below emits their (conservative) shortcuts.
                    rebound = True
            if rebound:
                bound = np.maximum.reduceat(tmask, group_starts)

        # A witness at exactly the bound wins; pairs already pruned
        # from ``live`` found theirs mid-sweep.
        need = np.zeros(len(pk), dtype=bool)
        if len(live):
            need[live[_lookup(pk[live]) > through[live]]] = True
        if need.any():
            out_a.append(s_u[t_sid[need]])
            out_b.append(t_node[need])
            out_w.append(through[need])
    return (
        np.concatenate(out_a),
        np.concatenate(out_b),
        np.concatenate(out_w),
    )


# ----------------------------------------------------------------------
# Witness worker pool
# ----------------------------------------------------------------------
def _witness_worker(conn, payload, index: int, num_workers: int,
                    hop_limit: int) -> None:
    """Worker loop: hold a replica of the evolving half-edge arrays and
    answer a strided share of each round's witness searches."""
    if isinstance(payload, tuple) and payload and payload[0] == "cache":
        from .cache import attach_cached_graph

        network = attach_cached_graph(payload[1])
    else:
        network = payload
    indptr, indices, weights = network.csr_arrays
    n = network.num_nodes
    eu, ev, ew = _half_edges(n, indptr, indices, weights)
    try:
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "witness":
                sel = msg[1]
                selmask = np.zeros(n, dtype=bool)
                selmask[sel] = True
                csr = _edges_to_csr(n, eu, ev, ew)
                share = sel[index::num_workers]
                conn.send(
                    _witness_block(
                        n, *csr, share,
                        hop_limit=hop_limit, forbidden=selmask,
                    )
                )
            elif tag == "apply":
                sel, sc_a, sc_b, sc_w = msg[1], msg[2], msg[3], msg[4]
                selmask = np.zeros(n, dtype=bool)
                selmask[sel] = True
                keep = ~(selmask[eu] | selmask[ev])
                eu, ev, ew = _merge_edges(
                    n, eu[keep], ev[keep], ew[keep], sc_a, sc_b, sc_w
                )
            else:
                break
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        conn.close()


class _WitnessPool:
    """Fork-context worker processes for the batched witness phase.

    The base CSR travels as the graph-cache memmap token when the
    network is cache-backed (each worker re-memmaps the same files), or
    by fork copy-on-write otherwise; afterwards only per-round deltas
    (the contracted batch + its shortcut triples) cross the pipes.
    """

    def __init__(self, network: "RoadNetwork", workers: int,
                 hop_limit: int) -> None:
        ctx = multiprocessing.get_context("fork")
        cache_meta = getattr(network, "_cache_meta", None)
        payload = ("cache", cache_meta) if cache_meta is not None else network
        self._conns = []
        self._procs = []
        for index in range(workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_witness_worker,
                args=(child, payload, index, workers, hop_limit),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def witness(
        self, sel: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        for conn in self._conns:
            conn.send(("witness", sel))
        parts = [self._recv(conn) for conn in self._conns]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        )

    def apply(self, sel: np.ndarray, sc_a: np.ndarray, sc_b: np.ndarray,
              sc_w: np.ndarray) -> None:
        for conn in self._conns:
            conn.send(("apply", sel, sc_a, sc_b, sc_w))

    @staticmethod
    def _recv(conn, timeout: float = 600.0):
        if not conn.poll(timeout):
            raise RuntimeError("witness worker timed out")
        return conn.recv()

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close",))
                conn.close()
            except OSError:  # pragma: no cover - worker already gone
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=10)


def _rebuild_hierarchy(state: dict) -> "ContractionHierarchy":
    """Pickle helper: rebuild a hierarchy from its plain state dict."""
    ch = ContractionHierarchy.__new__(ContractionHierarchy)
    ch.__setstate__(state)
    return ch


class ContractionHierarchy:
    """A full contraction hierarchy over a road network, as arrays.

    Nodes are contracted in (batched) edge-difference order; shortcuts
    keep shortest distances intact among uncontracted nodes.  The
    outputs:

    ``rank``
        int64 array; ``rank[v]`` is v's contraction order (0 = first).
    ``up_indptr`` / ``up_indices`` / ``up_weights``
        CSR of the *upward* graph: one arc per final undirected edge or
        shortcut, from its lower-ranked to its higher-ranked endpoint.
    ``down_indptr`` / ``down_indices`` / ``down_weights``
        The reverse (downward) half.
    ``shortcut_u`` / ``shortcut_v`` / ``shortcut_w``
        The shortcut triples that were added (diagnostics/size checks).
    ``exact``
        True when all edge weights are integral, i.e. CH sums are
        bit-identical to Dijkstra distances (see module docstring).

    Construction is vectorized independent-set rounds (see the module
    docstring) down to ``endgame_nodes`` live nodes, then the scalar
    lazy-heap loop.  ``workers=N`` parallelizes the batched witness
    phase across N forked processes; platforms without fork fall back
    to serial.  Both execution modes are deterministic, and serial vs.
    pooled builds are byte-identical.  ``builder`` records provenance
    (``"batched"`` for a fresh build, ``"cached"`` for adopted arrays).

    A hierarchy loaded from a graph cache
    (:func:`repro.graph.cache.load_cached_ch`) carries a
    ``CHCacheMeta`` token and pickles as that token — pool workers
    re-memmap the arrays in O(1) instead of shipping or rebuilding
    them.

    The dict/list views of the old pure-Python implementation
    (:attr:`edges`, :attr:`up_adj`) are kept as lazily-built cached
    properties for :class:`repro.knn.toain.ToainIndex` compatibility.
    """

    def __init__(
        self,
        network: "RoadNetwork",
        seed: int = 0,
        *,
        workers: int | None = None,
        witness_hops: int = WITNESS_HOP_LIMIT,
        endgame_nodes: int = ENDGAME_NODES,
    ) -> None:
        self.network = network
        indptr, indices, weights = network.csr_arrays
        self.exact = bool(
            len(weights) == 0
            or np.equal(np.floor(weights), weights).all()
        )
        self.builder = "batched"
        KERNEL_CALLS["ch.build"] += 1
        self._static_labels: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._contract_batched(
            indptr,
            indices,
            weights,
            seed=seed,
            workers=workers,
            witness_hops=witness_hops,
            endgame_nodes=endgame_nodes,
        )
        self._build_halves(indptr, indices, weights)
        self._init_runtime_state()

    @classmethod
    def from_arrays(
        cls,
        network: "RoadNetwork",
        *,
        rank: np.ndarray,
        up_indptr: np.ndarray,
        up_indices: np.ndarray,
        up_weights: np.ndarray,
        down_indptr: np.ndarray,
        down_indices: np.ndarray,
        down_weights: np.ndarray,
        shortcut_u: np.ndarray,
        shortcut_v: np.ndarray,
        shortcut_w: np.ndarray,
        exact: bool,
        builder: str = "cached",
        static_labels: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> "ContractionHierarchy":
        """Adopt prebuilt hierarchy arrays (e.g. memmapped from a graph
        cache) without contracting anything.  Arrays are used as-is and
        must be treated as read-only."""
        ch = cls.__new__(cls)
        ch.network = network
        ch.exact = bool(exact)
        ch.builder = builder
        ch.rank = rank
        ch.up_indptr = up_indptr
        ch.up_indices = up_indices
        ch.up_weights = up_weights
        ch.down_indptr = down_indptr
        ch.down_indices = down_indices
        ch.down_weights = down_weights
        ch.shortcut_u = shortcut_u
        ch.shortcut_v = shortcut_v
        ch.shortcut_w = shortcut_w
        ch._static_labels = static_labels
        ch._init_runtime_state()
        return ch

    # ------------------------------------------------------------------
    # Batched construction
    # ------------------------------------------------------------------
    def _contract_batched(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        seed: int,
        workers: int | None,
        witness_hops: int,
        endgame_nodes: int,
    ) -> None:
        n = self.network.num_nodes
        rank = np.zeros(n, dtype=np.int64)
        tie = np.random.default_rng(seed).permutation(n)
        eu, ev, ew = _half_edges(n, indptr, indices, weights)
        remaining = np.ones(n, dtype=bool)
        deleted = np.zeros(n, dtype=np.int64)
        parts_a: list[np.ndarray] = []
        parts_b: list[np.ndarray] = []
        parts_w: list[np.ndarray] = []
        next_rank = 0
        floor = max(int(endgame_nodes), 0)
        pool = None
        try:
            if (
                workers is not None
                and int(workers) > 1
                and n > floor
                and "fork" in multiprocessing.get_all_start_methods()
            ):
                pool = _WitnessPool(self.network, int(workers), witness_hops)
            while int(remaining.sum()) > floor:
                deg = (
                    np.bincount(eu, minlength=n)
                    + np.bincount(ev, minlength=n)
                )
                priority = deg * (deg - 1) / 2.0 - deg + 0.7 * deleted
                sel = _select_batch(priority, tie, remaining, eu, ev)
                if sel.size == 0:  # pragma: no cover - minimum always wins
                    break
                selmask = np.zeros(n, dtype=bool)
                selmask[sel] = True
                if pool is not None:
                    sc_a, sc_b, sc_w = pool.witness(sel)
                else:
                    csr = _edges_to_csr(n, eu, ev, ew)
                    sc_a, sc_b, sc_w = _witness_block(
                        n, *csr, sel,
                        hop_limit=witness_hops, forbidden=selmask,
                    )
                sc_a, sc_b, sc_w = _sort_triples(n, sc_a, sc_b, sc_w)
                # Ranks within the batch follow (priority, id) — the
                # order the heap would have popped them in.
                order = np.lexsort((sel, priority[sel]))
                rank[sel[order]] = next_rank + np.arange(
                    sel.size, dtype=np.int64
                )
                next_rank += int(sel.size)
                remaining[sel] = False
                a_sel = selmask[eu]
                b_sel = selmask[ev]
                np.add.at(deleted, ev[a_sel], 1)
                np.add.at(deleted, eu[b_sel], 1)
                keep = ~a_sel & ~b_sel
                eu, ev, ew = _merge_edges(
                    n, eu[keep], ev[keep], ew[keep], sc_a, sc_b, sc_w
                )
                if pool is not None:
                    pool.apply(sel, sc_a, sc_b, sc_w)
                if len(sc_a):
                    parts_a.append(sc_a)
                    parts_b.append(sc_b)
                    parts_w.append(sc_w)
        finally:
            if pool is not None:
                pool.close()
        tail_u: list[int] = []
        tail_v: list[int] = []
        tail_w: list[float] = []
        self._contract_endgame(
            n, eu, ev, ew, remaining, deleted, rank, next_rank,
            tail_u, tail_v, tail_w,
        )
        parts_a.append(np.asarray(tail_u, dtype=np.int64))
        parts_b.append(np.asarray(tail_v, dtype=np.int64))
        parts_w.append(np.asarray(tail_w, dtype=np.float64))
        self.rank = rank
        self.shortcut_u = np.concatenate(parts_a) if parts_a else _EMPTY_I8
        self.shortcut_v = np.concatenate(parts_b) if parts_b else _EMPTY_I8
        self.shortcut_w = np.concatenate(parts_w) if parts_w else _EMPTY_F8

    def _contract_endgame(
        self,
        n: int,
        eu: np.ndarray,
        ev: np.ndarray,
        ew: np.ndarray,
        remaining: np.ndarray,
        deleted: np.ndarray,
        rank: np.ndarray,
        next_rank: int,
        sc_u: list[int],
        sc_v: list[int],
        sc_w: list[float],
    ) -> int:
        """Contract the dense core with the scalar lazy-heap loop,
        continuing the rank sequence of the batched rounds."""
        adjacency: list[dict[int, float]] = [dict() for _ in range(n)]
        for u, v, w in zip(eu.tolist(), ev.tolist(), ew.tolist()):
            adjacency[u][v] = w
            adjacency[v][u] = w
        deleted_neighbors = deleted.tolist()
        live = np.flatnonzero(remaining).tolist()
        contracted = [True] * n
        for v in live:
            contracted[v] = False

        def priority(v: int) -> float:
            degree = len(adjacency[v])
            needed = degree * (degree - 1) // 2
            return needed - degree + 0.7 * deleted_neighbors[v]

        heap: list[tuple[float, int]] = [(priority(v), v) for v in live]
        heap.sort()
        while heap:
            _, v = heappop(heap)
            if contracted[v]:
                continue
            fresh = priority(v)
            if heap and fresh > heap[0][0]:
                heappush(heap, (fresh, v))
                continue
            rank[v] = next_rank
            next_rank += 1
            contracted[v] = True
            for u, w, weight in self._shortcuts_for(adjacency, v):
                prior = adjacency[u].get(w)
                if prior is None or weight < prior:
                    adjacency[u][w] = weight
                    adjacency[w][u] = weight
                sc_u.append(u)
                sc_v.append(w)
                sc_w.append(weight)
            for u in adjacency[v]:
                deleted_neighbors[u] += 1
                adjacency[u].pop(v, None)
            adjacency[v].clear()
        return next_rank

    # ------------------------------------------------------------------
    # Scalar construction helpers (endgame)
    # ------------------------------------------------------------------
    @staticmethod
    def _shortcuts_for(
        adjacency: list[dict[int, float]], v: int
    ) -> list[tuple[int, int, float]]:
        """Shortcuts required when removing ``v``.

        One *multi-target* bounded witness search per neighbor ``u``
        replaces the classic per-pair search: a single Dijkstra from
        ``u`` (avoiding ``v``) tries to settle every other neighbor
        ``w`` within its ``u→v→w`` bound.  Hitting the settle limit
        leaves the remaining targets shortcut-ed, which is conservative
        and correct.
        """
        neighbors = list(adjacency[v])
        shortcuts: list[tuple[int, int, float]] = []
        for i, u in enumerate(neighbors):
            du = adjacency[v][u]
            through = {w: du + adjacency[v][w] for w in neighbors[i + 1:]}
            if not through:
                continue
            reached = ContractionHierarchy._witness_multi(
                adjacency, u, through, v
            )
            for w, bound in through.items():
                if reached.get(w, INFINITY) > bound:
                    shortcuts.append((u, w, bound))
        return shortcuts

    @staticmethod
    def _witness_multi(
        adjacency: list[dict[int, float]],
        source: int,
        through: dict[int, float],
        skip: int,
    ) -> dict[int, float]:
        """Bounded Dijkstra from ``source`` avoiding ``skip``.

        Returns settled distances for the nodes in ``through`` (others
        may appear; missing means "no witness found within budget").
        """
        bound = max(through.values())
        dist: dict[int, float] = {source: 0.0}
        heap = [(0.0, source)]
        remaining = len(through)
        settled = 0
        done: set[int] = set()
        while heap and settled < WITNESS_SETTLE_LIMIT and remaining > 0:
            d, node = heappop(heap)
            if d > dist.get(node, INFINITY):
                continue
            if d > bound:
                break
            settled += 1
            if node in through and node not in done:
                done.add(node)
                remaining -= 1
            for nxt, weight in adjacency[node].items():
                if nxt == skip:
                    continue
                nd = d + weight
                if nd <= bound and nd < dist.get(nxt, INFINITY):
                    dist[nxt] = nd
                    heappush(heap, (nd, nxt))
        return dist

    def _build_halves(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        """Dedup originals + shortcuts, split into up/down CSR halves."""
        n = len(self.rank)
        base_u, base_v, base_w = _half_edges(n, indptr, indices, weights)
        all_u = np.concatenate([base_u, self.shortcut_u])
        all_v = np.concatenate([base_v, self.shortcut_v])
        all_w = np.concatenate([base_w, self.shortcut_w])
        lo = np.minimum(all_u, all_v)
        hi = np.maximum(all_u, all_v)
        key = lo * max(n, 1) + hi
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        first = np.empty(len(key_sorted), dtype=bool)
        if len(key_sorted):
            first[0] = True
            np.not_equal(key_sorted[1:], key_sorted[:-1], out=first[1:])
        group_starts = np.flatnonzero(first)
        if len(group_starts):
            edge_w = np.minimum.reduceat(all_w[order], group_starts)
        else:
            edge_w = _EMPTY_F8
        edge_lo = lo[order][group_starts]
        edge_hi = hi[order][group_starts]

        rank = self.rank
        lower_first = rank[edge_lo] < rank[edge_hi]
        up_src = np.where(lower_first, edge_lo, edge_hi)
        up_dst = np.where(lower_first, edge_hi, edge_lo)

        def _csr(src: np.ndarray, dst: np.ndarray, wts: np.ndarray):
            order_ = np.argsort(src, kind="stable")
            ptr = np.zeros(n + 1, dtype=np.int64)
            if len(src):
                np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
            return ptr, dst[order_], wts[order_]

        self.up_indptr, self.up_indices, self.up_weights = _csr(
            up_src, up_dst, edge_w
        )
        self.down_indptr, self.down_indices, self.down_weights = _csr(
            up_dst, up_src, edge_w
        )

    def _init_runtime_state(self) -> None:
        self._tls = threading.local()
        self._edges_cache: dict[tuple[int, int], float] | None = None
        self._up_adj_cache: list[list[tuple[int, float]]] | None = None
        self._cache_meta = None  # set by repro.graph.cache on load/save

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.rank)

    @property
    def num_shortcuts(self) -> int:
        return len(self.shortcut_w)

    @property
    def kernels(self) -> "CHKernels":
        """A per-thread :class:`CHKernels` (buffer reuse = not shared)."""
        kern = getattr(self._tls, "kernels", None)
        if kern is None:
            kern = CHKernels(self)
            self._tls.kernels = kern
        return kern

    @property
    def edges(self) -> dict[tuple[int, int], float]:
        """Final undirected edge dict (originals + shortcuts), lazily
        built from the upward half — the old implementation's attribute,
        kept for :class:`~repro.knn.toain.ToainIndex`."""
        if self._edges_cache is None:
            n = self.num_nodes
            counts = np.diff(self.up_indptr)
            srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
            lo = np.minimum(srcs, self.up_indices)
            hi = np.maximum(srcs, self.up_indices)
            self._edges_cache = dict(
                zip(
                    zip(lo.tolist(), hi.tolist()),
                    self.up_weights.tolist(),
                )
            )
        return self._edges_cache

    @property
    def up_adj(self) -> list[list[tuple[int, float]]]:
        """Upward adjacency lists ``v -> [(higher, w)]`` (old attribute)."""
        if self._up_adj_cache is None:
            n = self.num_nodes
            ptr = self.up_indptr.tolist()
            idx = self.up_indices.tolist()
            wts = self.up_weights.tolist()
            self._up_adj_cache = [
                list(zip(idx[ptr[v]:ptr[v + 1]], wts[ptr[v]:ptr[v + 1]]))
                for v in range(n)
            ]
        return self._up_adj_cache

    # ------------------------------------------------------------------
    # Pickling: a cache-backed hierarchy ships its ~100-byte token and
    # is re-memmapped on the other side; otherwise the plain state dict
    # travels (derived caches and thread-locals are dropped).
    # ------------------------------------------------------------------
    def __reduce__(self):
        meta = getattr(self, "_cache_meta", None)
        if meta is not None:
            from .cache import attach_cached_ch

            return (attach_cached_ch, (meta,))
        return (_rebuild_hierarchy, (self.__getstate__(),))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for transient in (
            "_tls", "_edges_cache", "_up_adj_cache", "_cache_meta",
        ):
            state.pop(transient, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_runtime_state()


class CHKernels:
    """Query kernels over one :class:`ContractionHierarchy`.

    Reuses buffers across calls (like :class:`CSRKernels`), so one
    instance must never be driven from two threads — get per-thread
    instances from :attr:`ContractionHierarchy.kernels`.

    Everything is joins over upward hub *labels* (see :meth:`label` —
    memoized DAG merges in rank order, LRU-bounded by bytes; the
    bounded :meth:`upward_sweep` is still ``CSRKernels.sssp`` over the
    upward CSR half):

    * ``point_to_point(s, t)`` — min over common hubs of the two
      labels (the classic CH up-up meeting, valid on undirected
      graphs).
    * ``topk_objects`` / ``knn_batch`` — object labels are bucketed by
      hub into one CSR with dense object slots, and a query is the
      source's label plus a vectorized bucket join (``np.minimum.at``
      into a num-objects-sized buffer), with the same settled-superset
      contract as the plain kernels.  First touch of a source pays its
      label construction; the cached steady state is what the routing
      cutoff should be calibrated against.
    """

    def __init__(
        self,
        ch: ContractionHierarchy,
        *,
        label_budget_bytes: int | None = None,
    ) -> None:
        self._ch = ch
        self._up = CSRKernels(
            ch.up_indptr,
            ch.up_indices,
            ch.up_weights,
            delta=dial_delta(ch.up_weights),
        )
        n = ch.num_nodes
        self._num_nodes = n
        #: node -> (hub nodes, hub distances) upward label cache, in
        #: LRU order, bounded by ``label_budget_bytes`` total bytes.
        self._labels: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self._label_bytes = 0
        self._label_budget = int(
            LABEL_CACHE_BYTES if label_budget_bytes is None
            else label_budget_bytes
        )
        static = getattr(ch, "_static_labels", None)
        if static is not None:
            (
                self._static_indptr,
                self._static_hubs,
                self._static_dists,
            ) = static
        else:
            self._static_indptr = None
            self._static_hubs = None
            self._static_dists = None
        # Bucket join state (rebuilt when the object-node set changes).
        self._bucket_key: bytes | None = None
        self._hub_indptr: np.ndarray | None = None
        self._hub_slots: np.ndarray | None = None
        self._hub_dists: np.ndarray | None = None
        #: The bucketed object nodes; bucket entries refer to them by
        #: dense slot so the join scatters into a num-objects-sized
        #: buffer instead of a num-nodes-sized one.
        self._obj_nodes: np.ndarray | None = None
        self._obj_dist: np.ndarray | None = None

    @property
    def ch(self) -> ContractionHierarchy:
        return self._ch

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def label_cache_bytes(self) -> int:
        """Bytes currently held by the LRU label cache (static labels
        from a graph cache are memmapped and not counted)."""
        return self._label_bytes

    @property
    def label_budget_bytes(self) -> int:
        return self._label_budget

    # ------------------------------------------------------------------
    # Sweeps and labels
    # ------------------------------------------------------------------
    def upward_sweep(
        self, source: int, max_distance: float = INFINITY
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bounded upward search: ``(hubs, dists)`` over the up-CSR."""
        return self._up.sssp(source, max_distance)

    def _static_label(
        self, node: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The persisted label of ``node``, if the hierarchy carries a
        prebuilt core-label store covering it."""
        sp = self._static_indptr
        if sp is None:
            return None
        start = int(sp[node])
        end = int(sp[node + 1])
        if end <= start:
            return None
        return self._static_hubs[start:end], self._static_dists[start:end]

    def label(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """The cached upward hub label of ``node`` (treat as read-only).

        The upward graph is a DAG ordered by rank (every up-edge goes
        strictly rank-upward), so labels obey the hub-label recursion
        ``label(v) = min-merge({v: 0}, {label(u) + w(v, u) for up-edges
        (v, u)})``.  Computing them by memoized vectorized merges in
        descending-rank order replaces the per-call Dijkstra sweep, and
        — crucially — shares the merged ancestors across *all* queries:
        after warm-up only the low-rank vicinity of a fresh source is
        new work.  Distances are identical to the upward sweep's (sums
        over the same up-paths), so exactness guarantees are unchanged.

        Labels persisted in the graph cache (the high-rank core) are
        served from the static store; everything else lives in the LRU
        cache bounded by :attr:`label_budget_bytes`, with evictions and
        residency reported via the ``ch.label_evictions`` /
        ``ch.label_bytes`` kernel counters.
        """
        got = self._static_label(node)
        if got is not None:
            return got
        labels = self._labels
        cached = labels.get(node)
        if cached is not None:
            labels.move_to_end(node)
            return cached
        ch = self._ch
        indptr, indices, weights = (
            ch.up_indptr, ch.up_indices, ch.up_weights,
        )
        # Collect the un-labelled part of node's upward closure.
        stack = [node]
        pending = {node}
        while stack:
            v = stack.pop()
            for u in indices[indptr[v]:indptr[v + 1]].tolist():
                if u in pending or u in labels:
                    continue
                if self._static_label(u) is not None:
                    continue
                pending.add(u)
                stack.append(u)
        rank = ch.rank
        one_zero = np.zeros(1, dtype=np.float64)
        built_bytes = 0
        # Highest rank first, so every up-neighbor's label is ready.
        for v in sorted(pending, key=lambda x: -rank[x]):
            start, end = int(indptr[v]), int(indptr[v + 1])
            hub_parts = [np.array([v], dtype=np.int64)]
            dist_parts = [one_zero]
            for pos in range(start, end):
                u = int(indices[pos])
                got_u = labels.get(u)
                if got_u is not None:
                    labels.move_to_end(u)
                else:
                    got_u = self._static_label(u)
                hubs_u, dists_u = got_u
                hub_parts.append(hubs_u)
                dist_parts.append(dists_u + weights[pos])
            hubs = np.concatenate(hub_parts)
            dists = np.concatenate(dist_parts)
            order = np.lexsort((dists, hubs))
            hubs = hubs[order]
            dists = dists[order]
            keep = np.empty(len(hubs), dtype=bool)
            keep[0] = True
            np.not_equal(hubs[1:], hubs[:-1], out=keep[1:])
            entry = (hubs[keep], dists[keep])
            labels[v] = entry
            built_bytes += entry[0].nbytes + entry[1].nbytes
        self._label_bytes += built_bytes
        KERNEL_CALLS["ch.label_bytes"] += built_bytes
        # Evict cold labels past the budget; entries just built sit at
        # the LRU tail and are never the eviction victim.
        while (
            self._label_bytes > self._label_budget
            and len(labels) > len(pending)
        ):
            _, (old_hubs, old_dists) = labels.popitem(last=False)
            freed = old_hubs.nbytes + old_dists.nbytes
            self._label_bytes -= freed
            KERNEL_CALLS["ch.label_bytes"] -= freed
            KERNEL_CALLS["ch.label_evictions"] += 1
        return labels[node]

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def point_to_point(self, source: int, target: int) -> float:
        """Exact network distance via the up-up hub meeting (inf when
        unreachable)."""
        n = self._num_nodes
        for node in (source, target):
            if not 0 <= node < n:
                raise IndexError(
                    f"node {node} out of range for graph with {n} nodes"
                )
        if source == target:
            return 0.0
        s_nodes, s_dists = self.label(source)
        t_nodes, t_dists = self.label(target)
        common, s_idx, t_idx = np.intersect1d(
            s_nodes, t_nodes, assume_unique=True, return_indices=True
        )
        if common.size == 0:
            return INFINITY
        return float((s_dists[s_idx] + t_dists[t_idx]).min())

    def expander(self, source: int) -> "CHDistanceOracle":
        """A many-targets distance oracle from one source (IER's tool)."""
        return CHDistanceOracle(self, source)

    # ------------------------------------------------------------------
    # Object buckets (hub-label join)
    # ------------------------------------------------------------------
    def _ensure_buckets(self, object_counts: np.ndarray) -> bool:
        """(Re)build the hub CSR for the current object-node set.

        Returns False when there are no object nodes at all.
        """
        obj_nodes = np.flatnonzero(np.asarray(object_counts) > 0)
        key = obj_nodes.tobytes()
        if key == self._bucket_key:
            return bool(len(obj_nodes))
        if len(obj_nodes) == 0:
            self._bucket_key = key
            self._hub_indptr = None
            return False
        hub_parts: list[np.ndarray] = []
        slot_parts: list[np.ndarray] = []
        dist_parts: list[np.ndarray] = []
        for slot, node in enumerate(obj_nodes.tolist()):
            hubs, dists = self.label(node)
            hub_parts.append(hubs)
            slot_parts.append(np.full(len(hubs), slot, dtype=np.int64))
            dist_parts.append(dists)
        hubs_all = np.concatenate(hub_parts)
        order = np.argsort(hubs_all, kind="stable")
        self._hub_indptr = np.zeros(self._num_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(hubs_all, minlength=self._num_nodes),
            out=self._hub_indptr[1:],
        )
        self._hub_slots = np.concatenate(slot_parts)[order]
        self._hub_dists = np.concatenate(dist_parts)[order]
        self._obj_nodes = obj_nodes
        self._obj_dist = np.empty(len(obj_nodes), dtype=np.float64)
        self._bucket_key = key
        return True

    def _object_distances(
        self, source: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact distances to every reachable object node: the source's
        hub label joined against the object buckets."""
        s_nodes, s_dists = self.label(source)
        hub_indptr = self._hub_indptr
        starts = hub_indptr[s_nodes]
        counts = hub_indptr[s_nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_I8, _EMPTY_F8
        cum = np.cumsum(counts)
        entry_ids = np.arange(total, dtype=np.int64) + np.repeat(
            starts - (cum - counts), counts
        )
        cand_slots = self._hub_slots[entry_ids]
        cand_dists = self._hub_dists[entry_ids] + np.repeat(s_dists, counts)
        dist = self._obj_dist
        dist.fill(np.inf)
        np.minimum.at(dist, cand_slots, cand_dists)
        reached = np.isfinite(dist)
        return self._obj_nodes[reached], dist[reached]

    def topk_objects(
        self, source: int, object_counts: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """CH-backed top-k: same contract as ``CSRKernels.topk_objects``
        — every object node at distance <= the k-th object distance,
        with exact distances (bit-identical on integral weights)."""
        if k <= 0:
            return _EMPTY_I8, _EMPTY_F8
        if not self._ensure_buckets(object_counts):
            # Still validate the source like the plain kernel would.
            if not 0 <= source < self._num_nodes:
                raise IndexError(
                    f"node {source} out of range for graph with "
                    f"{self._num_nodes} nodes"
                )
            return _EMPTY_I8, _EMPTY_F8
        nodes, dists = self._object_distances(source)
        if nodes.size == 0:
            return nodes, dists
        order = np.argsort(dists, kind="stable")
        cumulative = np.cumsum(np.asarray(object_counts)[nodes[order]])
        if int(cumulative[-1]) <= k:
            kth = dists[order[-1]]
        else:
            kth = dists[order[int(np.searchsorted(cumulative, k))]]
        keep = dists <= kth
        return nodes[keep], dists[keep]

    def knn_batch(
        self,
        sources: Sequence[int],
        ks: Sequence[int],
        object_counts: np.ndarray,
        *,
        group_size: int = QUERIES_PER_SWEEP,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched :meth:`topk_objects`, aligned with the inputs.

        ``group_size`` is accepted for interface parity with
        ``CSRKernels.knn_batch`` but unused — each distinct source is
        already a single sweep + join here.  Duplicate sources collapse
        to one computation (served with the largest requested ``k``)
        and may share result arrays; treat results as read-only.
        """
        del group_size
        src = np.asarray(sources, dtype=np.int64)
        kreq = np.asarray(ks, dtype=np.int64)
        if src.shape != kreq.shape or src.ndim != 1:
            raise ValueError("sources and ks must be 1-D and equal length")
        if src.size == 0:
            return []
        if src.min() < 0 or src.max() >= self._num_nodes:
            raise IndexError(
                f"source out of range for graph with {self._num_nodes} nodes"
            )
        unique, inverse = np.unique(src, return_inverse=True)
        kmax = np.zeros(unique.shape, dtype=np.int64)
        np.maximum.at(kmax, inverse, kreq)
        per_unique = [
            self.topk_objects(int(node), object_counts, int(k))
            for node, k in zip(unique.tolist(), kmax.tolist())
        ]
        return [per_unique[index] for index in inverse.tolist()]


def build_core_labels(
    ch: ContractionHierarchy, core: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hub labels for the ``core`` highest-ranked nodes, as CSR arrays
    indexed by node id (``label_indptr``, ``hubs``, ``dists``).

    Every up-edge goes strictly rank-upward, so the top-``core`` rank
    set is closed under upward closure and its labels are
    self-contained — exactly the slice worth persisting in a graph
    cache: the high-rank core is shared by every query, while low-rank
    vicinities are cheap to rebuild and workload-dependent.  Nodes
    outside the core get an empty slice.  Distances are the same merges
    :meth:`CHKernels.label` computes, so exactness is unchanged.
    """
    n = ch.num_nodes
    core = max(0, min(int(core), n))
    label_indptr = np.zeros(n + 1, dtype=np.int64)
    if core == 0:
        return label_indptr, _EMPTY_I8, _EMPTY_F8
    indptr, indices, weights = ch.up_indptr, ch.up_indices, ch.up_weights
    by_rank = np.argsort(ch.rank, kind="stable")
    nodes = by_rank[n - core:]
    labels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    one_zero = np.zeros(1, dtype=np.float64)
    for v in nodes[::-1].tolist():  # descending rank
        start, end = int(indptr[v]), int(indptr[v + 1])
        hub_parts = [np.array([v], dtype=np.int64)]
        dist_parts = [one_zero]
        for pos in range(start, end):
            u = int(indices[pos])
            hubs_u, dists_u = labels[u]
            hub_parts.append(hubs_u)
            dist_parts.append(dists_u + weights[pos])
        hubs = np.concatenate(hub_parts)
        dists = np.concatenate(dist_parts)
        order = np.lexsort((dists, hubs))
        hubs = hubs[order]
        dists = dists[order]
        keep = np.empty(len(hubs), dtype=bool)
        keep[0] = True
        np.not_equal(hubs[1:], hubs[:-1], out=keep[1:])
        labels[v] = (hubs[keep], dists[keep])
    counts = np.zeros(n, dtype=np.int64)
    for v, (hubs, _) in labels.items():
        counts[v] = len(hubs)
    np.cumsum(counts, out=label_indptr[1:])
    total = int(label_indptr[-1])
    hubs_out = np.empty(total, dtype=np.int64)
    dists_out = np.empty(total, dtype=np.float64)
    for v, (hubs, dists) in labels.items():
        start = int(label_indptr[v])
        hubs_out[start:start + len(hubs)] = hubs
        dists_out[start:start + len(hubs)] = dists
    return label_indptr, hubs_out, dists_out


class CHDistanceOracle:
    """Exact distances from one source to many targets via hub labels.

    The CH analogue of :class:`~repro.graph.kernels.IncrementalSSSP`
    (IER's verification tool): the source's upward label is computed
    once, and each ``distance_to`` joins it against the target's cached
    label — no expansion radius involved, so far-away candidates cost
    the same as near ones.
    """

    def __init__(self, kernels: CHKernels, source: int) -> None:
        n = kernels.num_nodes
        if not 0 <= source < n:
            raise IndexError(
                f"node {source} out of range for graph with {n} nodes"
            )
        self._kernels = kernels
        self._source = source
        hubs, dists = kernels.label(source)
        self._map = dict(zip(hubs.tolist(), dists.tolist()))

    def distance_to(self, target: int) -> float:
        """Exact network distance to ``target`` (``inf`` if unreachable)."""
        if target == self._source:
            return 0.0
        hubs, dists = self._kernels.label(target)
        src_map = self._map
        best = INFINITY
        for hub, d in zip(hubs.tolist(), dists.tolist()):
            ds = src_map.get(hub)
            if ds is not None and ds + d < best:
                best = ds + d
        return best


def calibrate_ch_cutoff(
    network: "RoadNetwork",
    ch: ContractionHierarchy | None = None,
    *,
    samples: int = 6,
    num_objects: int = 32,
    k: int = 4,
    seed: int = 0,
) -> float:
    """Measure the settled-node count past which the CH path wins.

    The plain kernel's cost is proportional to the number of nodes it
    settles (≈ ``k * num_nodes / num_objects`` for uniform objects); a
    CH query costs roughly a constant (one upward sweep + bucket join).
    This times both on the actual graph and returns their crossover as
    an *expected settled node count* — pass it as ``ch_cutoff`` to
    ``DijkstraKNN``/``IERKNN`` (which now run it themselves on first
    use when no explicit cutoff is given).  Deliberately rough: it
    steers routing, not correctness (both sides are exact).
    """
    ch = ch or ContractionHierarchy(network)
    n = network.num_nodes
    if n == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, size=max(samples, 1))
    counts = np.zeros(n, dtype=np.int32)
    np.add.at(counts, rng.integers(0, n, size=min(num_objects, n)), 1)
    perf = time.perf_counter

    kern = network.kernels
    kern.sssp(int(sources[0]))  # warm buffers
    t0 = perf()
    for source in sources:
        kern.sssp(int(source))
    per_settled = (perf() - t0) / len(sources) / n

    chk = ch.kernels
    chk.topk_objects(int(sources[0]), counts, k)  # warm labels/buckets
    t0 = perf()
    for source in sources:
        chk.topk_objects(int(source), counts, k)
    per_ch_query = (perf() - t0) / len(sources)

    if per_settled <= 0:
        return float(n)
    return per_ch_query / per_settled
