"""Shortest-path engines over :class:`~repro.graph.road_network.RoadNetwork`.

Every kNN solution in the paper is built on graph search:

* plain **Dijkstra** expansion (the index-free kNN baseline, and the tool
  used to build G-tree leaf distance matrices),
* a **bounded** variant and target-truncated searches (used by the
  partition-tree indexes to compute border-to-border distances),
* **bidirectional Dijkstra** (a point-to-point oracle for the tests).

The classic engines work directly on the CSR lists so that the inner
loop is a tight ``heappush``/``heappop`` cycle with no generator
overhead.  On graphs of at least :data:`KERNEL_MIN_NODES` nodes,
:func:`dijkstra` delegates to the vectorized bucket kernels in
:mod:`repro.graph.kernels`, which return bit-identical distances at a
fraction of the cost; the ``heapq`` body is kept as the reference
implementation (:func:`dijkstra_heapq`) that the property suite pins
the kernels against.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Iterable, Iterator

from .road_network import RoadNetwork

INFINITY = math.inf

#: Below this node count the pure-Python ``heapq`` loop wins (kernel
#: call overhead dominates on e.g. G-tree leaf subgraphs); at or above
#: it the vectorized kernels take over.  Measured, not chosen:
#: ``benchmarks/bench_knn_kernels.py``'s SSSP-by-size table times a
#: full search both ways on grids of 256 to 16,384 nodes, with their
#: own weights and with log-uniform [1, 100] ones.  Over three runs on a
#: 2-core x86 host, heapq won at every size up to 1,024 nodes on both
#: bands, and at 1,600 on the wide one; the kernel won from 1,600 on the
#: narrow band and from 2,025 on the wide one, so the constant sits
#: just below 2,025 (results in ``benchmarks/results/knn_kernels.txt``).
KERNEL_MIN_NODES = 2000


def dijkstra(
    network: RoadNetwork,
    source: int,
    max_distance: float = INFINITY,
    targets: Iterable[int] | None = None,
) -> dict[int, float]:
    """Single-source shortest-path distances.

    Parameters
    ----------
    network:
        The road network.
    source:
        Start node.
    max_distance:
        Stop expanding once the closest unsettled node is farther than
        this bound; nodes beyond the bound are absent from the result.
    targets:
        Optional set of target nodes; the search stops early once all of
        them are settled.

    Returns
    -------
    dict mapping each settled node to its network distance from ``source``.
    """
    if targets is None and network.num_nodes >= KERNEL_MIN_NODES:
        nodes, dists = network.kernels.sssp(source, max_distance=max_distance)
        return dict(zip(nodes.tolist(), dists.tolist()))
    return dijkstra_heapq(network, source, max_distance, targets)


def dijkstra_heapq(
    network: RoadNetwork,
    source: int,
    max_distance: float = INFINITY,
    targets: Iterable[int] | None = None,
) -> dict[int, float]:
    """The classic ``heapq`` engine behind :func:`dijkstra`.

    Exposed as the reference implementation the kernel property tests
    compare against, and used directly for small graphs and
    target-truncated searches.
    """
    network._check_endpoint(source)
    offsets, adj_targets, adj_weights = network.csr
    pending = set(targets) if targets is not None else None
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heappop(heap)
        if node in dist:
            continue
        if d > max_distance:
            break
        dist[node] = d
        if pending is not None:
            pending.discard(node)
            if not pending:
                break
        for idx in range(offsets[node], offsets[node + 1]):
            nxt = adj_targets[idx]
            if nxt not in dist:
                heappush(heap, (d + adj_weights[idx], nxt))
    return dist


def shortest_path_distance(network: RoadNetwork, source: int, target: int) -> float:
    """Point-to-point distance via bidirectional Dijkstra.

    Returns ``math.inf`` when ``target`` is unreachable.
    """
    network._check_endpoint(source)
    network._check_endpoint(target)
    if source == target:
        return 0.0
    offsets, adj_targets, adj_weights = network.csr

    dist_f: dict[int, float] = {source: 0.0}
    dist_b: dict[int, float] = {target: 0.0}
    settled_f: set[int] = set()
    settled_b: set[int] = set()
    heap_f: list[tuple[float, int]] = [(0.0, source)]
    heap_b: list[tuple[float, int]] = [(0.0, target)]
    best = INFINITY

    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        # Expand the side with the smaller frontier radius.
        if heap_f[0][0] <= heap_b[0][0]:
            heap, dist, settled, other_dist = heap_f, dist_f, settled_f, dist_b
        else:
            heap, dist, settled, other_dist = heap_b, dist_b, settled_b, dist_f
        d, node = heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for idx in range(offsets[node], offsets[node + 1]):
            nxt = adj_targets[idx]
            nd = d + adj_weights[idx]
            if nd < dist.get(nxt, INFINITY):
                dist[nxt] = nd
                heappush(heap, (nd, nxt))
                if nxt in other_dist:
                    best = min(best, nd + other_dist[nxt])
    return best


def dijkstra_expansion(
    network: RoadNetwork, source: int
) -> Iterator[tuple[int, float]]:
    """Lazily yield ``(node, distance)`` in non-decreasing distance order.

    This is the primitive behind the Dijkstra kNN solution: the consumer
    pulls settled nodes one at a time and stops as soon as it has found
    ``k`` objects, so the graph is explored "just enough" (Section II).
    """
    network._check_endpoint(source)
    offsets, adj_targets, adj_weights = network.csr
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        yield node, d
        for idx in range(offsets[node], offsets[node + 1]):
            nxt = adj_targets[idx]
            if nxt not in settled:
                heappush(heap, (d + adj_weights[idx], nxt))
