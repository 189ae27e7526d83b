"""Shortest-path engines over :class:`~repro.graph.road_network.RoadNetwork`.

Every kNN solution in the paper is built on graph search:

* plain **Dijkstra** expansion (the index-free kNN baseline, and the tool
  used to build G-tree leaf distance matrices),
* a **bounded** variant and target-truncated searches (used by the
  partition-tree indexes to compute border-to-border distances),
* **bidirectional Dijkstra** and **A*** (used by IER and by tests as an
  independent oracle).

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
from typing import Callable, Iterable, Iterator, Sequence

from .road_network import RoadNetwork

INFINITY = math.inf

#: Below this node count the pure-Python ``heapq`` loop wins (kernel
#: call overhead dominates on e.g. G-tree leaf subgraphs); at or above
#: it the vectorized kernels take over.  Measured, not chosen:
#: ``benchmarks/bench_knn_kernels.py``'s SSSP-by-size table times a
#: full search both ways on grids of 256 to 16,384 nodes.  Over repeated
#: runs on a 2-core x86 host, heapq won at every size up to 2,304 nodes
#: and the kernel at every size from 2,916; at 2,601 the two tie within
#: noise, so the constant sits there (results in
#: ``benchmarks/results/knn_kernels.txt``).
KERNEL_MIN_NODES = 2600


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


def dijkstra_with_paths(
    network: RoadNetwork, source: int, max_distance: float = INFINITY
) -> tuple[dict[int, float], dict[int, int]]:
    """Like :func:`dijkstra` but also returns a predecessor map."""
    network._check_endpoint(source)
    offsets, adj_targets, adj_weights = network.csr
    dist: dict[int, float] = {}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(0.0, source, source)]
    while heap:
        d, node, via = heappop(heap)
        if node in dist:
            continue
        if d > max_distance:
            break
        dist[node] = d
        parent[node] = via
        for idx in range(offsets[node], offsets[node + 1]):
            nxt = adj_targets[idx]
            if nxt not in dist:
                heappush(heap, (d + adj_weights[idx], nxt, node))
    return dist, parent


def reconstruct_path(parent: dict[int, int], source: int, target: int) -> list[int]:
    """Rebuild the node sequence from ``source`` to ``target``.

    Raises ``KeyError`` if ``target`` was not reached.
    """
    if target not in parent:
        raise KeyError(f"target {target} unreachable from {source}")
    path = [target]
    node = target
    while node != source:
        node = parent[node]
        path.append(node)
    path.reverse()
    return path


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


def astar_distance(
    network: RoadNetwork,
    source: int,
    target: int,
    heuristic: Callable[[int], float] | None = None,
) -> float:
    """A* point-to-point distance.

    ``heuristic(node)`` must be an admissible lower bound on the distance
    from ``node`` to ``target``.  When omitted, the Euclidean distance
    between node coordinates is used (admissible whenever edge weights
    dominate Euclidean lengths, as produced by our generators).
    """
    network._check_endpoint(source)
    network._check_endpoint(target)
    if source == target:
        return 0.0
    if heuristic is None:
        tx, ty = network.coordinate(target)

        def heuristic(node: int, _tx: float = tx, _ty: float = ty) -> float:
            x, y = network.coordinate(node)
            return math.hypot(x - _tx, y - _ty)

    offsets, adj_targets, adj_weights = network.csr
    g_score: dict[int, float] = {source: 0.0}
    closed: set[int] = set()
    heap: list[tuple[float, float, int]] = [(heuristic(source), 0.0, source)]
    while heap:
        _, g, node = heappop(heap)
        if node == target:
            return g
        if node in closed:
            continue
        closed.add(node)
        for idx in range(offsets[node], offsets[node + 1]):
            nxt = adj_targets[idx]
            if nxt in closed:
                continue
            ng = g + adj_weights[idx]
            if ng < g_score.get(nxt, INFINITY):
                g_score[nxt] = ng
                heappush(heap, (ng + heuristic(nxt), ng, nxt))
    return INFINITY


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


def pairwise_distances(
    network: RoadNetwork, sources: Sequence[int], targets: Sequence[int]
) -> list[list[float]]:
    """Dense ``len(sources) x len(targets)`` network-distance matrix.

    Runs one truncated Dijkstra per source, each stopping after all
    targets are settled.  This is the workhorse for building border
    distance matrices in G-tree / V-tree.
    """
    target_list = list(targets)
    matrix: list[list[float]] = []
    for source in sources:
        dist = dijkstra(network, source, targets=target_list)
        matrix.append([dist.get(t, INFINITY) for t in target_list])
    return matrix


def eccentricity(network: RoadNetwork, node: int) -> float:
    """Greatest finite distance from ``node`` (diagnostic helper)."""
    dist = dijkstra(network, node)
    return max(dist.values(), default=0.0)
