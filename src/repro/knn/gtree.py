"""The G-tree partition hierarchy (Zhong et al., TKDE 2015) under V-tree.

G-tree recursively partitions the road network into balanced subgraphs,
keeps the *border* nodes of every subgraph, and precomputes distances
between borders (and from every vertex to the borders of its leaf).
:class:`GTreeIndex` is that immutable network-side structure, shared
across MPR workers: a multilevel partition tree whose leaves carry
border sets, within-leaf vertex-to-border distance tables, and the
border *overlay graph* (within-leaf border cliques + original cut
edges).  :class:`~repro.knn.vtree.VTreeKNN` holds the objects and caches
on top of it.

Queries run a best-first search on the overlay graph
(:meth:`GTreeIndex.knn_search`).  Exactness is the classic overlay
argument: any shortest path decomposes into maximal within-leaf
segments whose endpoints are borders, each no shorter than the
precomputed within-leaf border distance — so overlay distances equal
full-graph distances, and object nodes attached to the overlay via their
vertex-to-border tables are settled at their true network distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Mapping, Sequence

from ..graph.partition import partition_graph
from ..graph.road_network import RoadNetwork
from ..graph.shortest_path import INFINITY, dijkstra
from .base import Neighbor, canonical_knn

#: Default maximum leaf size (the G-tree paper's tau).
DEFAULT_LEAF_SIZE = 64
#: Default partition fanout (the G-tree paper's f).
DEFAULT_FANOUT = 4
#: Relative slack for pruning-bound comparisons.  Upper bounds arriving
#: from cached lists are sums computed in a different order than the
#: overlay search's, so exact ties can differ by a few ULPs; without the
#: slack a bound one ULP below the true kth distance would prune the
#: final relaxation.
BOUND_SLACK = 1e-9


@dataclass
class TreeNode:
    """One node of the partition tree."""

    node_id: int
    parent: int | None
    level: int
    vertices: list[int] = field(default_factory=list)
    children: list[int] = field(default_factory=list)


class GTreeIndex:
    """Immutable network-side structure shared by all VTreeKNN instances."""

    def __init__(
        self,
        network: RoadNetwork,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        fanout: int = DEFAULT_FANOUT,
        seed: int = 0,
    ) -> None:
        if leaf_size < 1:
            raise ValueError("leaf_size must be positive")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.network = network
        self.leaf_size = leaf_size
        self.fanout = fanout

        self.tree: list[TreeNode] = []
        self.leaf_of: list[int] = [-1] * network.num_nodes
        self._build_tree(seed)

        # Per-leaf border machinery.
        self.leaf_borders: dict[int, list[int]] = {}
        self.border_index: dict[int, dict[int, int]] = {}  # leaf -> border -> pos
        self.vertex_border_dist: dict[int, list[float]] = {}  # vertex -> dists
        self.overlay_adj: dict[int, list[tuple[int, float]]] = {}
        self._leaf_members: dict[int, list[int]] = {}
        self._leaf_subgraph: dict[int, RoadNetwork] = {}
        self._leaf_member_pos: dict[int, dict[int, int]] = {}
        self._build_borders()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_tree(self, seed: int) -> None:
        root = TreeNode(node_id=0, parent=None, level=0,
                        vertices=list(self.network.nodes()))
        self.tree.append(root)
        stack = [0]
        while stack:
            tid = stack.pop()
            node = self.tree[tid]
            if len(node.vertices) <= self.leaf_size:
                for vertex in node.vertices:
                    self.leaf_of[vertex] = tid
                continue
            ordered = sorted(node.vertices)
            sub = self.network.induced_subgraph(ordered)
            parts = min(self.fanout, len(ordered))
            assignment = partition_graph(sub, parts, seed=seed + tid)
            groups: dict[int, list[int]] = {}
            for local_id, part in enumerate(assignment):
                groups.setdefault(part, []).append(ordered[local_id])
            if len(groups) <= 1:
                # Partitioner failed to split (e.g. a clique-ish blob);
                # force the node to become a leaf to guarantee progress.
                for vertex in node.vertices:
                    self.leaf_of[vertex] = tid
                continue
            for members in groups.values():
                child = TreeNode(
                    node_id=len(self.tree),
                    parent=tid,
                    level=node.level + 1,
                    vertices=members,
                )
                self.tree.append(child)
                node.children.append(child.node_id)
                stack.append(child.node_id)
            node.vertices = []  # interior nodes don't need the list

    def _build_borders(self) -> None:
        network = self.network
        for vertex in network.nodes():
            self._leaf_members.setdefault(self.leaf_of[vertex], []).append(vertex)
        for leaf_id, members in self._leaf_members.items():
            self._leaf_member_pos[leaf_id] = {v: i for i, v in enumerate(members)}

        # One pass over the edges classifies them as within-leaf (they
        # form the leaf subgraphs) or cut edges (their endpoints become
        # borders).
        cut_edges: list[tuple[int, int, float]] = []
        borders_per_leaf: dict[int, set[int]] = {}
        leaf_edges: dict[int, list[tuple[int, int, float]]] = {}
        for edge in network.edges():
            lu, lv = self.leaf_of[edge.u], self.leaf_of[edge.v]
            if lu != lv:
                cut_edges.append((edge.u, edge.v, edge.weight))
                borders_per_leaf.setdefault(lu, set()).add(edge.u)
                borders_per_leaf.setdefault(lv, set()).add(edge.v)
            else:
                pos = self._leaf_member_pos[lu]
                leaf_edges.setdefault(lu, []).append(
                    (pos[edge.u], pos[edge.v], edge.weight)
                )

        for leaf_id, members in self._leaf_members.items():
            borders = sorted(borders_per_leaf.get(leaf_id, set()))
            self.leaf_borders[leaf_id] = borders
            self.border_index[leaf_id] = {b: i for i, b in enumerate(borders)}
            self._leaf_subgraph[leaf_id] = RoadNetwork(
                len(members), leaf_edges.get(leaf_id, []), name=f"leaf-{leaf_id}"
            )

        # Within-leaf distances: one Dijkstra per border on the leaf
        # subgraph fills the vertex-to-border tables column by column.
        for leaf_id, members in self._leaf_members.items():
            borders = self.leaf_borders[leaf_id]
            member_pos = self._leaf_member_pos[leaf_id]
            sub = self._leaf_subgraph[leaf_id]
            for vertex in members:
                self.vertex_border_dist[vertex] = [INFINITY] * len(borders)
            for column, border in enumerate(borders):
                dist = dijkstra(sub, member_pos[border])
                for local_id, d in dist.items():
                    self.vertex_border_dist[members[local_id]][column] = d

        # Overlay adjacency: border cliques within leaves + cut edges.
        for leaf_id, borders in self.leaf_borders.items():
            for i, b in enumerate(borders):
                adjacency = self.overlay_adj.setdefault(b, [])
                row = self.vertex_border_dist[b]
                for j, other in enumerate(borders):
                    if j != i and row[j] < INFINITY:
                        adjacency.append((other, row[j]))
        for u, v, w in cut_edges:
            self.overlay_adj.setdefault(u, []).append((v, w))
            self.overlay_adj.setdefault(v, []).append((u, w))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def leaf_members(self, leaf_id: int) -> list[int]:
        return self._leaf_members[leaf_id]

    def leaves(self) -> list[int]:
        return sorted(self._leaf_members)

    def height(self) -> int:
        return max(node.level for node in self.tree) + 1

    def point_to_point(self, source: int, target: int) -> float:
        """Exact network distance via the border overlay.

        G-tree's other headline use besides kNN: shortest-path distance
        queries answered on the precomputed structure instead of the
        raw graph.  Returns ``inf`` when ``target`` is unreachable.
        """
        if source == target:
            return 0.0
        source_leaf = self.leaf_of[source]
        target_leaf = self.leaf_of[target]

        source_pos = self._leaf_member_pos[source_leaf]
        in_source = dijkstra(self._leaf_subgraph[source_leaf], source_pos[source])

        best = INFINITY
        if source_leaf == target_leaf:
            d = in_source.get(source_pos[target], INFINITY)
            if d < best:
                best = d  # may still be beaten by an exit-and-return path

        # Overlay Dijkstra from the source's borders; relax into the
        # target through its leaf's vertex-to-border table.
        target_columns = self.vertex_border_dist[target]
        target_border_pos = self.border_index[target_leaf]
        heap: list[tuple[float, int]] = []
        for border in self.leaf_borders[source_leaf]:
            d = in_source.get(source_pos[border], INFINITY)
            if d < INFINITY:
                heappush(heap, (d, border))
        settled: dict[int, float] = {}
        while heap:
            d, border = heappop(heap)
            if border in settled:
                continue
            if d >= best:
                break
            settled[border] = d
            if self.leaf_of[border] == target_leaf:
                leg = target_columns[target_border_pos[border]]
                if leg < INFINITY and d + leg < best:
                    best = d + leg
            for neighbor, weight in self.overlay_adj.get(border, ()):
                if neighbor not in settled:
                    heappush(heap, (d + weight, neighbor))
        return best

    def border_sweep(
        self,
        location: int,
        radius: float,
        settle_limit: int | None = None,
    ) -> dict[int, float]:
        """Exact distances from ``location`` to borders within ``radius``.

        Runs the overlay Dijkstra without offering objects; used by
        V-tree's insert propagation.  ``settle_limit`` optionally caps
        the number of settled borders (a best-effort sweep).
        """
        home_leaf = self.leaf_of[location]
        members = self._leaf_members[home_leaf]
        member_pos = self._leaf_member_pos[home_leaf]
        in_leaf = dijkstra(self._leaf_subgraph[home_leaf], member_pos[location],
                           max_distance=radius)
        heap: list[tuple[float, int]] = []
        for border in self.leaf_borders[home_leaf]:
            d = in_leaf.get(member_pos[border], INFINITY)
            if d <= radius:
                heappush(heap, (d, border))
        settled: dict[int, float] = {}
        while heap:
            d, border = heappop(heap)
            if border in settled or d > radius:
                continue
            settled[border] = d
            if settle_limit is not None and len(settled) >= settle_limit:
                break
            for neighbor, weight in self.overlay_adj.get(border, ()):
                if neighbor not in settled:
                    nd = d + weight
                    if nd <= radius:
                        heappush(heap, (nd, neighbor))
        return settled

    # ------------------------------------------------------------------
    # The overlay kNN search (V-tree's queries and cache builds)
    # ------------------------------------------------------------------
    def knn_search(
        self,
        location: int,
        k: int,
        leaf_occupancy: Mapping[int, Mapping[int, Sequence[int]]],
        distance_bound: float = INFINITY,
    ) -> list[Neighbor]:
        """Exact kNN from ``location`` over objects in ``leaf_occupancy``.

        ``leaf_occupancy[leaf_id][node]`` is the collection of object ids
        at ``node`` (only leaves that contain objects need be present).
        ``distance_bound`` optionally prunes the search (used by V-tree
        with its cached upper bound).
        """
        if k <= 0:
            return []
        home_leaf = self.leaf_of[location]
        candidates: dict[int, float] = {}  # object -> best distance

        def offer(node: int, distance: float, leaf_id: int) -> None:
            for object_id in leaf_occupancy[leaf_id].get(node, ()):
                prior = candidates.get(object_id)
                if prior is None or distance < prior:
                    candidates[object_id] = distance

        # Phase 1: in-leaf Dijkstra from the query vertex gives exact
        # within-leaf distances to the home leaf's borders and upper
        # bounds for same-leaf objects (refined by the overlay phase for
        # paths that exit and re-enter).
        members = self._leaf_members[home_leaf]
        member_pos = self._leaf_member_pos[home_leaf]
        sub = self._leaf_subgraph[home_leaf]
        in_leaf = dijkstra(sub, member_pos[location])
        if home_leaf in leaf_occupancy:
            for local_id, d in in_leaf.items():
                offer(members[local_id], d, home_leaf)

        # Phase 2: best-first search over the border overlay.
        heap: list[tuple[float, int]] = []
        for border in self.leaf_borders[home_leaf]:
            d = in_leaf.get(member_pos[border], INFINITY)
            if d < INFINITY:
                heappush(heap, (d, border))
        settled: dict[int, float] = {}

        def kth_bound() -> float:
            if len(candidates) < k:
                return distance_bound
            return min(
                distance_bound,
                sorted(candidates.values())[k - 1],
            )

        bound = kth_bound()
        while heap:
            d, border = heappop(heap)
            if border in settled:
                continue
            if d > bound + BOUND_SLACK * (1.0 + bound):
                break
            settled[border] = d
            leaf_id = self.leaf_of[border]
            # Offer objects of this border's leaf through the border.
            occupancy = leaf_occupancy.get(leaf_id)
            if occupancy:
                column = self.border_index[leaf_id][border]
                for node in occupancy:
                    leg = self.vertex_border_dist[node][column]
                    if leg < INFINITY:
                        offer(node, d + leg, leaf_id)
                bound = kth_bound()
            for neighbor, weight in self.overlay_adj.get(border, ()):
                if neighbor not in settled:
                    heappush(heap, (d + weight, neighbor))
        return canonical_knn(candidates, k)

