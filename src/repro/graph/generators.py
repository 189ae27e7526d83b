"""Synthetic road-network generators.

The paper evaluates on five real networks (Table I): Beijing (BJ), US
North West (NW), New York City (NY), USA East (USA(E)) and USA West
(USA(W)).  Those datasets (and the UCAR taxi trajectories) are not
redistributable, so this module builds *scaled synthetic replicas*: near
planar graphs with the same edge/node ratio as each real network, grown
on a jittered grid with diagonal shortcuts and random deletions.  The
replicas preserve what the MPR evaluation actually depends on — graph
search cost growing with network size, and relative sizes between the
five networks — as documented in DESIGN.md substitution #2.

All generators are deterministic given a ``seed``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .road_network import RoadNetwork


@dataclass(frozen=True)
class NetworkSpec:
    """Shape parameters of one of the paper's Table I networks."""

    symbol: str
    description: str
    paper_nodes: int
    paper_edges: int
    # Additional data the paper attaches to the network, if any.
    extra: str = ""

    @property
    def edge_node_ratio(self) -> float:
        return self.paper_edges / self.paper_nodes


#: The five road networks of Table I.
TABLE1_NETWORKS: dict[str, NetworkSpec] = {
    "BJ": NetworkSpec("BJ", "Beijing", 1_285_215, 2_690_296, "3,000 taxi trajectories"),
    "NW": NetworkSpec("NW", "US North West", 1_207_945, 2_840_208, "13,132 POIs"),
    "NY": NetworkSpec("NY", "New York City", 264_346, 733_846),
    "USA(E)": NetworkSpec("USA(E)", "USA East", 3_598_623, 8_778_114),
    "USA(W)": NetworkSpec("USA(W)", "USA West", 6_262_104, 15_248_146),
}

#: Default scale for replicas: 1/200 of the real network keeps pure-Python
#: index construction (G-tree, CH) in the seconds range.
DEFAULT_SCALE = 1.0 / 200.0


def grid_network(
    rows: int,
    cols: int,
    seed: int = 0,
    diagonal_fraction: float = 0.0,
    deletion_fraction: float = 0.0,
    min_weight: float = 50.0,
    max_weight: float = 500.0,
    name: str = "grid",
) -> RoadNetwork:
    """A jittered grid road network.

    The grid is the classic stand-in for an urban road network: nodes sit
    on an (jittered) integer lattice, horizontal/vertical edges model
    street segments, and the weight of an edge is its Euclidean length
    scaled into ``[min_weight, max_weight]`` metres.

    Parameters
    ----------
    rows, cols:
        Lattice dimensions; the network has ``rows * cols`` nodes.
    diagonal_fraction:
        Fraction of lattice cells that additionally get one diagonal edge
        (raises the edge/node ratio towards highway-dense networks).
    deletion_fraction:
        Fraction of grid edges randomly removed (connectivity is then
        restored by keeping the largest component).
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if not 0.0 <= diagonal_fraction <= 1.0:
        raise ValueError("diagonal_fraction must be in [0, 1]")
    if not 0.0 <= deletion_fraction < 1.0:
        raise ValueError("deletion_fraction must be in [0, 1)")

    rng = random.Random(seed)
    spacing = (min_weight + max_weight) / 2.0

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    coordinates = []
    for r in range(rows):
        for c in range(cols):
            jitter_x = rng.uniform(-0.2, 0.2) * spacing
            jitter_y = rng.uniform(-0.2, 0.2) * spacing
            coordinates.append((c * spacing + jitter_x, r * spacing + jitter_y))

    def euclid(a: int, b: int) -> float:
        ax, ay = coordinates[a]
        bx, by = coordinates[b]
        return math.hypot(ax - bx, ay - by)

    edges: list[tuple[int, int, float]] = []

    def add_edge(a: int, b: int) -> None:
        # Weight = Euclidean length times a small detour factor, so that
        # Euclidean distance stays an admissible A* lower bound.
        detour = rng.uniform(1.0, 1.3)
        weight = max(euclid(a, b) * detour, 1.0)
        edges.append((a, b, weight))

    for r in range(rows):
        for c in range(cols):
            here = node_id(r, c)
            if c + 1 < cols and rng.random() >= deletion_fraction:
                add_edge(here, node_id(r, c + 1))
            if r + 1 < rows and rng.random() >= deletion_fraction:
                add_edge(here, node_id(r + 1, c))
            if (
                r + 1 < rows
                and c + 1 < cols
                and rng.random() < diagonal_fraction
            ):
                if rng.random() < 0.5:
                    add_edge(here, node_id(r + 1, c + 1))
                else:
                    add_edge(node_id(r, c + 1), node_id(r + 1, c))

    network = RoadNetwork(rows * cols, edges, coordinates=coordinates, name=name)
    if deletion_fraction > 0.0:
        network = network.largest_component_subgraph()
    return network


def ring_radial_network(
    rings: int,
    spokes: int,
    seed: int = 0,
    ring_spacing: float = 400.0,
    name: str = "ring-radial",
) -> RoadNetwork:
    """A ring-and-radial network (Beijing-style concentric ring roads).

    One central node, ``rings`` concentric rings each with ``spokes``
    nodes; consecutive ring nodes are connected, and every node is
    connected radially to the matching node on the next inner ring.
    """
    if rings < 1 or spokes < 3:
        raise ValueError("need at least 1 ring and 3 spokes")
    rng = random.Random(seed)

    coordinates: list[tuple[float, float]] = [(0.0, 0.0)]
    edges: list[tuple[int, int, float]] = []

    def node_id(ring: int, spoke: int) -> int:
        # ring is 1-based; node 0 is the centre.
        return 1 + (ring - 1) * spokes + (spoke % spokes)

    for ring in range(1, rings + 1):
        radius = ring * ring_spacing
        for spoke in range(spokes):
            angle = 2.0 * math.pi * spoke / spokes + rng.uniform(-0.05, 0.05)
            coordinates.append((radius * math.cos(angle), radius * math.sin(angle)))

    def euclid(a: int, b: int) -> float:
        ax, ay = coordinates[a]
        bx, by = coordinates[b]
        return math.hypot(ax - bx, ay - by)

    def add_edge(a: int, b: int) -> None:
        edges.append((a, b, max(euclid(a, b) * rng.uniform(1.0, 1.2), 1.0)))

    for ring in range(1, rings + 1):
        for spoke in range(spokes):
            add_edge(node_id(ring, spoke), node_id(ring, spoke + 1))
            if ring == 1:
                add_edge(0, node_id(1, spoke))
            else:
                add_edge(node_id(ring - 1, spoke), node_id(ring, spoke))

    total = 1 + rings * spokes
    return RoadNetwork(total, edges, coordinates=coordinates, name=name)


def random_geometric_network(
    num_nodes: int,
    radius: float = 0.035,
    seed: int = 0,
    name: str = "geometric",
) -> RoadNetwork:
    """Random geometric graph on the unit square (rural-road stand-in).

    Nodes are uniform points; nodes within ``radius`` are connected by an
    edge weighted by Euclidean length (scaled to metres).  The largest
    connected component is returned.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    rng = random.Random(seed)
    scale = 100_000.0  # unit square -> 100 km x 100 km
    points = [(rng.random(), rng.random()) for _ in range(num_nodes)]

    # Cell-grid neighbour search keeps this O(n) for fixed radius.
    cell = radius
    grid: dict[tuple[int, int], list[int]] = {}
    for idx, (x, y) in enumerate(points):
        grid.setdefault((int(x / cell), int(y / cell)), []).append(idx)

    edges: list[tuple[int, int, float]] = []
    for idx, (x, y) in enumerate(points):
        cx, cy = int(x / cell), int(y / cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in grid.get((cx + dx, cy + dy), ()):
                    if other <= idx:
                        continue
                    ox, oy = points[other]
                    dist = math.hypot(x - ox, y - oy)
                    if dist <= radius and dist > 0:
                        edges.append((idx, other, dist * scale))

    coords = [(x * scale, y * scale) for x, y in points]
    network = RoadNetwork(num_nodes, edges, coordinates=coords, name=name)
    return network.largest_component_subgraph()


def scaled_replica(
    symbol: str, scale: float = DEFAULT_SCALE, seed: int = 7
) -> RoadNetwork:
    """Synthetic replica of a Table I network at ``scale`` of its size.

    The replica is a jittered grid sized to ``paper_nodes * scale`` nodes
    whose diagonal fraction is tuned so the edge/node ratio approximates
    the real network's.  BJ additionally uses the ring-radial topology
    blended into the grid (Beijing's ring roads), purely for flavour.
    """
    try:
        spec = TABLE1_NETWORKS[symbol]
    except KeyError:
        known = ", ".join(sorted(TABLE1_NETWORKS))
        raise KeyError(f"unknown network symbol {symbol!r}; known: {known}") from None
    if scale <= 0:
        raise ValueError("scale must be positive")

    target_nodes = max(int(spec.paper_nodes * scale), 16)
    side = max(int(math.sqrt(target_nodes)), 4)
    rows, cols = side, max(target_nodes // side, 4)

    # A full grid has ~2 edges per node; each diagonal adds 1 per cell.
    # Solve for the diagonal fraction that hits the paper's ratio.
    ratio = spec.edge_node_ratio
    diagonal_fraction = min(max(ratio - 2.0, 0.0), 1.0)
    deletion_fraction = max(2.0 - ratio, 0.0) * 0.5

    return grid_network(
        rows,
        cols,
        seed=seed + _stable_symbol_seed(symbol),
        diagonal_fraction=diagonal_fraction,
        deletion_fraction=min(deletion_fraction, 0.25),
        name=symbol,
    )


def generate_pois(
    network: RoadNetwork,
    num_pois: int,
    num_clusters: int = 25,
    seed: int = 11,
) -> list[int]:
    """Sample POI nodes clustered in space (the NW dataset's 13,132 POIs).

    POIs model restaurants/hospitals/schools, which cluster around town
    centres; we pick ``num_clusters`` random centres and grow each cluster
    by sampling nodes with probability decaying in hop distance.
    """
    if num_pois < 0:
        raise ValueError("num_pois must be non-negative")
    if network.num_nodes == 0:
        return []
    rng = random.Random(seed)
    num_pois = min(num_pois, network.num_nodes)
    centers = rng.sample(range(network.num_nodes), min(num_clusters, network.num_nodes))

    pois: set[int] = set()
    # BFS ring growth around each centre until quota filled.
    per_cluster = max(num_pois // max(len(centers), 1), 1)
    for center in centers:
        frontier = [center]
        seen = {center}
        collected = 0
        while frontier and collected < per_cluster:
            node = frontier.pop(0)
            if rng.random() < 0.8 and node not in pois:
                pois.add(node)
                collected += 1
            for neighbor, _ in network.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if len(pois) >= num_pois:
            break

    # Top up with uniform nodes if the clusters were too small.
    remaining = [n for n in network.nodes() if n not in pois]
    rng.shuffle(remaining)
    for node in remaining:
        if len(pois) >= num_pois:
            break
        pois.add(node)
    return sorted(pois)[:num_pois]


def _stable_symbol_seed(symbol: str) -> int:
    """Deterministic per-symbol seed offset (``hash()`` is salted)."""
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(symbol))
