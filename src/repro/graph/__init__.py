"""Road-network substrate: graph store, generators, I/O, search, partitioning.

The package top level re-exports the *public* surface only.  Kernel
internals — the vectorized CSR kernels, the heapq reference searches
they are validated against, and their activation threshold — live in
:mod:`repro.graph.kernels` and :mod:`repro.graph.shortest_path`; import
them from those modules directly.
"""

from .road_network import Edge, MirrorMaterializationError, RoadNetwork
from .cache import (
    CacheError,
    CHCacheMeta,
    GraphCacheMeta,
    attach_cached_ch,
    attach_cached_graph,
    cache_has_ch,
    cache_info,
    load_cached_ch,
    open_cache,
    save_cache,
    save_ch_cache,
)
from .ch import (
    CHKernels,
    ContractionHierarchy,
    build_core_labels,
    calibrate_ch_cutoff,
)
from .generators import (
    DEFAULT_SCALE,
    TABLE1_NETWORKS,
    NetworkSpec,
    generate_pois,
    grid_network,
    random_geometric_network,
    ring_radial_network,
    scaled_replica,
)
from .io import FormatError, load_dimacs, load_edge_list, save_dimacs
from .shared import (
    SharedGraph,
    SharedGraphMeta,
    attach_shared_graph,
    publish_shared_graph,
)
from .metrics import (
    NetworkMetrics,
    compute_metrics,
    cut_fraction,
    degree_histogram,
    estimate_diameter,
)
from .partition import border_nodes, cut_edges, part_sizes, partition_graph
from .routing import Route, detour_factor, route_length, routes_to_neighbors, shortest_route
from .spatial import NodeLocator
from .shortest_path import (
    INFINITY,
    astar_distance,
    dijkstra,
    dijkstra_expansion,
    dijkstra_with_paths,
    pairwise_distances,
    reconstruct_path,
    shortest_path_distance,
)

__all__ = [
    "Edge",
    "MirrorMaterializationError",
    "RoadNetwork",
    "CacheError",
    "CHCacheMeta",
    "GraphCacheMeta",
    "attach_cached_ch",
    "attach_cached_graph",
    "cache_has_ch",
    "cache_info",
    "load_cached_ch",
    "open_cache",
    "save_cache",
    "save_ch_cache",
    "CHKernels",
    "ContractionHierarchy",
    "build_core_labels",
    "calibrate_ch_cutoff",
    "DEFAULT_SCALE",
    "TABLE1_NETWORKS",
    "NetworkSpec",
    "generate_pois",
    "grid_network",
    "random_geometric_network",
    "ring_radial_network",
    "scaled_replica",
    "FormatError",
    "load_dimacs",
    "load_edge_list",
    "save_dimacs",
    "SharedGraph",
    "SharedGraphMeta",
    "attach_shared_graph",
    "publish_shared_graph",
    "NetworkMetrics",
    "compute_metrics",
    "cut_fraction",
    "degree_histogram",
    "estimate_diameter",
    "Route",
    "detour_factor",
    "route_length",
    "routes_to_neighbors",
    "shortest_route",
    "NodeLocator",
    "border_nodes",
    "cut_edges",
    "part_sizes",
    "partition_graph",
    "INFINITY",
    "astar_distance",
    "dijkstra",
    "dijkstra_expansion",
    "dijkstra_with_paths",
    "pairwise_distances",
    "reconstruct_path",
    "shortest_path_distance",
]
