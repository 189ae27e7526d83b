"""Single-threaded kNN solutions and their profiling."""

from .base import (
    KNNSolution,
    Neighbor,
    canonical_knn,
    merge_partial_results,
)
from .calibration import (
    AlgorithmProfile,
    measure_profile,
    paper_profile,
    profile_from_telemetry,
)
from .dijkstra_knn import DijkstraKNN
from .gtree import GTreeIndex
from .toain import (
    ContractionHierarchy,
    ToainIndex,
    ToainKNN,
    choose_core_fraction,
)
from .vtree import VTreeKNN

#: Registry of solution constructors by display name (used by benches
#: and the scheme factory to iterate "Dijkstra, V-tree, TOAIN" the way
#: the paper's figures do).
SOLUTIONS = {
    "Dijkstra": DijkstraKNN,
    "V-tree": VTreeKNN,
    "TOAIN": ToainKNN,
}

__all__ = [
    "KNNSolution",
    "Neighbor",
    "canonical_knn",
    "merge_partial_results",
    "AlgorithmProfile",
    "measure_profile",
    "paper_profile",
    "profile_from_telemetry",
    "DijkstraKNN",
    "GTreeIndex",
    "ContractionHierarchy",
    "ToainIndex",
    "ToainKNN",
    "choose_core_fraction",
    "VTreeKNN",
    "SOLUTIONS",
]
