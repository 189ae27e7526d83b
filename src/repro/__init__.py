"""repro — reproduction of MPR (ICDE 2019): multi-processing kNN search
on road networks via partitioning and replication.

Public API tour
---------------
* :mod:`repro.graph` — road networks, generators, shortest paths.
* :mod:`repro.objects` — moving objects and the query/update task stream.
* :mod:`repro.knn` — single-threaded kNN solutions (Dijkstra, V-tree,
  TOAIN) behind the paper's ``Q/I/D`` interface.
* :mod:`repro.mpr` — the MPR core-matrix machinery, analytical models
  (Eq. 2/5/7), scheme factory (F-Rep, F-Part, 1MPR, MPR) and a real
  threaded executor.
* :mod:`repro.sim` — the discrete-event multicore simulator and the
  paper's measurement methodology (200 s response-time runs, max
  throughput search).
* :mod:`repro.workload` — Poisson workload generation, RU/TH update
  modes, the paper's named scenarios.
"""

__version__ = "1.0.0"

from .graph import RoadNetwork, grid_network, scaled_replica
from .knn import (
    AlgorithmProfile,
    DijkstraKNN,
    KNNSolution,
    Neighbor,
    ToainKNN,
    VTreeKNN,
    measure_profile,
    paper_profile,
)
from .objects import DeleteTask, InsertTask, ObjectSet, QueryTask

__all__ = [
    "__version__",
    "RoadNetwork",
    "grid_network",
    "scaled_replica",
    "AlgorithmProfile",
    "DijkstraKNN",
    "KNNSolution",
    "Neighbor",
    "ToainKNN",
    "VTreeKNN",
    "measure_profile",
    "paper_profile",
    "ObjectSet",
    "QueryTask",
    "InsertTask",
    "DeleteTask",
]
