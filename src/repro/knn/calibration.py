"""Algorithm profiling: the paper's ``(tq, Vq, tu, Vu)`` characteristics.

Section IV-B: "The set of values (tq, Vq, tu, Vu) characterize solution
A.  We assume that these values can be obtained via a simple empirical
study for a given application (e.g., by executing isolated queries and
updates on a single core with a given set of objects M and collecting
execution times statistics)."

:func:`measure_profile` performs exactly that empirical study on any
:class:`~repro.knn.base.KNNSolution`.  The resulting
:class:`AlgorithmProfile` feeds both the analytical optimizer
(:mod:`repro.mpr.analysis`) and the discrete-event simulator's service
time model (:mod:`repro.sim`).

Because our substrate is pure Python rather than the authors' C++
testbed, :func:`paper_profile` additionally provides *paper-parity*
profiles — service-time characteristics consistent with the numbers the
paper reports (e.g. TOAIN ``tq ≈ 170 μs`` on BJ with m = 10K) and with
the cost narratives of Section II.  Paper-parity profiles are what the
table/figure benches feed to the simulator so that arrival rates like
λq = 15,000/s are meaningful.  They are estimates, clearly labelled as
such in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass

from .base import KNNSolution


def _finite_non_negative(*values: float) -> bool:
    """True when every value is finite and >= 0 (NaN is neither)."""
    return all(math.isfinite(value) and value >= 0 for value in values)


@dataclass(frozen=True)
class AlgorithmProfile:
    """Execution-time characteristics of a single-threaded kNN solution.

    All times are in seconds; ``vq``/``vu`` are variances.
    """

    name: str
    tq: float
    vq: float
    tu: float
    vu: float

    def __post_init__(self) -> None:
        if not _finite_non_negative(self.tq, self.vq, self.tu, self.vu):
            raise ValueError(
                "profile times and variances must be finite and non-negative"
            )

    @property
    def gamma_q(self) -> float:
        """Squared coefficient of variation of query time (paper's γq)."""
        return self.vq / (self.tq * self.tq) if self.tq > 0 else 0.0

    @property
    def gamma_u(self) -> float:
        """Squared coefficient of variation of update time (paper's γu)."""
        return self.vu / (self.tu * self.tu) if self.tu > 0 else 0.0

    def scaled(self, query_factor: float = 1.0, update_factor: float = 1.0) -> "AlgorithmProfile":
        """A profile with scaled means (variances scale quadratically)."""
        return AlgorithmProfile(
            name=self.name,
            tq=self.tq * query_factor,
            vq=self.vq * query_factor * query_factor,
            tu=self.tu * update_factor,
            vu=self.vu * update_factor * update_factor,
        )


def measure_profile(
    solution: KNNSolution,
    k: int = 10,
    num_queries: int = 50,
    num_updates: int = 50,
    seed: int = 0,
    num_nodes: int | None = None,
) -> AlgorithmProfile:
    """Empirically measure ``(tq, Vq, tu, Vu)`` on isolated operations.

    Queries are issued from random nodes; updates are move cycles
    (delete + reinsert of an existing object), matching how workloads
    exercise the solution.  The solution is left in its original state.

    ``num_nodes`` bounds the query-location space; when omitted it is
    inferred from the solution's current object locations (fallback 1).
    """
    rng = random.Random(seed)
    locations = solution.object_locations()
    if num_nodes is None:
        num_nodes = max(locations.values(), default=0) + 1

    query_samples: list[float] = []
    for _ in range(max(num_queries, 1)):
        origin = rng.randrange(num_nodes)
        start = time.perf_counter()
        solution.query(origin, k)
        query_samples.append(time.perf_counter() - start)

    update_samples: list[float] = []
    if locations:
        victims = rng.sample(sorted(locations), min(num_updates, len(locations)))
        for object_id in victims:
            node = locations[object_id]
            start = time.perf_counter()
            solution.delete(object_id)
            update_samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            solution.insert(object_id, node)
            update_samples.append(time.perf_counter() - start)
    if not update_samples:
        update_samples = [0.0]

    return AlgorithmProfile(
        name=solution.name,
        tq=statistics.fmean(query_samples),
        vq=statistics.pvariance(query_samples) if len(query_samples) > 1 else 0.0,
        tu=statistics.fmean(update_samples),
        vu=statistics.pvariance(update_samples) if len(update_samples) > 1 else 0.0,
    )


def profile_from_telemetry(
    telemetry, name: str = "measured"
) -> AlgorithmProfile:
    """Derive ``(tq, Vq, tu, Vu)`` from a run's recorded telemetry.

    The live-system counterpart of :func:`measure_profile`: instead of
    an isolated empirical study, the profile comes from the ``execute``
    (query service times) and ``update`` stage histograms an executor
    recorded through its :class:`repro.obs.Telemetry` while serving
    real traffic — closing the loop from observation back into the
    optimizer.  Raises ``ValueError`` if the run recorded no query
    executions; a run with no updates yields ``tu = vu = 0``.
    """
    execute = telemetry.histogram("execute")
    if execute is None or execute.count == 0:
        raise ValueError(
            "telemetry holds no 'execute' samples; run queries through "
            "an executor with telemetry enabled first"
        )
    update = telemetry.histogram("update")
    return AlgorithmProfile(
        name=name,
        tq=execute.mean,
        vq=execute.variance,
        tu=update.mean if update is not None and update.count else 0.0,
        vu=update.variance if update is not None and update.count else 0.0,
    )


# ----------------------------------------------------------------------
# Paper-parity profiles
# ----------------------------------------------------------------------
#: Base (tq, tu) in seconds on the BJ network with m = 10K objects,
#: k = 10.  TOAIN's tq is the paper's own number (Section V-B: "using
#: TOAIN, we register a tq of about 170 μs"); the others are estimates
#: consistent with Section II's cost narrative and the TOAIN paper:
#: Dijkstra has no index (sub-μs updates, slow queries); V-tree is the
#: most query-efficient with costly index maintenance; TOAIN sits in
#: between with a throughput-optimized SCOB configuration.
_BASE_BJ: dict[str, tuple[float, float]] = {
    "Dijkstra": (800e-6, 0.5e-6),
    "V-tree": (60e-6, 150e-6),
    "TOAIN": (170e-6, 10e-6),
    "G-tree": (110e-6, 4e-6),
    "ROAD": (300e-6, 2e-6),
    "IER": (260e-6, 1e-6),
}

#: Network size relative to BJ (nodes), from Table I.
_RELATIVE_SIZE: dict[str, float] = {
    "BJ": 1.0,
    "NW": 1_207_945 / 1_285_215,
    "NY": 264_346 / 1_285_215,
    "USA(E)": 3_598_623 / 1_285_215,
    "USA(W)": 6_262_104 / 1_285_215,
}

#: Squared coefficient of variation assumed for paper-parity profiles.
PAPER_GAMMA = 1.0


def paper_profile(
    solution_name: str,
    network_symbol: str = "BJ",
    object_count: int = 10_000,
) -> AlgorithmProfile:
    """Paper-parity ``AlgorithmProfile`` for a solution on a network.

    Query times scale with network size: linearly for Dijkstra (its
    expansion radius grows with the node count for a fixed object count)
    and logarithmically for the indexed solutions.  Update times scale
    logarithmically for indexed solutions and not at all for Dijkstra.
    A larger object set *reduces* Dijkstra query times (the expansion
    finds k objects sooner) and slightly increases index update times.
    """
    try:
        base_tq, base_tu = _BASE_BJ[solution_name]
    except KeyError:
        known = ", ".join(sorted(_BASE_BJ))
        raise KeyError(
            f"no paper-parity profile for {solution_name!r}; known: {known}"
        ) from None
    try:
        size = _RELATIVE_SIZE[network_symbol]
    except KeyError:
        known = ", ".join(sorted(_RELATIVE_SIZE))
        raise KeyError(
            f"unknown network symbol {network_symbol!r}; known: {known}"
        ) from None

    import math

    log_size = 1.0 + math.log(max(size, 1e-9)) / math.log(10.0) * 0.35
    log_size = max(log_size, 0.2)
    density = 10_000 / max(object_count, 1)

    if solution_name == "Dijkstra":
        tq = base_tq * size * density
        tu = base_tu
    else:
        tq = base_tq * log_size
        tu = base_tu * log_size * (1.0 + 0.1 * math.log10(max(object_count, 10) / 10_000 + 1.0))

    tq = max(tq, 1e-6)
    tu = max(tu, 1e-7)
    return AlgorithmProfile(
        name=solution_name,
        tq=tq,
        vq=PAPER_GAMMA * tq * tq,
        tu=tu,
        vu=PAPER_GAMMA * tu * tu,
    )
