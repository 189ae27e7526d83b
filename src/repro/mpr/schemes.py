"""The four multiprocessing schemes: F-Rep, F-Part, 1MPR, MPR.

A *scheme* is a recipe that turns (machine, workload, algorithm
profile, target measure) into a concrete :class:`MPRConfig`:

* **F-Rep** — full replication: ``x = 1``, every available worker a
  replica row (Section III);
* **F-Part** — full partitioning: ``y = 1``, every available worker a
  partition column;
* **1MPR** — MPR restricted to a single layer (``z = 1``), configured
  by the Section IV-B optimization;
* **MPR** — the full multi-layer scheme, enumerating ``z`` and solving
  the per-layer optimization (Section IV-C).

F-Rep and F-Part ignore the workload (that rigidity is the paper's
point); the MPR variants self-configure from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..knn.calibration import AlgorithmProfile
from .analysis import (
    MachineSpec,
    OptimizationResult,
    Workload,
    max_throughput_closed_form,
    optimize_response_time,
    optimize_throughput,
    response_time,
)
from .config import (
    MPRConfig,
    full_partitioning_config,
    full_replication_config,
)

#: Layer cap used when enumerating full-MPR configurations, chosen to
#: match the paper's 31-configuration space on 19 cores (see config.py).
DEFAULT_MAX_LAYERS = 5


class Objective(Enum):
    """The target macro measure of Section I."""

    RESPONSE_TIME = "response-time"
    THROUGHPUT = "throughput"

    def cost(self, value: float) -> float:
        """A predicted measure as a cost (lower is better): Eq. 5's
        ``Rq`` as is, Eq. 7's throughput bound negated."""
        return -value if self is Objective.THROUGHPUT else value


class Scheme(Enum):
    F_REP = "F-Rep"
    F_PART = "F-Part"
    ONE_MPR = "1MPR"
    MPR = "MPR"


@dataclass(frozen=True)
class SchemeChoice:
    """A scheme's configuration decision for a given environment."""

    scheme: Scheme
    config: MPRConfig
    objective: Objective
    predicted_value: float


def predicted_value(
    config: MPRConfig,
    workload: Workload,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    objective: Objective = Objective.RESPONSE_TIME,
    rq_bound: float = 0.1,
) -> float:
    """What the model predicts for ``config`` under ``objective``:
    Eq. 5's ``Rq`` (``inf`` when a core overloads), or Eq. 7's largest
    λq within ``rq_bound`` (0 when none is)."""
    if objective is Objective.RESPONSE_TIME:
        return response_time(config, workload, profile, machine)
    return max_throughput_closed_form(
        config, workload.lambda_u, profile, machine, rq_bound
    )


def configure_scheme(
    scheme: Scheme,
    workload: Workload,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    objective: Objective = Objective.RESPONSE_TIME,
    rq_bound: float = 0.1,
    max_layers: int = DEFAULT_MAX_LAYERS,
) -> SchemeChoice:
    """Resolve a scheme to a concrete configuration.

    For F-Rep / F-Part the configuration is fixed by the core budget;
    ``predicted_value`` still reports the model's estimate under it (so
    benches can show the predicted overload).  For 1MPR / MPR the
    configuration is the optimizer's pick for ``objective``.
    """
    if scheme is Scheme.F_REP or scheme is Scheme.F_PART:
        if scheme is Scheme.F_REP:
            config = full_replication_config(machine.total_cores)
        else:
            config = full_partitioning_config(machine.total_cores)
        value = predicted_value(
            config, workload, profile, machine, objective, rq_bound
        )
        return SchemeChoice(scheme, config, objective, value)

    fixed_layers = 1 if scheme is Scheme.ONE_MPR else None
    result: OptimizationResult
    if objective is Objective.RESPONSE_TIME:
        result = optimize_response_time(
            workload, profile, machine,
            max_layers=max_layers, fixed_layers=fixed_layers,
        )
    else:
        result = optimize_throughput(
            workload.lambda_u, profile, machine,
            rq_bound=rq_bound, max_layers=max_layers, fixed_layers=fixed_layers,
        )
    return SchemeChoice(scheme, result.config, objective, result.objective_value)


def configure_all_schemes(
    workload: Workload,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    objective: Objective = Objective.RESPONSE_TIME,
    rq_bound: float = 0.1,
    max_layers: int = DEFAULT_MAX_LAYERS,
) -> dict[Scheme, SchemeChoice]:
    """Configuration decisions of all four schemes (bench convenience)."""
    return {
        scheme: configure_scheme(
            scheme, workload, profile, machine,
            objective=objective, rq_bound=rq_bound, max_layers=max_layers,
        )
        for scheme in Scheme
    }
