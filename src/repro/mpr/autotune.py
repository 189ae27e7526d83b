"""Joint TOAIN × MPR tuning — the paper's "hand-in-hand" remark.

Section II: "TOAIN's configuring of the SCOB index and MPR's
scheduling of the CPU cores (to execute TOAIN's queries and updates
processes) can work hand-in-hand to achieve the best system
performance."

TOAIN alone picks the SCOB family member (our core fraction ρ) that
best trades query time against update time for a workload; MPR alone
picks the core arrangement for a *fixed* solution profile.  Neither is
optimal in isolation: a more update-friendly index shifts the best
core matrix towards replication, and vice versa.  This module closes
the loop — it profiles every family member, solves the MPR
optimization for each, and returns the jointly best pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..graph.road_network import RoadNetwork
from ..knn.calibration import AlgorithmProfile, measure_profile
from ..knn.toain import DEFAULT_FAMILY, ContractionHierarchy, ToainIndex, ToainKNN
from .analysis import MachineSpec, Workload
from .config import MPRConfig
from .schemes import DEFAULT_MAX_LAYERS, Objective, Scheme, configure_scheme


@dataclass(frozen=True)
class JointChoice:
    """Outcome of the joint optimization."""

    core_fraction: float
    config: MPRConfig
    profile: AlgorithmProfile
    objective: Objective
    predicted_value: float
    #: Per-family-member diagnostics: rho -> (profile, config, value).
    family_results: Mapping[float, tuple[AlgorithmProfile, MPRConfig, float]]


def joint_tune(
    network: RoadNetwork,
    objects: Mapping[int, int],
    workload: Workload,
    machine: MachineSpec,
    objective: Objective = Objective.RESPONSE_TIME,
    rq_bound: float = 0.1,
    family: Sequence[float] = DEFAULT_FAMILY,
    k: int = 10,
    samples: int = 20,
    ch: ContractionHierarchy | None = None,
    max_layers: int = DEFAULT_MAX_LAYERS,
) -> JointChoice:
    """Jointly pick TOAIN's SCOB member and MPR's core arrangement.

    For each core fraction in ``family``: build the index variant over
    the shared contraction hierarchy, measure its ``(tq, Vq, tu, Vu)``
    empirically (the paper's calibration step), run the MPR optimizer
    on the measured profile, and keep the pair with the best predicted
    macro measure.

    This is an *empirical* procedure — expect it to take a few seconds
    per family member at replica scales (one CH build is shared).
    """
    if not family:
        raise ValueError("family must not be empty")
    shared_ch = ch or ContractionHierarchy(network)
    family_results: dict[float, tuple[AlgorithmProfile, MPRConfig, float]] = {}

    for rho in family:
        index = ToainIndex(network, core_fraction=rho, ch=shared_ch)
        solution = ToainKNN(network, dict(objects), index=index)
        profile = measure_profile(
            solution, k=k, num_queries=samples, num_updates=samples,
            num_nodes=network.num_nodes,
        )
        choice = configure_scheme(
            Scheme.MPR, workload, profile, machine,
            objective=objective, rq_bound=rq_bound, max_layers=max_layers,
        )
        family_results[rho] = (profile, choice.config, choice.predicted_value)

    # Ties keep the earlier family member.
    best_rho = min(
        family, key=lambda rho: objective.cost(family_results[rho][2])
    )
    best_profile, best_config, best_value = family_results[best_rho]
    return JointChoice(
        core_fraction=best_rho,
        config=best_config,
        profile=best_profile,
        objective=objective,
        predicted_value=best_value,
        family_results=family_results,
    )
