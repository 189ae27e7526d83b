"""Analytical models of Section IV-B: response time and throughput.

These are the formulas MPR solves to self-configure:

* **Equation 3** — M/G/1-style expected response time of a single FCFS
  queue serving a Poisson mixture of queries and updates (imported from
  the TOAIN paper [10]).
* **Equation 2 / Lemma 1** — the same formula mapped onto one w-core of
  a core matrix: per-core query rate ``λq / y`` and update rate
  ``λu / x``.
* **Equation 5** — ``Rq = F(x) = tw + τ·x``: mean query response time of
  a configuration.
* **Equation 7** — ``G(x)``: the maximum query arrival rate satisfying
  both the response-time bound (6a) and the capacity constraint (6b).

The multi-layer extension (Section IV-C) reduces the per-layer query
load to ``λq / z`` while updates replicate to every layer; the optimizer
enumerates ``z`` and solves the single-layer problem per layer.

Beyond the paper's two formulas we also model the *control-plane* cores
(scheduler writes, aggregator merges, dispatcher hops) as explicit
capacity constraints — the paper invokes these informally ("the
scheduler will be overloaded if (λq·x + λu·y)·τ' > 1", Section IV-C)
and they are what makes F-Rep throughput collapse to 0 in Table III.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..knn.calibration import AlgorithmProfile, _finite_non_negative
from .config import MPRConfig, enumerate_configs

INFINITY = math.inf


@dataclass(frozen=True)
class MachineSpec:
    """Multicore machine characteristics.

    ``queue_write_time`` is the paper's τ' (one w-queue write by an
    s-core); ``merge_time`` is the a-core's time per partial result;
    ``dispatch_time`` is the d-core's time per dispatched task.  The
    model constant τ of Equation 1 is ``queue_write_time + merge_time``.
    The defaults reproduce the magnitudes of the paper's case study on
    its 2×10-core Xeon (see EXPERIMENTS.md).
    """

    total_cores: int = 19
    queue_write_time: float = 3e-6
    merge_time: float = 3e-6
    dispatch_time: float = 1e-6

    def __post_init__(self) -> None:
        if not isinstance(self.total_cores, int) or self.total_cores < 2:
            raise ValueError(
                "need an int of at least 2 cores (1 worker + 1 scheduler), "
                f"got {self.total_cores!r}"
            )
        if not _finite_non_negative(
            self.queue_write_time, self.merge_time, self.dispatch_time
        ):
            raise ValueError("per-operation times must be finite and non-negative")

    @property
    def tau(self) -> float:
        """The τ of Equation 1 (scheduling + aggregation per partition)."""
        return self.queue_write_time + self.merge_time


@dataclass(frozen=True)
class Workload:
    """Arrival-rate characterization ``(λq, λu)`` of Section IV-B."""

    lambda_q: float
    lambda_u: float

    def __post_init__(self) -> None:
        if not _finite_non_negative(self.lambda_q, self.lambda_u):
            raise ValueError("arrival rates must be finite and non-negative")


def single_queue_response_time(
    lambda_q: float, lambda_u: float, profile: AlgorithmProfile
) -> float:
    """Equation 3: expected query response time of one FCFS queue.

    Returns ``inf`` when the queue is overloaded (utilization >= 1).
    """
    utilization = lambda_q * profile.tq + lambda_u * profile.tu
    if utilization >= 1.0:
        return INFINITY
    numerator = lambda_q * (profile.vq + profile.tq**2) + lambda_u * (
        profile.vu + profile.tu**2
    )
    return numerator / (2.0 * (1.0 - utilization)) + profile.tq


def worker_sojourn_time(
    config: MPRConfig, workload: Workload, profile: AlgorithmProfile
) -> float:
    """Equation 2 (Lemma 1): expected time a query spends at a w-core.

    Maps the single-queue formula onto a w-core: per-core query rate
    ``λq / (y·z)`` (rows within the layer times layers) and update rate
    ``λu / x``.
    """
    return single_queue_response_time(
        config.worker_query_rate(workload.lambda_q),
        config.worker_update_rate(workload.lambda_u),
        profile,
    )


def control_plane_overloaded(
    config: MPRConfig, workload: Workload, machine: MachineSpec
) -> bool:
    """True when the s-core, a-core, or d-core cannot keep up."""
    write_load = (
        config.scheduler_write_rate(workload.lambda_q, workload.lambda_u)
        * machine.queue_write_time
    )
    if write_load >= 1.0:
        return True
    merge_load = config.aggregator_merge_rate(workload.lambda_q) * machine.merge_time
    if merge_load >= 1.0:
        return True
    dispatch_load = (
        config.dispatcher_rate(workload.lambda_q, workload.lambda_u)
        * machine.dispatch_time
    )
    return dispatch_load >= 1.0


def response_time(
    config: MPRConfig,
    workload: Workload,
    profile: AlgorithmProfile,
    machine: MachineSpec,
) -> float:
    """Equation 5: ``Rq = tw + τ·x`` (``inf`` when any core overloads).

    When ``x = 1`` no aggregation happens, so only the queue-write
    component of τ applies (the paper's schemes drop the a-core there).
    """
    if config.total_cores > machine.total_cores:
        return INFINITY
    if control_plane_overloaded(config, workload, machine):
        return INFINITY
    tw = worker_sojourn_time(config, workload, profile)
    if math.isinf(tw):
        return INFINITY
    overhead = machine.queue_write_time * config.x
    if config.x > 1:
        overhead += machine.merge_time * config.x
    if config.z > 1:
        overhead += machine.dispatch_time
    return tw + overhead


def max_throughput_closed_form(
    config: MPRConfig,
    lambda_u: float,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    rq_bound: float,
) -> float:
    """Equation 7's closed form, generalized to z layers.

    Solves constraints (6a) (response-time bound) and (6b) (worker
    capacity) for the largest admissible λq, then intersects with the
    control-plane capacity constraints.  Returns 0 when even λq = 0
    violates a constraint.
    """
    x, y, z = config.x, config.y, config.z
    tq, tu = profile.tq, profile.tu
    gamma_q, gamma_u = profile.gamma_q, profile.gamma_u

    overhead = machine.queue_write_time * x
    if x > 1:
        overhead += machine.merge_time * x
    if z > 1:
        overhead += machine.dispatch_time
    slack = rq_bound - tq - overhead
    if slack <= 0:
        return 0.0

    lambda_u_core = lambda_u / x
    if lambda_u_core * tu >= 1.0:
        return 0.0

    # (6b): per-core capacity. λq_core = λq / (y z).
    cap_capacity = (1.0 - lambda_u_core * tu) / tq * (y * z)

    # (6a): response-time bound, solved for λq (derivation in module doc).
    numerator = 2.0 * (1.0 - lambda_u_core * tu) * slack - lambda_u_core * tu * tu * (
        1.0 + gamma_u
    )
    if numerator <= 0:
        return 0.0
    denominator = tq * tq * (1.0 + gamma_q) + 2.0 * slack * tq
    cap_response = numerator / denominator * (y * z)

    # Control-plane capacity caps.
    caps = [cap_capacity, cap_response]
    if machine.queue_write_time > 0:
        scheduler_budget = 1.0 / machine.queue_write_time - lambda_u * y
        caps.append(max(scheduler_budget, 0.0) * z / x)
    if x > 1 and machine.merge_time > 0:
        caps.append(z / (x * machine.merge_time))
    if z > 1 and machine.dispatch_time > 0:
        caps.append(max(1.0 / machine.dispatch_time - z * lambda_u, 0.0))
    return max(min(caps), 0.0)


def max_throughput(
    config: MPRConfig,
    lambda_u: float,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    rq_bound: float,
    tolerance: float = 1.0,
) -> float:
    """Maximum sustainable λq for a configuration (binary search).

    Cross-validates the closed form: searches the largest λq whose
    modelled response time stays within ``rq_bound`` and keeps every
    core under capacity.  Used by tests to confirm Equation 7 and by the
    optimizer when profiles are empirical.
    """
    def feasible(lambda_q: float) -> bool:
        rt = response_time(config, Workload(lambda_q, lambda_u), profile, machine)
        return rt <= rq_bound

    if not feasible(0.0):
        return 0.0
    low, high = 0.0, 1.0
    while feasible(high):
        low = high
        high *= 2.0
        if high > 1e12:
            return high
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low


def max_update_rate(
    config: MPRConfig,
    lambda_q: float,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    rq_bound: float,
    tolerance: float = 1.0,
) -> float:
    """Largest λu sustainable at a fixed λq under the response bound.

    The dual of Equation 7 — useful for capacity questions phrased as
    "how many position updates can we absorb at this query load?".
    """
    def feasible(lambda_u: float) -> bool:
        rt = response_time(config, Workload(lambda_q, lambda_u), profile, machine)
        return rt <= rq_bound

    if not feasible(0.0):
        return 0.0
    low, high = 0.0, 1.0
    while feasible(high):
        low = high
        high *= 2.0
        if high > 1e12:
            return high
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low


def feasible_frontier(
    config: MPRConfig,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    rq_bound: float,
    num_points: int = 9,
) -> list[tuple[float, float]]:
    """Sample the (λq, λu) feasibility frontier of a configuration.

    Returns ``num_points`` points ``(λq, λu_max(λq))`` with λq spread
    from 0 to the configuration's zero-update maximum throughput.  The
    region under the curve is where the configuration meets ``rq_bound``.
    """
    if num_points < 2:
        raise ValueError("num_points must be at least 2")
    peak_lambda_q = max_throughput_closed_form(
        config, 0.0, profile, machine, rq_bound
    )
    frontier: list[tuple[float, float]] = []
    for step in range(num_points):
        lambda_q = peak_lambda_q * step / (num_points - 1)
        # Back off a hair from the open boundary at the final point.
        probe = min(lambda_q, peak_lambda_q * 0.999)
        frontier.append(
            (probe, max_update_rate(config, probe, profile, machine, rq_bound))
        )
    return frontier


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of MPR's self-configuration."""

    config: MPRConfig
    objective_value: float
    evaluations: dict[MPRConfig, float]


def optimize_response_time(
    workload: Workload,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    max_layers: int | None = None,
    fixed_layers: int | None = None,
) -> OptimizationResult:
    """Pick the configuration minimizing Equation 5's ``Rq``.

    ``fixed_layers = 1`` yields 1MPR; ``None`` explores all layer counts
    (full MPR).  Ties are broken toward fewer total cores, then fewer
    layers (a deterministic, resource-frugal choice).
    """
    evaluations: dict[MPRConfig, float] = {}
    for config in enumerate_configs(machine.total_cores, max_layers=max_layers):
        if fixed_layers is not None and config.z != fixed_layers:
            continue
        evaluations[config] = response_time(config, workload, profile, machine)
    if not evaluations:
        raise ValueError("no feasible configuration for this machine")
    best = min(
        evaluations,
        key=lambda c: (evaluations[c], c.total_cores, c.z, c.x),
    )
    return OptimizationResult(best, evaluations[best], evaluations)


def optimize_throughput(
    lambda_u: float,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    rq_bound: float = 0.1,
    max_layers: int | None = None,
    fixed_layers: int | None = None,
) -> OptimizationResult:
    """Pick the configuration maximizing Equation 7's throughput bound."""
    evaluations: dict[MPRConfig, float] = {}
    for config in enumerate_configs(machine.total_cores, max_layers=max_layers):
        if fixed_layers is not None and config.z != fixed_layers:
            continue
        evaluations[config] = max_throughput_closed_form(
            config, lambda_u, profile, machine, rq_bound
        )
    if not evaluations:
        raise ValueError("no feasible configuration for this machine")
    best = max(
        evaluations,
        key=lambda c: (evaluations[c], -c.total_cores, -c.z, -c.x),
    )
    return OptimizationResult(best, evaluations[best], evaluations)
