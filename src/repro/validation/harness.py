"""The standing model-validation harness: Fig. 4/5 as a regression contract.

The paper's Figures 4 and 5 argue that the analytical model (Eq. 5's
``Rq``, Eq. 7's ``λ̂q``) tracks measurement closely enough to drive
``(x, y, z)`` selection.  The seed repo only ever compared the model
against the simulator, in one-off benches; this module makes the claim
a *standing contract*: sweep a ``(λq, λu, x, y, z)`` grid on both the
discrete-event simulator and the live process pool, compare model
against measurement cell by cell under declared tolerances, and emit a
machine-readable verdict that CI snapshots and `tests/test_validation.py`
enforces.

Tolerance semantics (see :class:`ToleranceSpec`): a cell is *enforced*
only when the model itself predicts the cell is comfortably under
capacity (finite ``Rq``, modeled worker utilization below the cap) —
near saturation the M/G/1 expectation has unbounded variance and no
finite run converges to it, which is exactly why the paper reports
"Overload" there instead of a number.  Over-capacity cells are still
recorded (informational) so drift is visible.

Live-pool measurement notes:

* Tasks are *paced* through :func:`repro.workload.replay_timed` so the
  pool genuinely experiences the cell's arrival rates (``run()`` would
  submit as fast as the loop spins).
* Mean response is assembled from per-stage telemetry histograms
  (queue_wait + execute + dispatch, + merge when ``x > 1``) rather than
  the end-to-end ``response`` stage: both executors record the final
  merge at drain time, which would charge the whole replay's tail wait
  to early queries.
* The model is calibrated from the *same run*'s telemetry
  (:func:`repro.knn.calibration.profile_from_telemetry` +
  :func:`repro.sim.machine_spec_from_telemetry`) and fed the realized
  arrival rates, so the comparison is measurement vs. model — not
  measurement vs. hand-tuned constants.
* The live tolerance carries an absolute slack term on top of the
  multiplicative factor: on a busy or single-core host, IPC transit
  and OS scheduling jitter put a few milliseconds under ``queue_wait``
  that no queueing model of the *application* predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..graph.generators import grid_network
from ..harness import format_table
from ..knn.calibration import paper_profile, profile_from_telemetry
from ..knn.dijkstra_knn import DijkstraKNN
from ..mpr.analysis import (
    MachineSpec,
    Workload,
    max_throughput_closed_form,
    response_time,
)
from ..mpr.api import build_executor
from ..mpr.config import MPRConfig
from ..obs import Telemetry
from ..sim.measurement import (
    find_max_throughput,
    machine_spec_from_telemetry,
    measure_response_time,
)
from ..workload.generator import generate_workload
from ..workload.replay import replay_timed

__all__ = [
    "DEFAULT_LIVE_GRID",
    "DEFAULT_SIM_GRID",
    "CellVerdict",
    "GridSpec",
    "ThroughputVerdict",
    "ToleranceSpec",
    "ValidationReport",
    "run_validation",
    "validate_live",
    "validate_simulator",
    "write_report",
]


@dataclass(frozen=True)
class ToleranceSpec:
    """Declared accuracy contract between model and measurement.

    ``sim_rq_factor`` bounds the two-sided ratio between the
    simulator's mean ``Rq`` and Eq. 5 (a factor of 2 means "same order,
    both directions").  ``live_rq_factor``/``live_rq_slack`` bound the
    live pool the same way, plus an absolute slack (seconds) absorbing
    IPC transit and OS scheduling jitter the application-level model
    does not see.  ``throughput_rel`` bounds the relative error between
    Eq. 7's ``λ̂q`` and the simulator's throughput search.
    ``utilization_cap`` is the modeled worker-utilization ceiling below
    which a cell is *enforced* — a failed enforced cell fails the whole
    validation run.
    """

    sim_rq_factor: float = 2.0
    live_rq_factor: float = 3.0
    live_rq_slack: float = 0.005
    throughput_rel: float = 0.35
    utilization_cap: float = 0.75

    def __post_init__(self) -> None:
        if self.sim_rq_factor < 1.0 or self.live_rq_factor < 1.0:
            raise ValueError("ratio factors must be >= 1")
        if self.live_rq_slack < 0:
            raise ValueError("slack must be non-negative")
        if not 0.0 < self.utilization_cap < 1.0:
            raise ValueError("utilization_cap must be in (0, 1)")
        if self.throughput_rel <= 0:
            raise ValueError("throughput_rel must be positive")

    def to_dict(self) -> dict[str, float]:
        return {
            "sim_rq_factor": self.sim_rq_factor,
            "live_rq_factor": self.live_rq_factor,
            "live_rq_slack": self.live_rq_slack,
            "throughput_rel": self.throughput_rel,
            "utilization_cap": self.utilization_cap,
        }


@dataclass(frozen=True)
class GridSpec:
    """One validation sweep: the cross product of rates and configs."""

    lambda_qs: tuple[float, ...]
    lambda_us: tuple[float, ...]
    configs: tuple[MPRConfig, ...]
    duration: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.lambda_qs or not self.lambda_us or not self.configs:
            raise ValueError("grid axes must be non-empty")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def num_cells(self) -> int:
        return len(self.lambda_qs) * len(self.lambda_us) * len(self.configs)


#: Simulator sweep: paper-parity Dijkstra profile on the 19-core
#: machine; λq chosen so (1,1,1) spans light load to ~0.7 utilization.
DEFAULT_SIM_GRID = GridSpec(
    lambda_qs=(300.0, 600.0, 900.0),
    lambda_us=(2_000.0, 8_000.0),
    configs=(MPRConfig(1, 1, 1), MPRConfig(2, 2, 1), MPRConfig(4, 2, 1)),
    duration=2.0,
    seed=7,
)

#: Live-pool sweep: small enough to finish in CI's slow lane, rates
#: low enough that a single-core host keeps every cell under capacity.
DEFAULT_LIVE_GRID = GridSpec(
    lambda_qs=(30.0, 60.0, 90.0),
    lambda_us=(20.0,),
    configs=(MPRConfig(1, 1, 1), MPRConfig(2, 1, 1), MPRConfig(2, 2, 1)),
    duration=2.0,
    seed=7,
)


@dataclass(frozen=True)
class CellVerdict:
    """Model-vs-measurement outcome for one ``(λq, λu, x, y, z)`` cell."""

    backend: str  # "sim" | "live"
    lambda_q: float
    lambda_u: float
    x: int
    y: int
    z: int
    model_rq: float
    measured_rq: float
    measured_p95: float
    utilization: float
    under_capacity: bool
    within_tolerance: bool
    detail: str = ""
    #: Live cells: answers whose QueryResult status was not OK (shed,
    #: degraded, or lost); the sim backend has no answer objects.
    anomalies: int = 0

    @property
    def ratio(self) -> float:
        """measured / model (inf when the model predicts overload)."""
        if self.model_rq <= 0 or math.isinf(self.model_rq):
            return math.inf
        return self.measured_rq / self.model_rq

    @property
    def enforced(self) -> bool:
        return self.under_capacity

    @property
    def passed(self) -> bool:
        """Enforced cells must be within tolerance; others always pass."""
        return self.within_tolerance if self.enforced else True

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "lambda_q": self.lambda_q,
            "lambda_u": self.lambda_u,
            "x": self.x,
            "y": self.y,
            "z": self.z,
            "model_rq": self.model_rq,
            "measured_rq": self.measured_rq,
            "measured_p95": self.measured_p95,
            "ratio": None if math.isinf(self.ratio) else self.ratio,
            "utilization": self.utilization,
            "under_capacity": self.under_capacity,
            "within_tolerance": self.within_tolerance,
            "enforced": self.enforced,
            "passed": self.passed,
            "detail": self.detail,
            "anomalies": self.anomalies,
        }


@dataclass(frozen=True)
class ThroughputVerdict:
    """Eq. 7 ``λ̂q`` vs the simulator's throughput search, per config."""

    lambda_u: float
    x: int
    y: int
    z: int
    model_lambda_hat: float
    measured_lambda_hat: float
    relative_error: float
    within_tolerance: bool
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.within_tolerance

    def to_dict(self) -> dict[str, Any]:
        return {
            "lambda_u": self.lambda_u,
            "x": self.x,
            "y": self.y,
            "z": self.z,
            "model_lambda_hat": self.model_lambda_hat,
            "measured_lambda_hat": self.measured_lambda_hat,
            "relative_error": self.relative_error,
            "within_tolerance": self.within_tolerance,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Everything one validation run produced."""

    cells: tuple[CellVerdict, ...]
    throughput: tuple[ThroughputVerdict, ...]
    tolerances: ToleranceSpec
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.cells) and all(
            t.passed for t in self.throughput
        )

    def cells_for(self, backend: str) -> tuple[CellVerdict, ...]:
        return tuple(c for c in self.cells if c.backend == backend)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "tolerances": self.tolerances.to_dict(),
            "meta": self.meta,
            "cells": [c.to_dict() for c in self.cells],
            "throughput": [t.to_dict() for t in self.throughput],
        }

    def format_table(self) -> str:
        def fmt_seconds(value: float) -> str:
            return "overload" if math.isinf(value) else f"{value * 1e6:,.0f} us"

        rows = []
        for cell in self.cells:
            rows.append([
                cell.backend,
                f"{cell.lambda_q:g}",
                f"{cell.lambda_u:g}",
                f"({cell.x},{cell.y},{cell.z})",
                fmt_seconds(cell.model_rq),
                fmt_seconds(cell.measured_rq),
                "-" if math.isinf(cell.ratio) else f"{cell.ratio:.2f}",
                f"{cell.utilization:.2f}",
                "yes" if cell.enforced else "info",
                "ok" if cell.passed else "FAIL",
            ])
        text = format_table(
            ["backend", "λq", "λu", "(x,y,z)", "model Rq", "measured Rq",
             "ratio", "util", "enforced", "verdict"],
            rows,
            title="Model validation: Eq. 5 Rq vs measurement",
        )
        if self.throughput:
            rows = [
                [
                    f"{t.lambda_u:g}",
                    f"({t.x},{t.y},{t.z})",
                    f"{t.model_lambda_hat:,.0f}/s",
                    f"{t.measured_lambda_hat:,.0f}/s",
                    f"{t.relative_error:.2f}",
                    "ok" if t.passed else "FAIL",
                ]
                for t in self.throughput
            ]
            text += "\n\n" + format_table(
                ["λu", "(x,y,z)", "Eq.7 λ̂q", "sim λ̂q", "rel err", "verdict"],
                rows,
                title="Model validation: Eq. 7 max throughput vs simulator",
            )
        verdict = "PASS" if self.ok else "FAIL"
        enforced = sum(1 for c in self.cells if c.enforced)
        text += (
            f"\n\nvalidation {verdict}: {len(self.cells)} cells "
            f"({enforced} enforced), {len(self.throughput)} throughput checks"
        )
        return text


def _worker_utilization(
    config: MPRConfig, lambda_q: float, lambda_u: float, tq: float, tu: float
) -> float:
    return (
        config.worker_query_rate(lambda_q) * tq
        + config.worker_update_rate(lambda_u) * tu
    )


def _ratio_within(measured: float, model: float, factor: float, slack: float = 0.0) -> bool:
    """Two-sided tolerance: each within ``factor``× (+ slack) of the other."""
    if math.isinf(model) or math.isinf(measured):
        return False
    return (
        measured <= model * factor + slack
        and model <= measured * factor + slack
    )


# ----------------------------------------------------------------------
# Simulator backend
# ----------------------------------------------------------------------
def validate_simulator(
    grid: GridSpec = DEFAULT_SIM_GRID,
    tolerances: ToleranceSpec = ToleranceSpec(),
    profile=None,
    machine: MachineSpec | None = None,
    rq_bound: float = 0.1,
    check_throughput: bool = True,
) -> tuple[list[CellVerdict], list[ThroughputVerdict]]:
    """Sweep the grid on the discrete-event simulator.

    Each cell simulates the cell's stream and compares the measured
    mean ``Rq`` against Eq. 5; optionally each config additionally runs
    the paper's throughput search and compares against Eq. 7.
    """
    if profile is None:
        profile = paper_profile("Dijkstra")
    if machine is None:
        machine = MachineSpec(total_cores=19)

    cells: list[CellVerdict] = []
    for lambda_q in grid.lambda_qs:
        for lambda_u in grid.lambda_us:
            for config in grid.configs:
                model = response_time(
                    config, Workload(lambda_q, lambda_u), profile, machine
                )
                measurement = measure_response_time(
                    config, profile, machine, lambda_q, lambda_u,
                    duration=grid.duration, seed=grid.seed,
                )
                measured = (
                    math.inf if measurement.overloaded
                    else measurement.mean_response_time
                )
                utilization = _worker_utilization(
                    config, lambda_q, lambda_u, profile.tq, profile.tu
                )
                under = (
                    not math.isinf(model)
                    and utilization <= tolerances.utilization_cap
                )
                within = _ratio_within(measured, model, tolerances.sim_rq_factor)
                detail = ""
                if under and not within:
                    detail = (
                        f"sim mean Rq {measured:.6f}s vs model {model:.6f}s "
                        f"outside factor {tolerances.sim_rq_factor}"
                    )
                cells.append(CellVerdict(
                    backend="sim",
                    lambda_q=lambda_q, lambda_u=lambda_u,
                    x=config.x, y=config.y, z=config.z,
                    model_rq=model, measured_rq=measured,
                    measured_p95=measurement.p95_response_time,
                    utilization=utilization,
                    under_capacity=under, within_tolerance=within,
                    detail=detail,
                ))

    throughput: list[ThroughputVerdict] = []
    if check_throughput:
        lambda_u = grid.lambda_us[0]
        for config in grid.configs:
            model_hat = max_throughput_closed_form(
                config, lambda_u, profile, machine, rq_bound
            )
            measured_hat = find_max_throughput(
                config, profile, machine, lambda_u,
                rq_bound=rq_bound, duration=min(grid.duration, 0.5),
                seed=grid.seed,
            )
            if model_hat <= 0 and measured_hat <= 0:
                rel, within, detail = 0.0, True, "both zero"
            elif model_hat <= 0:
                rel, within = math.inf, False
                detail = "model says infeasible, simulator disagrees"
            else:
                rel = abs(measured_hat - model_hat) / model_hat
                within = rel <= tolerances.throughput_rel
                detail = "" if within else (
                    f"sim λ̂q {measured_hat:,.0f} vs Eq.7 {model_hat:,.0f} "
                    f"(rel err {rel:.2f} > {tolerances.throughput_rel})"
                )
            throughput.append(ThroughputVerdict(
                lambda_u=lambda_u,
                x=config.x, y=config.y, z=config.z,
                model_lambda_hat=model_hat,
                measured_lambda_hat=measured_hat,
                relative_error=rel, within_tolerance=within, detail=detail,
            ))
    return cells, throughput


# ----------------------------------------------------------------------
# Live process-pool backend
# ----------------------------------------------------------------------
def _stage_mean(telemetry: Telemetry, stage: str) -> float:
    histogram = telemetry.histogram(stage)
    if histogram is None or histogram.count == 0:
        return 0.0
    return histogram.mean


def _stage_p95(telemetry: Telemetry, stage: str) -> float:
    stats = telemetry.stage_stats(stage)
    return float(stats.get("p95", 0.0)) if stats else 0.0


def validate_live(
    grid: GridSpec = DEFAULT_LIVE_GRID,
    tolerances: ToleranceSpec = ToleranceSpec(),
    network=None,
    num_objects: int = 48,
    k: int = 5,
    total_cores: int = 19,
) -> list[CellVerdict]:
    """Sweep the grid on the live process pool.

    Per cell: generate the cell's stream, pace it through a fresh pool
    (``batch_size=1``, per-query dispatch, so no sweep-fill latency
    pollutes the stage timings), calibrate profile + machine from the run's own telemetry,
    and compare the stage-assembled mean response against Eq. 5 at the
    realized rates.
    """
    if network is None:
        network = grid_network(12, 12, seed=3)

    cells: list[CellVerdict] = []
    for lambda_q in grid.lambda_qs:
        for lambda_u in grid.lambda_us:
            workload = generate_workload(
                network,
                num_objects=num_objects,
                lambda_q=lambda_q,
                lambda_u=lambda_u,
                duration=grid.duration,
                k=k,
                seed=grid.seed,
            )
            realized_lq = workload.num_queries / grid.duration
            realized_lu = workload.num_updates / grid.duration
            for config in grid.configs:
                telemetry = Telemetry()
                solution = DijkstraKNN(network)
                executor = build_executor(
                    config, solution, workload.initial_objects,
                    mode="process", telemetry=telemetry, batch_size=1,
                )
                try:
                    results = replay_timed(executor, workload.tasks)
                finally:
                    executor.close()
                anomalies = sum(
                    1 for result in results.values() if not result.ok
                )

                profile = profile_from_telemetry(telemetry, "live-dijkstra")
                machine = machine_spec_from_telemetry(
                    telemetry, total_cores=total_cores
                )
                model = response_time(
                    config, Workload(realized_lq, realized_lu), profile, machine
                )
                measured = (
                    _stage_mean(telemetry, "queue_wait")
                    + _stage_mean(telemetry, "execute")
                    + _stage_mean(telemetry, "dispatch")
                )
                if config.x > 1:
                    measured += _stage_mean(telemetry, "merge")
                measured_p95 = (
                    _stage_p95(telemetry, "queue_wait")
                    + _stage_p95(telemetry, "execute")
                )
                utilization = _worker_utilization(
                    config, realized_lq, realized_lu, profile.tq, profile.tu
                )
                under = (
                    not math.isinf(model)
                    and utilization <= tolerances.utilization_cap
                )
                within = _ratio_within(
                    measured, model,
                    tolerances.live_rq_factor, tolerances.live_rq_slack,
                )
                detail = ""
                if under and not within:
                    detail = (
                        f"live mean Rq {measured:.6f}s vs model {model:.6f}s "
                        f"outside factor {tolerances.live_rq_factor} "
                        f"(+{tolerances.live_rq_slack}s slack)"
                    )
                cells.append(CellVerdict(
                    backend="live",
                    lambda_q=realized_lq, lambda_u=realized_lu,
                    x=config.x, y=config.y, z=config.z,
                    model_rq=model, measured_rq=measured,
                    measured_p95=measured_p95,
                    utilization=utilization,
                    under_capacity=under, within_tolerance=within,
                    detail=detail,
                    anomalies=anomalies,
                ))
    return cells


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_validation(
    sim_grid: GridSpec = DEFAULT_SIM_GRID,
    live_grid: GridSpec = DEFAULT_LIVE_GRID,
    tolerances: ToleranceSpec = ToleranceSpec(),
    include_sim: bool = True,
    include_live: bool = True,
) -> ValidationReport:
    """Run the full validation sweep and assemble the report."""
    cells: list[CellVerdict] = []
    throughput: list[ThroughputVerdict] = []
    if include_sim:
        sim_cells, sim_tp = validate_simulator(sim_grid, tolerances)
        cells.extend(sim_cells)
        throughput.extend(sim_tp)
    if include_live:
        cells.extend(validate_live(live_grid, tolerances))
    meta = {
        "sim_grid": {
            "lambda_qs": list(sim_grid.lambda_qs),
            "lambda_us": list(sim_grid.lambda_us),
            "configs": [[c.x, c.y, c.z] for c in sim_grid.configs],
            "duration": sim_grid.duration,
            "seed": sim_grid.seed,
        } if include_sim else None,
        "live_grid": {
            "lambda_qs": list(live_grid.lambda_qs),
            "lambda_us": list(live_grid.lambda_us),
            "configs": [[c.x, c.y, c.z] for c in live_grid.configs],
            "duration": live_grid.duration,
            "seed": live_grid.seed,
        } if include_live else None,
    }
    return ValidationReport(
        cells=tuple(cells), throughput=tuple(throughput),
        tolerances=tolerances, meta=meta,
    )


def write_report(report: ValidationReport, directory: str | Path) -> tuple[Path, Path]:
    """Persist ``validation.json`` + ``validation.txt`` under a directory."""
    import json

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "validation.json"
    txt_path = directory / "validation.txt"
    json_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    txt_path.write_text(report.format_table() + "\n")
    return json_path, txt_path
