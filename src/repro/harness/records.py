"""Machine-readable experiment records.

The plain-text artifacts in ``benchmarks/results/`` are for humans;
this module provides the JSON counterpart so downstream tooling (plot
scripts, regression trackers) can consume reproduction results without
scraping tables.  A record captures what the paper's tables implicitly
fix: the scenario, the scheme and its configuration, the algorithm
profile used, and the measured outcome.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..knn.calibration import AlgorithmProfile

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..mpr.config import MPRConfig

#: JSON cannot carry inf; overloaded measurements serialize as this.
OVERLOAD_SENTINEL = "overload"


@dataclass(frozen=True)
class ExperimentRecord:
    """One (scenario, scheme, configuration) measurement."""

    experiment: str               # e.g. "table2", "fig8"
    scenario: str                 # e.g. "BJ-RU"
    scheme: str                   # e.g. "MPR"
    solution: str                 # e.g. "TOAIN"
    config: MPRConfig
    lambda_q: float
    lambda_u: float
    total_cores: int
    metric: str                   # "response_time_s" | "throughput_qps"
    value: float                  # inf = overloaded
    profile: AlgorithmProfile | None = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "scheme": self.scheme,
            "solution": self.solution,
            "config": {"x": self.config.x, "y": self.config.y, "z": self.config.z},
            "lambda_q": self.lambda_q,
            "lambda_u": self.lambda_u,
            "total_cores": self.total_cores,
            "metric": self.metric,
            "value": OVERLOAD_SENTINEL if math.isinf(self.value) else self.value,
        }
        if self.profile is not None:
            payload["profile"] = asdict(self.profile)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ExperimentRecord":
        from ..mpr.config import MPRConfig

        raw_value = payload["value"]
        value = math.inf if raw_value == OVERLOAD_SENTINEL else float(raw_value)
        profile = None
        if "profile" in payload:
            profile = AlgorithmProfile(**payload["profile"])
        config = payload["config"]
        return cls(
            experiment=payload["experiment"],
            scenario=payload["scenario"],
            scheme=payload["scheme"],
            solution=payload["solution"],
            config=MPRConfig(config["x"], config["y"], config["z"]),
            lambda_q=float(payload["lambda_q"]),
            lambda_u=float(payload["lambda_u"]),
            total_cores=int(payload["total_cores"]),
            metric=payload["metric"],
            value=value,
            profile=profile,
        )

    @property
    def overloaded(self) -> bool:
        return math.isinf(self.value)


def save_records(records: list[ExperimentRecord], path: str | Path) -> None:
    """Write records as a JSON array (stable key order)."""
    path = Path(path)
    payload = [record.to_dict() for record in records]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_records(path: str | Path) -> list[ExperimentRecord]:
    """Read records written by :func:`save_records`."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    return [ExperimentRecord.from_dict(item) for item in payload]


def filter_records(
    records: list[ExperimentRecord],
    experiment: str | None = None,
    scheme: str | None = None,
    scenario: str | None = None,
) -> list[ExperimentRecord]:
    """Select records by experiment/scheme/scenario (None = wildcard)."""
    selected = records
    if experiment is not None:
        selected = [r for r in selected if r.experiment == experiment]
    if scheme is not None:
        selected = [r for r in selected if r.scheme == scheme]
    if scenario is not None:
        selected = [r for r in selected if r.scenario == scenario]
    return selected
