"""The model-validation contract (ISSUE 6 acceptance test).

Fast lane: tolerance semantics, a miniature simulator sweep, and —
the standing contract — the checked-in ``benchmarks/results/
validation.json`` artifact must cover at least a 3×3 ``(λq, x·y·z)``
grid on *both* backends with every enforced (under-capacity) cell
within its declared tolerance.  Slow lane: one live-pool cell runs
end-to-end on this machine.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.mpr.config import MPRConfig
from repro.validation import (
    CellVerdict,
    GridSpec,
    ToleranceSpec,
    run_validation,
    validate_live,
    validate_simulator,
    write_report,
)

ARTIFACT = Path(__file__).parent.parent / "benchmarks" / "results" / "validation.json"


def make_cell(**overrides) -> CellVerdict:
    defaults = dict(
        backend="sim", lambda_q=100.0, lambda_u=10.0, x=1, y=1, z=1,
        model_rq=0.001, measured_rq=0.0015, measured_p95=0.002,
        utilization=0.2, under_capacity=True, within_tolerance=True,
    )
    defaults.update(overrides)
    return CellVerdict(**defaults)


def test_tolerance_spec_validation():
    with pytest.raises(ValueError):
        ToleranceSpec(sim_rq_factor=0.5)
    with pytest.raises(ValueError):
        ToleranceSpec(live_rq_slack=-1.0)
    with pytest.raises(ValueError):
        ToleranceSpec(utilization_cap=1.5)
    assert ToleranceSpec().to_dict()["sim_rq_factor"] == 2.0


def test_cell_verdict_enforcement_semantics():
    enforced_ok = make_cell()
    assert enforced_ok.passed and enforced_ok.ratio == pytest.approx(1.5)
    enforced_bad = make_cell(within_tolerance=False)
    assert not enforced_bad.passed
    # Over-capacity cells are informational: recorded, never failing.
    info = make_cell(under_capacity=False, within_tolerance=False)
    assert info.passed and not info.enforced
    overload = make_cell(model_rq=math.inf)
    assert math.isinf(overload.ratio)
    assert overload.to_dict()["ratio"] is None


def test_mini_simulator_sweep_passes():
    grid = GridSpec(
        lambda_qs=(200.0, 500.0), lambda_us=(2_000.0,),
        configs=(MPRConfig(1, 1, 1), MPRConfig(2, 2, 1)),
        duration=1.0, seed=3,
    )
    cells, throughput = validate_simulator(grid, check_throughput=False)
    assert len(cells) == grid.num_cells
    assert throughput == []
    assert all(c.backend == "sim" for c in cells)
    assert all(c.passed for c in cells)
    assert any(c.enforced for c in cells)


def test_report_roundtrip(tmp_path):
    grid = GridSpec(
        lambda_qs=(300.0,), lambda_us=(2_000.0,),
        configs=(MPRConfig(1, 1, 1),), duration=0.5, seed=3,
    )
    report = run_validation(sim_grid=grid, include_live=False)
    json_path, txt_path = write_report(report, tmp_path)
    payload = json.loads(json_path.read_text())
    assert payload["ok"] == report.ok
    assert len(payload["cells"]) == len(report.cells)
    assert payload["tolerances"] == report.tolerances.to_dict()
    assert "Eq. 5" in txt_path.read_text()


# ----------------------------------------------------------------------
# The standing contract on the checked-in artifact
# ----------------------------------------------------------------------
def test_checked_in_validation_artifact_contract():
    assert ARTIFACT.exists(), (
        "benchmarks/results/validation.json missing — run "
        "`PYTHONPATH=src python -m repro.cli validate` and commit the result"
    )
    payload = json.loads(ARTIFACT.read_text())
    assert payload["ok"] is True
    cells = payload["cells"]

    for backend in ("sim", "live"):
        subset = [c for c in cells if c["backend"] == backend]
        assert subset, f"no {backend} cells in the artifact"
        lambda_qs = {c["lambda_q"] for c in subset}
        products = {c["x"] * c["y"] * c["z"] for c in subset}
        # The acceptance grid: ≥3 query rates × ≥3 core-matrix sizes.
        assert len(lambda_qs) >= 3, f"{backend}: needs ≥3 λq values"
        assert len(products) >= 3, f"{backend}: needs ≥3 distinct x·y·z"
        # Every under-capacity cell within the declared tolerance.
        for cell in subset:
            if cell["under_capacity"]:
                assert cell["within_tolerance"], (
                    f"{backend} cell λq={cell['lambda_q']} "
                    f"({cell['x']},{cell['y']},{cell['z']}) out of tolerance: "
                    f"{cell['detail']}"
                )
            assert cell["passed"]

    # Eq. 7 is validated too, and the tolerances are declared in-band.
    assert payload["throughput"], "no throughput checks in the artifact"
    assert all(t["passed"] for t in payload["throughput"])
    assert payload["tolerances"]["sim_rq_factor"] >= 1.0


# ----------------------------------------------------------------------
# Live pool (slow lane)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_live_pool_single_cell():
    grid = GridSpec(
        lambda_qs=(50.0,), lambda_us=(20.0,),
        configs=(MPRConfig(1, 1, 1),), duration=1.5, seed=7,
    )
    cells = validate_live(grid)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.backend == "live"
    assert cell.measured_rq > 0 and not math.isinf(cell.model_rq)
    # Realized rates are recorded, not the nominal grid rates.
    assert cell.lambda_q > 0
    assert cell.passed, cell.detail
