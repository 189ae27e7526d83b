"""``tools/bench_pairs.py``'s arithmetic on synthetic result lines: wins
per pair (ties count for neither side), the parent's spread, and the
``unresolved`` / ``gain`` verdicts.  No process is started."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

MANIFEST = {
    "workloads": [{"name": "serve_closed"}, {"name": "serve_open"}],
    "end_to_end": [
        {"name": "cpu_ms_per_op", "better": "lower", "bound": 0.15},
        {"name": "throughput_ops", "better": "higher", "bound": 0.15},
    ],
}


def write_runs(path: Path, workload: str, values: dict[str, list]) -> None:
    """One untraced result line per seed (``values[metric][seed]``), plus
    a traced line that must be ignored."""
    seeds = range(len(next(iter(values.values()))))
    with path.open("a") as handle:
        for seed in seeds:
            for trace in (0, 1):
                handle.write(json.dumps({
                    "workload": workload, "seed": 100 + seed, "trace": trace,
                    "host_factor": 1.0,
                    "metrics": {
                        name: {"value": series[seed] * (1 + 9 * trace)}
                        for name, series in values.items()
                    },
                }) + "\n")


@pytest.fixture()
def files(tmp_path):
    return tmp_path / "base.jsonl", tmp_path / "change.jsonl"


def rows_by_key(files):
    rows = bench_pairs.pair_rows(*files, MANIFEST)
    return {(row["workload"], row["metric"]): row for row in rows}


def test_wins_count_each_pair_and_ties_count_for_neither(files) -> None:
    base_cpu = [1.0, 1.0, 1.0, 1.0]
    write_runs(files[0], "serve_closed", {
        "cpu_ms_per_op": base_cpu, "throughput_ops": [100, 100, 100, 100],
    })
    write_runs(files[1], "serve_closed", {
        "cpu_ms_per_op": [0.9, 1.0, 1.1, 0.8],  # win, tie, loss, win
        "throughput_ops": [110, 100, 90, 100],  # higher is better
    })
    rows = rows_by_key(files)
    cpu = rows["serve_closed", "cpu_ms_per_op"]
    assert (cpu["wins"], cpu["losses"], cpu["pairs"]) == (2, 1, 4)
    assert cpu["spread"] == 0.0
    assert cpu["move"] == pytest.approx(-0.05)  # median 1.0 -> 0.95
    throughput = rows["serve_closed", "throughput_ops"]
    assert (throughput["wins"], throughput["losses"]) == (1, 1)
    assert ("serve_open", "cpu_ms_per_op") not in rows  # no runs, no row


def test_pairs_are_matched_by_seed(files) -> None:
    """A seed run on one side only is no pair."""
    write_runs(files[0], "serve_open", {"cpu_ms_per_op": [1.0, 1.0, 1.0]})
    write_runs(files[1], "serve_open", {"cpu_ms_per_op": [0.5, 0.5]})
    row = rows_by_key(files)["serve_open", "cpu_ms_per_op"]
    assert (row["wins"], row["pairs"]) == (2, 2)


def test_a_parent_spread_beyond_the_bound_is_unresolved(files) -> None:
    # Parent quartiles 0.775 / 1.0 / 1.3: spread 52.5 % > 15 %.
    write_runs(files[0], "serve_closed", {"cpu_ms_per_op": [0.7, 1.0, 1.0, 1.4]})
    write_runs(files[1], "serve_closed", {"cpu_ms_per_op": [0.5, 0.5, 0.5, 0.5]})
    row = rows_by_key(files)["serve_closed", "cpu_ms_per_op"]
    assert row["spread"] == pytest.approx(0.525)
    assert (row["wins"], row["verdict"]) == (4, "unresolved")


def test_a_gain_needs_nine_wins_in_ten_and_a_move_beyond_the_spread(
    files,
) -> None:
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    write_runs(files[0], "serve_closed", {
        "cpu_ms_per_op": base, "throughput_ops": [100.0] * 10,
    })
    write_runs(files[1], "serve_closed", {
        # 9 of 10 better by ~12 %: a gain.
        "cpu_ms_per_op": [0.88] * 9 + [1.05],
        # 8 of 10 better: not a gain, however large the move.
        "throughput_ops": [150.0] * 8 + [90.0] * 2,
    })
    rows = rows_by_key(files)
    cpu = rows["serve_closed", "cpu_ms_per_op"]
    assert (cpu["wins"], cpu["verdict"]) == (9, "gain")
    throughput = rows["serve_closed", "throughput_ops"]
    assert (throughput["wins"], throughput["verdict"]) == (8, "")
    table = bench_pairs.format_rows(list(rows.values()), markdown=True)
    assert "| serve_closed | cpu_ms_per_op | 9/10 |" in table


def test_a_median_worse_by_more_than_the_bound_is_a_breach(files) -> None:
    write_runs(files[0], "serve_closed", {"cpu_ms_per_op": [1.0] * 4})
    write_runs(files[1], "serve_closed", {"cpu_ms_per_op": [1.2] * 4})
    row = rows_by_key(files)["serve_closed", "cpu_ms_per_op"]
    assert (row["losses"], row["verdict"]) == (4, "BREACH")
