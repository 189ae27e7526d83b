"""``tools/bench_pairs.py``'s arithmetic on synthetic result lines: wins
per pair (ties count for neither side), the parent's spread, the
``unresolved`` / ``gain`` / ``failed`` verdicts, each side's correct and
failed counts, and the per-pair table.  No process is started."""

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


def write_runs(
    path: Path, workload: str, values: dict[str, list], **fields: list
) -> None:
    """One untraced result line per seed (``values[metric][seed]``; any
    other result field as ``fields[name][seed]``), plus a traced line
    that must be ignored."""
    seeds = range(len(next(iter(values.values()))))
    with path.open("a") as handle:
        for seed in seeds:
            for trace in (0, 1):
                handle.write(json.dumps({
                    "workload": workload, "seed": 100 + seed, "trace": trace,
                    "host_factor": 1.0, "correct": True, "failed": 0,
                    **{name: series[seed] for name, series in fields.items()},
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


def test_a_change_run_that_failed_is_never_a_gain(files) -> None:
    """Nine wins in ten and a move past the spread, but one run of the
    change answered wrong: the verdict says so instead of ``gain``, and
    each side's correct runs and failed operations are counted."""
    write_runs(files[0], "serve_closed", {"cpu_ms_per_op": [1.0] * 10})
    write_runs(
        files[1], "serve_closed", {"cpu_ms_per_op": [0.8] * 10},
        correct=[True] * 9 + [False], failed=[0] * 9 + [3],
    )
    row = rows_by_key(files)["serve_closed", "cpu_ms_per_op"]
    assert (row["wins"], row["verdict"]) == (10, "failed")
    sides = {row["side"]: row for row in bench_pairs.side_rows(*files)}
    assert (sides["base"]["runs"], sides["base"]["correct"]) == (10, 10)
    assert sides["base"]["failed"] == 0
    assert (sides["change"]["correct"], sides["change"]["failed"]) == (9, 3)
    table = bench_pairs.format_sides(list(sides.values()), markdown=True)
    assert "| serve_closed | change | 10 | 9 | 3 |" in table


def test_the_pair_table_shows_order_host_factor_and_lateness(files) -> None:
    """A pair taken during a host spike shows in its lateness column."""
    write_runs(
        files[0], "serve_open", {"cpu_ms_per_op": [1.0, 1.0]},
        time=[10.0, 40.0], host_factor=[1.7, 1.8], late_p95_ms=[0.4, 0.5],
    )
    write_runs(
        files[1], "serve_open", {"cpu_ms_per_op": [1.0, 1.0]},
        time=[20.0, 30.0], host_factor=[1.75, 2.9], late_p95_ms=[0.45, 41.0],
        failed=[0, 2],
    )
    rows = bench_pairs.pair_table(*files)
    assert [(row["seed"], row["first"]) for row in rows] == [
        (100, "base"), (101, "change"),
    ]
    assert rows[1]["host"] == (1.8, 2.9) and rows[1]["late"] == (0.5, 41.0)
    table = bench_pairs.format_pairs(rows, markdown=True)
    assert "| serve_open | 101 | change | 1.80 | 2.90 FAILED | 0.50 | 41.00 |" in table
