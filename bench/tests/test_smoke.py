"""Every workload runs end to end and leaves no process behind; the pool
drivers run one thread."""

import json
import os
import subprocess
import sys
import threading
import uuid

import pytest

from mprbench import drive, proc, validate
from mprbench.inputs import build_inputs
from mprbench.spec import BY_NAME, WORKLOADS
from mprbench.trace import Tracer

MANIFEST = json.loads((validate.ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(proc.BENCH_DIR / "run.py")]


def _run(*args):
    """Run the benchmark's command; it must leave no process behind."""
    mark = f"MPRBENCH_TEST_RUN={uuid.uuid4().hex}"
    name, _, value = mark.partition("=")
    done = subprocess.run(
        [*RUN, *args], capture_output=True, text=True, timeout=170,
        cwd=proc.ROOT, env={**os.environ, name: value},
    )
    assert done.stdout, done.stderr
    assert _carrying(mark) == []
    return done.returncode, done.stdout.splitlines()


def _carrying(mark: str) -> list[int]:
    """Pids of live processes that inherited ``mark`` in their environment."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/environ", "rb") as handle:
                    if mark.encode() in handle.read().split(b"\0"):
                        found.append(int(entry))
            except OSError:
                pass
    return found


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_two_second_smoke(workload):
    code, lines = _run("--workload", workload, "--seed", "1", "--seconds", "2")
    result = json.loads(lines[-1])
    assert validate.check_result(MANIFEST, 0, lines[-1]) == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 100
    # Two seconds are too few for the thinnest percentile of the slowest
    # workload; the run must say so (exit 3, null), never guess.
    unsupported = [
        name for name, metric in result["metrics"].items()
        if metric["value"] is None
    ]
    assert code == (3 if unsupported else 0)
    assert set(unsupported) <= {"rq_p95_ms"}
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    assert printed == set(result["metrics"])


def test_traced_smoke_writes_spans_and_a_ladder_that_sums():
    code, lines = _run(
        "--workload", "pool_update_heavy", "--seed", "1", "--seconds", "3",
        "--trace", "1",
    )
    assert validate.check_result(MANIFEST, 1, lines[-1]) == []
    values = {
        name: metric["value"]
        for name, metric in json.loads(lines[-1])["metrics"].items()
    }
    assert code == 0 and None not in values.values()
    records = [
        json.loads(line) for line in
        (proc.BENCH_DIR / "out" / "trace-pool_update_heavy.jsonl").open()
    ]
    names = {record.get("name") for record in records}
    assert {"phase", "pool.chunk", "ladder", "ladder.served.call"} <= names
    spans = {r["span"]: r for r in records if "span" in r}
    assert all(
        r["parent"] is None or r["parent"] in spans for r in spans.values()
    )
    (rungs,) = [r["rungs_ms"] for r in records if r.get("event") == "ladder"]
    self_times = (
        values["mpr.process_executor.self_ms"] + values["mpr.api.pump_self_ms"]
        + values["serve.server.self_ms"]
    )
    assert rungs["solution"] + self_times == pytest.approx(rungs["served"])
    assert values["bench.trace_overhead_ratio"] > 0
    assert values["mpr.process_executor.respawns"] == 0


def test_pool_driver_adds_no_thread_to_the_callers():
    """The driver is the caller's thread and nothing else: in particular
    no generator thread and no completion pump share a GIL with the code
    under test.  (The pool's own ``multiprocessing.Queue`` feeders, one
    per worker, are the product's.)"""
    from repro.knn import DijkstraKNN
    from repro.mpr import MPRConfig, MPRSystem

    workload = BY_NAME["pool_update_heavy"]
    inputs = build_inputs(workload, 1, 2.0)
    seen: set[str] = set()

    class Watched:
        """``run_results`` is the only thing the driver calls."""

        def __init__(self, system):
            self.system = system

        def run_results(self, chunk):
            seen.update(thread.name for thread in threading.enumerate())
            return self.system.run_results(chunk)

    with MPRSystem(
        MPRConfig(*workload.shape), DijkstraKNN(inputs.network),
        inputs.initial_objects, mode="process",
    ) as system:
        (log,) = drive.drive_pool(
            workload, inputs.tasks, Watched(system),
            proc.TreeSampler.of_pool(system), 0.2, [(0.8, False)], Tracer(),
            [], {},
        )
        seen.update(thread.name for thread in threading.enumerate())
    assert log.ops > 1000 and log.failed == 0
    assert seen <= {"MainThread", "QueueFeederThread"}
