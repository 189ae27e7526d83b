"""mprbench: one run of one workload.

    python3 bench/run.py --workload W --seed S --seconds 20 --trace 0|1

``--trace 0`` measures the end-to-end metrics on the product's shipped
defaults; ``--trace 1`` measures the per-layer metrics (a shorter phase
with bench-side spans, the layer ladder, the single-function probes) and
writes ``bench/out/trace-<workload>.jsonl``.  Either way the run checks
its answers against an oracle, prints every metric by name with its
unit, and ends with one JSON line.  Exit codes: 0 fine, 1 a failed
operation or wrong answer, 3 a metric without enough samples.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

from mprbench import proc  # noqa: E402
from mprbench.spec import (  # noqa: E402
    BY_NAME,
    END_TO_END,
    K,
    PER_LAYER,
    SETUP_LAUNCHES,
    UNITS,
    WARMUP_SECONDS,
)


#: Set in the environment of the measuring child of :func:`proc.supervise`.
SUPERVISED = "MPRBENCH_SUPERVISED"


def parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--append", metavar="FILE",
        help="also append the result line to FILE (JSON lines, for "
        "bench/compare.py)",
    )
    return parser.parse_args()


def run(args: argparse.Namespace) -> tuple[dict, dict, dict]:
    """Measure; returns ``(result, metrics, info)``: ``None`` for a metric
    the samples do not support, and what a reader needs to judge the run
    (the phase's host factor, the generator's lateness)."""
    from repro.knn import DijkstraKNN
    from repro.mpr import MPRConfig, MPRSystem
    from repro.objects.tasks import TaskKind

    from mprbench import drive, host, layers, metrics, oracle, stats
    from mprbench.inputs import build_inputs
    from mprbench.trace import Tracer

    workload = BY_NAME[args.workload]
    traced = bool(args.trace)
    tracer = Tracer()
    # A traced run measures an untraced and a traced phase of a third of
    # the length each, back to back: their throughput ratio is the
    # tracing overhead.
    phases = (
        [(args.seconds / 3, False), (args.seconds / 3, True)] if traced
        else [(args.seconds, False)]
    )
    duration = WARMUP_SECONDS + sum(seconds for seconds, _ in phases)
    inputs = build_inputs(workload, args.seed, duration + 0.5)
    # The stream is the benchmark's, not the product's: keep its ~10^5
    # objects out of every later collection in the process under test.
    gc.collect()
    gc.freeze()
    calib_before = host.probe_mean(20)

    # Set-up is timed over fresh launches, a burst of host-speed probes
    # before each; a served run's last launch stays up as the target.  A
    # traced run only reads the set-up steps of the launches it needs
    # anyway (its target and the ladder's).
    launches: list[proc.Target] = []
    setup_probes: list[float] = []

    def launch() -> proc.Target:
        setup_probes.append(host.probe_mean(20))
        launches.append(proc.Target(workload.name, workload.served))
        return launches[-1]

    for _ in range(0 if traced else SETUP_LAUNCHES - workload.served):
        launch().stop()
    checked = mismatches = 0
    if workload.served:
        with launch() as target:
            sampler = proc.TreeSampler(target.pid, target.worker_pids)
            updates = [
                task for task in inputs.tasks
                if task.kind is not TaskKind.QUERY
            ]

            async def after(clients, applied):
                probe = oracle.fresh_queries(inputs.network, args.seed)
                answers = [
                    (location, await clients[index % 2].query(location, K))
                    for index, location in enumerate(probe)
                ]
                return oracle.end_state(
                    inputs.network, inputs.initial_objects,
                    updates[:applied], answers,
                )

            before = target.stats() if traced else None
            logs, (checked, mismatches) = asyncio.run(drive.drive_served(
                workload, inputs.tasks, target.port, sampler,
                WARMUP_SECONDS, phases, tracer, after,
            ))
            ledgers = (before, target.stats()) if traced else None
    else:
        system = MPRSystem(
            MPRConfig(*workload.shape), DijkstraKNN(inputs.network),
            inputs.initial_objects, mode="process",
        )
        with system:
            sampler = proc.TreeSampler.of_pool(system)
            submitted: list = []
            sampled: dict = {}
            before = proc.ledgers(system) if traced else None
            logs = drive.drive_pool(
                workload, inputs.tasks, system, sampler, WARMUP_SECONDS,
                phases, tracer, submitted, sampled,
            )
            ledgers = (before, proc.ledgers(system)) if traced else None
        checked, mismatches = oracle.replay(
            inputs.network, inputs.initial_objects, submitted, sampled
        )
    calib_after = host.probe_mean(20)

    log = logs[-1]
    if traced:
        out = BENCH_DIR / "out"
        values = layers.per_layer(
            workload, inputs, args.seed, logs, ledgers, launches, tracer,
            (calib_before, calib_after), out,
        )
        tracer.write(out / f"trace-{workload.name}.jsonl")
    else:
        setup_factor = statistics.fmean(setup_probes) / host.PROBE_REF_MS
        setup_s = statistics.median(launch.setup_s for launch in launches)
        values = metrics.end_to_end(log, workload, setup_s / setup_factor)
    failed = sum(phase.failed for phase in logs) + mismatches
    result = {
        "correct": failed == 0,
        "attempted": sum(phase.ops for phase in logs) + checked,
        "failed": failed,
    }
    late = sorted(log.late_ms)
    info = {
        "host_factor": host.Factors(log.probes).overall,
        "late_p95_ms": stats.percentile(late, 0.95) if late else 0.0,
    }
    return result, values, info


def main() -> int:
    args = parse()
    if SUPERVISED not in os.environ:
        # The measuring process is a child with the run's environment;
        # this one only sees to it that nothing outlives the run.
        return proc.supervise(
            [sys.executable, *sys.argv], {**proc.child_env(), SUPERVISED: "1"}
        )
    try:
        import repro  # noqa: F401
    except ImportError as error:
        sys.exit(f"mprbench: the product is not importable from {SRC}: {error}")
    started = time.perf_counter()
    result, values, info = run(args)
    names = [row[0] for row in (PER_LAYER if args.trace else END_TO_END)]
    for name in names:
        value = values[name]
        shown = "unsupported" if value is None else f"{value:.6g}"
        print(f"{name:45s} {shown:>14s} {UNITS[name]}")
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {result['attempted']} operations, "
        f"{result['failed']} failed, host factor {info['host_factor']:.3f}, "
        f"generator late p95 {info['late_p95_ms']:.2f} ms, "
        f"{time.perf_counter() - started:.1f} s"
    )
    result["metrics"] = {
        name: {"value": values[name], "unit": UNITS[name]} for name in names
    }
    line = json.dumps(result)
    if args.append:
        with open(args.append, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "time": time.time(), **info, **result,
            }) + "\n")
    print(line)
    if not result["correct"]:
        return 1
    if any(values[name] is None for name in names):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
