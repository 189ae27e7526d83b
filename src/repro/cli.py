"""Command-line interface: ``python -m repro.cli <command>``.

Gives the headline experiments and utilities a no-pytest entry point:

* ``case-study``      — Tables II & III (paper-parity simulation)
* ``configs``         — Figure 4's configuration sweep
* ``networks``        — Table I replica sizes + realism metrics
* ``profile``         — measure (tq, Vq, tu, Vu) of a solution on a replica
* ``plan``            — pick an MPR configuration for a given workload
* ``serve``           — serve an MPRSystem over TCP (repro.serve)
* ``stats``           — run a workload through the real pool with
                        telemetry: status tally, per-stage p50/p95/p99
                        from real traces, the calibrated machine model
* ``validate``        — sweep the model-validation grid (Eq. 5/7 vs
                        simulator and live pool) and report verdicts
* ``graph-cache``     — build or inspect an on-disk memmap graph cache
"""

from __future__ import annotations

import argparse
import math
import sys

from .graph import scaled_replica
from .graph.metrics import compute_metrics
from .harness import format_table
from .knn import SOLUTIONS, measure_profile, paper_profile
from .mpr import (
    MachineSpec,
    Objective,
    Scheme,
    Workload,
    configure_scheme,
    enumerate_configs,
    response_time,
)
from .workload import CASE_STUDY


def _case_study(args: argparse.Namespace) -> int:
    from .mpr import compare_schemes_response_time, compare_schemes_throughput

    profile = paper_profile("TOAIN", "BJ")
    machine = MachineSpec(total_cores=args.cores)
    workload = Workload(CASE_STUDY.lambda_q, CASE_STUDY.lambda_u)
    rt_records = compare_schemes_response_time(
        workload, profile, machine,
        scenario=CASE_STUDY.label, experiment="cli-case-study",
        duration=args.duration,
    )
    tp_records = compare_schemes_throughput(
        workload.lambda_u, profile, machine,
        scenario=CASE_STUDY.label, experiment="cli-case-study",
        duration=args.duration / 2,
    )
    throughput_by_scheme = {r.scheme: r.value for r in tp_records}
    rows = []
    for record in rt_records:
        config = record.config
        rows.append(
            [
                record.scheme,
                f"({config.x},{config.y},{config.z})",
                "Overload" if record.overloaded
                else f"{record.value * 1e6:,.0f} us",
                f"{throughput_by_scheme[record.scheme]:,.0f}",
            ]
        )
    print(
        format_table(
            ["scheme", "(x,y,z)", "Rq", "max throughput (q/s)"],
            rows,
            title=(
                f"Case study (BJ-RU, λq={CASE_STUDY.lambda_q:,.0f}, "
                f"λu={CASE_STUDY.lambda_u:,.0f}, {args.cores} cores)"
            ),
        )
    )
    if args.json:
        from .harness import save_records

        save_records(rt_records + tp_records, args.json)
        print(f"records written to {args.json}")
    return 0


def _frontier(args: argparse.Namespace) -> int:
    from .mpr import Scheme, configure_scheme, feasible_frontier

    profile = paper_profile(args.solution, args.network)
    machine = MachineSpec(total_cores=args.cores)
    choice = configure_scheme(
        Scheme.MPR, Workload(args.lambda_q, args.lambda_u), profile, machine
    )
    points = feasible_frontier(
        choice.config, profile, machine, rq_bound=args.rq_bound,
        num_points=args.points,
    )
    rows = [
        [f"{lq:,.0f}", f"{lu:,.0f}"] for lq, lu in points
    ]
    print(
        format_table(
            ["λq (q/s)", "max λu (u/s)"],
            rows,
            title=(
                f"Feasibility frontier of {choice.config} under "
                f"Rq* = {args.rq_bound*1e3:g} ms"
            ),
        )
    )
    return 0


def _configs(args: argparse.Namespace) -> int:
    profile = paper_profile("TOAIN", "BJ")
    machine = MachineSpec(total_cores=args.cores)
    workload = Workload(args.lambda_q, args.lambda_u)
    rows = []
    for config in enumerate_configs(args.cores, max_layers=5):
        predicted = response_time(config, workload, profile, machine)
        rows.append(
            [
                config.z, config.x, config.y, config.total_cores,
                "Overload" if math.isinf(predicted) else f"{predicted*1e6:,.0f}",
            ]
        )
    print(
        format_table(
            ["z", "x", "y", "cores", "model Rq (us)"],
            rows,
            title=f"MPR configuration space on {args.cores} cores",
        )
    )
    return 0


def _networks(args: argparse.Namespace) -> int:
    rows = []
    for symbol in ("NY", "NW", "BJ", "USA(E)", "USA(W)"):
        network = scaled_replica(symbol, scale=1.0 / args.inverse_scale)
        metrics = compute_metrics(network)
        rows.append(
            [
                symbol, metrics.num_nodes, metrics.num_edges,
                f"{metrics.average_degree:.2f}",
                f"{metrics.cut_fraction_4way:.3f}",
            ]
        )
    print(
        format_table(
            ["network", "nodes", "edges", "avg degree", "4-way cut fraction"],
            rows,
            title=f"Table I replicas at 1/{args.inverse_scale} scale",
        )
    )
    return 0


def _profile(args: argparse.Namespace) -> int:
    import random

    try:
        solution_cls = SOLUTIONS[args.solution]
    except KeyError:
        known = ", ".join(sorted(SOLUTIONS))
        print(f"unknown solution {args.solution!r}; known: {known}",
              file=sys.stderr)
        return 2
    network = scaled_replica(args.network, scale=1.0 / args.inverse_scale)
    rng = random.Random(args.seed)
    objects = {
        i: rng.randrange(network.num_nodes) for i in range(args.objects)
    }
    solution = solution_cls(network, objects)
    if hasattr(solution, "warm_caches"):
        solution.warm_caches()
    profile = measure_profile(
        solution, k=args.k, num_queries=args.samples,
        num_updates=args.samples, num_nodes=network.num_nodes,
    )
    print(
        format_table(
            ["solution", "network", "tq (us)", "γq", "tu (us)", "γu"],
            [[
                profile.name, network.name,
                f"{profile.tq*1e6:,.1f}", f"{profile.gamma_q:.2f}",
                f"{profile.tu*1e6:,.2f}", f"{profile.gamma_u:.2f}",
            ]],
            title="Measured algorithm profile",
        )
    )
    return 0


def _plan(args: argparse.Namespace) -> int:
    profile = paper_profile(args.solution, args.network)
    machine = MachineSpec(total_cores=args.cores)
    objective = (
        Objective.THROUGHPUT if args.objective == "throughput"
        else Objective.RESPONSE_TIME
    )
    choice = configure_scheme(
        Scheme.MPR, Workload(args.lambda_q, args.lambda_u), profile, machine,
        objective=objective,
    )
    config = choice.config
    unit = "q/s" if objective is Objective.THROUGHPUT else "s"
    value = (
        f"{choice.predicted_value:,.0f}" if objective is Objective.THROUGHPUT
        else (
            "Overload" if math.isinf(choice.predicted_value)
            else f"{choice.predicted_value*1e6:,.0f} us"
        )
    )
    print(
        f"MPR configuration: x={config.x} partitions, y={config.y} "
        f"replicas, z={config.z} layers "
        f"(workers={config.worker_cores}, total={config.total_cores} cores)"
    )
    print(f"predicted {choice.objective.value}: {value} {unit if objective is Objective.THROUGHPUT else ''}".rstrip())
    return 0


def _stats(args: argparse.Namespace) -> int:
    from collections import Counter

    from .graph import grid_network
    from .knn import profile_from_telemetry
    from .mpr import (
        MPRConfig,
        MPRSystem,
        ResilienceConfig,
        ResultStatus,
        Workload,
        response_time,
    )
    from .sim import machine_spec_from_telemetry
    from .workload import generate_workload

    try:
        solution_cls = SOLUTIONS[args.solution]
    except KeyError:
        known = ", ".join(sorted(SOLUTIONS))
        print(f"unknown solution {args.solution!r}; known: {known}",
              file=sys.stderr)
        return 2
    network = grid_network(args.grid, args.grid, seed=args.seed)
    workload = generate_workload(
        network, num_objects=args.objects, lambda_q=args.lambda_q,
        lambda_u=args.lambda_u, duration=args.duration, seed=args.seed,
        k=args.k,
    )
    config = MPRConfig(args.x, args.y, args.z)
    target = None
    if args.reconfigure is not None:
        try:
            x, y, z = (int(part) for part in args.reconfigure.split(","))
            target = MPRConfig(x, y, z)
        except ValueError as exc:
            print(f"bad --reconfigure shape: {exc}", file=sys.stderr)
            return 2
    resilience = None
    if args.deadline is not None or args.max_outstanding is not None:
        resilience = ResilienceConfig(
            default_deadline=args.deadline,
            max_outstanding=args.max_outstanding,
        )
    with MPRSystem(
        config, solution_cls(network), workload.initial_objects,
        mode=args.mode, batch_size=args.batch_size, resilience=resilience,
    ) as system:
        if target is not None:
            # Reconfigure live, with the first half of the stream still
            # in flight — the second half is routed by the new shape.
            half = len(workload.tasks) // 2
            in_flight = [
                system.submit_async(task) for task in workload.tasks[:half]
            ]
            system.reconfigure(target, trigger="cli")
            results = system.run_results(workload.tasks[half:])
            for future in in_flight:
                result = future.result()
                if result is not None:  # updates resolve to None
                    results[result.query_id] = result
        else:
            results = system.run_results(workload.tasks)
    telemetry = system.telemetry
    by_status = Counter(result.status for result in results.values())
    print(
        f"{args.mode} executor "
        f"{system.config.describe()} answered "
        f"{len(results)} queries on grid {args.grid}x{args.grid} "
        f"(ok/partial/overloaded {by_status[ResultStatus.OK]}/"
        f"{by_status[ResultStatus.PARTIAL]}/"
        f"{by_status[ResultStatus.OVERLOADED]})"
    )
    metrics = system.executor.metrics
    print(f"mean batch size {metrics.mean_batch_size:.1f} ops, "
          f"{metrics.queries_per_sweep:.1f} queries per sweep")
    print()
    print(system.report())
    spec = machine_spec_from_telemetry(telemetry, total_cores=args.cores)
    print()
    print(
        f"calibrated machine model: τ'={spec.queue_write_time*1e6:.1f} us, "
        f"merge={spec.merge_time*1e6:.1f} us, "
        f"dispatch={spec.dispatch_time*1e6:.1f} us"
    )
    try:
        profile = profile_from_telemetry(telemetry, name=args.solution)
    except ValueError:
        return 0
    print(
        f"measured profile: tq={profile.tq*1e6:,.1f} us (γq="
        f"{profile.gamma_q:.2f}), tu={profile.tu*1e6:,.2f} us "
        f"(γu={profile.gamma_u:.2f})"
    )
    predicted = response_time(
        config, Workload(args.lambda_q, args.lambda_u), profile, spec
    )
    observed = telemetry.stage_stats("response")
    if observed and not math.isinf(predicted):
        print(
            f"model Rq from measured profile: {predicted*1e6:,.0f} us; "
            f"observed end-to-end p50: {observed['p50']*1e6:,.0f} us"
        )
    return 0


def _validate(args: argparse.Namespace) -> int:
    import json

    from .validation import run_validation, write_report

    if args.no_sim and args.no_live:
        print("nothing to run: both --no-sim and --no-live given",
              file=sys.stderr)
        return 2
    report = run_validation(
        include_sim=not args.no_sim, include_live=not args.no_live
    )
    print(report.format_table())
    if not args.no_artifacts:
        json_path, txt_path = write_report(report, "benchmarks/results")
        print(f"artifacts: {json_path}, {txt_path}")
    anomalies = sum(c.anomalies for c in report.cells_for("live"))
    if anomalies:
        print(
            f"live sweep: {anomalies} queries returned non-OK "
            "QueryResult envelopes (shed/degraded/lost)"
        )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.json}")
    for check in (*report.cells, *report.throughput):
        if not check.passed:
            print(f"out of tolerance: {check.detail or check}")
    return 0 if report.ok else 1


def _serve(args: argparse.Namespace) -> int:
    import asyncio
    import random

    from .graph import grid_network
    from .mpr import MPRConfig, MPRSystem, ResilienceConfig
    from .serve import MPRServer, ServeConfig

    try:
        solution_cls = SOLUTIONS[args.solution]
    except KeyError:
        known = ", ".join(sorted(SOLUTIONS))
        print(f"unknown solution {args.solution!r}; known: {known}",
              file=sys.stderr)
        return 2
    ch = None
    if args.graph_cache is not None:
        from .graph import open_cache
        from .graph.cache import cache_has_ch, load_cached_ch

        network = open_cache(args.graph_cache)
        if cache_has_ch(args.graph_cache):
            ch = load_cached_ch(network)
    else:
        network = grid_network(args.grid, args.grid, seed=args.seed)
    solution_kwargs = {}
    index_tier = "none (plain graph expansion)"
    if ch is not None:
        import inspect as _inspect

        if "ch" in _inspect.signature(solution_cls.__init__).parameters:
            solution_kwargs["ch"] = ch
            index_tier = "contraction hierarchy (cached)"
        else:
            index_tier = (
                f"none ({args.solution} takes no contraction hierarchy; "
                "cached CH ignored)"
            )
    print(f"attached index tier: {index_tier}")
    rng = random.Random(args.seed)
    objects = {
        i: rng.randrange(network.num_nodes) for i in range(args.objects)
    }
    config = MPRConfig(args.x, args.y, args.z)
    resilience = None
    if args.deadline is not None or args.max_outstanding is not None:
        resilience = ResilienceConfig(
            default_deadline=args.deadline,
            max_outstanding=args.max_outstanding,
        )
    system = MPRSystem(
        config, solution_cls(network, **solution_kwargs), objects,
        mode=args.mode, resilience=resilience, batch_size=args.batch_size,
    )
    serve_config = ServeConfig(
        host=args.host, port=args.port,
        max_inflight=args.max_inflight, window=args.window,
        default_deadline=args.deadline,
    )

    async def run_server() -> None:
        server = MPRServer(system, serve_config)
        await server.start()
        host, port = server.address
        source = (
            f"cache {args.graph_cache}" if args.graph_cache is not None
            else f"grid {args.grid}x{args.grid}"
        )
        print(
            f"serving {config.describe()} ({args.mode} mode, "
            f"{args.objects} objects on {source}) "
            f"on {host}:{port} — Ctrl-C to stop"
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
            print()
            stats = server.stats()
            for key, value in sorted(stats["counters"].items()):
                print(f"  {key}: {value}")

    try:
        asyncio.run(run_server())
    except KeyboardInterrupt:
        pass
    finally:
        system.close()
    return 0


def _graph_cache(args: argparse.Namespace) -> int:
    import time

    from .graph import grid_network, load_dimacs, open_cache
    from .graph.cache import CacheError, cache_info

    if args.action == "build":
        if args.gr is not None:
            network = load_dimacs(args.gr, args.co)
        else:
            network = grid_network(args.grid, args.grid, seed=args.seed)
        start = time.perf_counter()
        meta = network.save_cache(args.directory)
        elapsed = time.perf_counter() - start
        print(
            f"cached {meta.name!r} ({meta.num_nodes:,} nodes, "
            f"{meta.num_arcs:,} arcs) into {meta.directory} "
            f"in {elapsed:.2f}s"
        )
        print(f"content hash: {meta.content_hash}")
        if args.ch:
            from .graph.cache import save_ch_cache
            from .graph.ch import ContractionHierarchy

            cached = open_cache(args.directory)
            start = time.perf_counter()
            ch = ContractionHierarchy(cached, workers=args.workers)
            build_s = time.perf_counter() - start
            start = time.perf_counter()
            ch_meta = save_ch_cache(ch, args.directory,
                                    label_core=args.ch_label_core)
            save_s = time.perf_counter() - start
            print(
                f"contraction hierarchy: {ch_meta.num_shortcuts:,} "
                f"shortcuts, exact={ch_meta.exact}, built in {build_s:.2f}s, "
                f"persisted in {save_s:.2f}s"
                + (f" (core labels: {ch_meta.label_core:,} nodes)"
                   if ch_meta.label_core else "")
            )
            print(f"ch content hash: {ch_meta.content_hash}")
        return 0

    try:
        info = cache_info(args.directory)
        start = time.perf_counter()
        network = open_cache(args.directory, verify=args.verify)
        attach = time.perf_counter() - start
    except CacheError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    rows = [
        [entry["file"], entry["dtype"], "x".join(map(str, entry["shape"])),
         f"{entry['bytes_on_disk']:,}"]
        for entry in info["files"].values()
    ]
    rows.append(["total", "", "", f"{info['total_bytes']:,}"])
    print(
        format_table(
            ["file", "dtype", "shape", "bytes"],
            rows,
            title=(
                f"Graph cache {info['directory']} — {info['name']!r}, "
                f"{info['num_nodes']:,} nodes, {info['num_arcs']:,} arcs"
            ),
        )
    )
    verified = "verified" if args.verify else "recorded"
    print(f"{verified} content hash: {info['content_hash']}")
    print(
        f"attach ({'full hash' if args.verify else 'structural checks'}): "
        f"{attach*1e3:.1f} ms; network: {network.num_nodes:,} nodes, "
        f"mirrors guarded: {not network.mirrors_allowed}"
    )
    ch_section = info.get("ch")
    if isinstance(ch_section, dict):
        rows = [
            [entry["file"], entry["dtype"],
             "x".join(map(str, entry["shape"])),
             f"{entry['bytes_on_disk']:,}"]
            for entry in ch_section["files"].values()
        ]
        rows.append(["total", "", "", f"{ch_section['total_bytes']:,}"])
        state = "STALE (graph rewritten)" if ch_section.get("stale") else "ok"
        print(
            format_table(
                ["file", "dtype", "shape", "bytes"],
                rows,
                title=(
                    f"CH artifacts — {ch_section['num_shortcuts']:,} "
                    f"shortcuts, exact={ch_section['exact']}, "
                    f"builder={ch_section.get('builder', '?')}, "
                    f"label_core={ch_section.get('label_core', 0):,}, "
                    f"{state}"
                ),
            )
        )
        print(f"ch content hash: {ch_section['content_hash']}")
    else:
        print("no persisted contraction hierarchy (build with --ch)")
    return 0


def _at_least(
    kind: type, low: float, exclusive: bool = True, at_most: float = math.inf
):
    """An argparse ``type``: ``kind(text)``, refused (one ``error:``
    line, exit 2) unless finite, above ``low`` (or at it, if not
    ``exclusive``) and at most ``at_most``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__}, got {text!r}"
            ) from None
        if not (value > low if exclusive else value >= low):  # NaN too
            raise argparse.ArgumentTypeError(
                f"must be {'>' if exclusive else '>='} {low}, got {text}"
            )
        if value == math.inf or value > at_most:
            bound = "finite" if at_most == math.inf else f"<= {at_most}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


_POSITIVE_INT = _at_least(int, 0)
_POSITIVE_FLOAT = _at_least(float, 0.0)
#: A rate: finite and >= 0.
_RATE = _at_least(float, 0.0, exclusive=False)
#: A core budget: the dispatcher plus at least one w-core.
_CORES = _at_least(int, 2, exclusive=False)


def build_parser() -> argparse.ArgumentParser:
    from .graph.kernels import QUERIES_PER_SWEEP

    parser = argparse.ArgumentParser(
        prog="repro", description="MPR reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    case = sub.add_parser("case-study", help="Tables II & III")
    case.add_argument("--cores", type=_CORES, default=19)
    case.add_argument("--duration", type=float, default=1.0)
    case.add_argument("--json", help="also write records to this JSON file")
    case.set_defaults(func=_case_study)

    frontier = sub.add_parser(
        "frontier", help="(λq, λu) feasibility frontier of the MPR pick"
    )
    frontier.add_argument("--solution", default="TOAIN")
    frontier.add_argument("--network", default="BJ")
    frontier.add_argument("--cores", type=_CORES, default=19)
    frontier.add_argument("--lambda-q", type=_RATE, default=10_000.0)
    frontier.add_argument("--lambda-u", type=_RATE, default=10_000.0)
    frontier.add_argument("--rq-bound", type=float, default=0.001)
    frontier.add_argument("--points", type=_at_least(int, 2, exclusive=False),
                          default=7)
    frontier.set_defaults(func=_frontier)

    configs = sub.add_parser("configs", help="Figure 4 configuration space")
    configs.add_argument("--cores", type=_CORES, default=19)
    configs.add_argument("--lambda-q", type=_RATE, default=15_000.0)
    configs.add_argument("--lambda-u", type=_RATE, default=50_000.0)
    configs.set_defaults(func=_configs)

    networks = sub.add_parser("networks", help="Table I replicas + metrics")
    networks.add_argument("--inverse-scale", type=_POSITIVE_INT, default=400)
    networks.set_defaults(func=_networks)

    profile = sub.add_parser("profile", help="measure a solution's profile")
    profile.add_argument("solution", choices=sorted(SOLUTIONS))
    profile.add_argument("--network", default="NY")
    profile.add_argument("--inverse-scale", type=_POSITIVE_INT, default=400)
    profile.add_argument("--objects", type=int, default=100)
    profile.add_argument("--samples", type=int, default=20)
    profile.add_argument("--k", type=int, default=10)
    profile.add_argument("--seed", type=int, default=0)
    profile.set_defaults(func=_profile)

    plan = sub.add_parser("plan", help="pick an MPR configuration")
    plan.add_argument("--solution", default="TOAIN")
    plan.add_argument("--network", default="BJ")
    plan.add_argument("--cores", type=_CORES, default=19)
    plan.add_argument("--lambda-q", type=_RATE, required=True)
    plan.add_argument("--lambda-u", type=_RATE, required=True)
    plan.add_argument(
        "--objective", choices=("response-time", "throughput"),
        default="response-time",
    )
    plan.set_defaults(func=_plan)

    stats = sub.add_parser(
        "stats", help="per-stage latency percentiles from a traced run"
    )
    stats.add_argument("--mode", choices=("thread", "process"),
                       default="process")
    stats.add_argument("--solution", default="Dijkstra")
    stats.add_argument("--grid", type=_POSITIVE_INT, default=12,
                       help="grid network side length")
    stats.add_argument("--x", type=_POSITIVE_INT, default=2)
    stats.add_argument("--y", type=_POSITIVE_INT, default=2)
    stats.add_argument("--z", type=_POSITIVE_INT, default=1)
    stats.add_argument("--batch-size", type=_POSITIVE_INT,
                       default=QUERIES_PER_SWEEP)
    stats.add_argument("--objects", type=_POSITIVE_INT, default=30)
    stats.add_argument("--lambda-q", type=_RATE, default=200.0)
    stats.add_argument("--lambda-u", type=_RATE, default=100.0)
    stats.add_argument("--duration", type=_POSITIVE_FLOAT, default=1.0)
    stats.add_argument("--k", type=_at_least(int, 0, exclusive=False),
                       default=5)
    stats.add_argument(
        "--reconfigure", metavar="X,Y,Z",
        help="reconfigure the pool to this shape live, halfway through "
             "the stream; the history prints after",
    )
    stats.add_argument("--cores", type=_CORES, default=19,
                       help="core budget of the calibrated machine model")
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--deadline", type=float, default=None,
        help="per-query SLO in seconds (enables the resilience layer)",
    )
    stats.add_argument(
        "--max-outstanding", type=_POSITIVE_INT, default=None,
        help="admission bound per worker (enables the resilience layer)",
    )
    stats.set_defaults(func=_stats)

    validate = sub.add_parser(
        "validate", help="model-validation sweep (Eq. 5/7 vs measurement)"
    )
    validate.add_argument("--no-sim", action="store_true",
                          help="skip the simulator sweep")
    validate.add_argument("--no-live", action="store_true",
                          help="skip the live process-pool sweep")
    validate.add_argument("--json", help="write the report to this JSON file")
    validate.add_argument(
        "--no-artifacts", action="store_true",
        help="do not write benchmarks/results/validation.{json,txt} "
             "(relative to the working directory)",
    )
    validate.set_defaults(func=_validate)

    serve = sub.add_parser(
        "serve", help="serve an MPRSystem over TCP (repro.serve protocol)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_at_least(int, 0, exclusive=False, at_most=65535),
        default=7474,
    )
    serve.add_argument("--mode", choices=("thread", "process"),
                       default="thread")
    serve.add_argument("--solution", default="Dijkstra")
    serve.add_argument("--grid", type=_POSITIVE_INT, default=24,
                       help="grid network side length")
    serve.add_argument("--x", type=_POSITIVE_INT, default=2)
    serve.add_argument("--y", type=_POSITIVE_INT, default=1)
    serve.add_argument("--z", type=_POSITIVE_INT, default=1)
    serve.add_argument("--batch-size", type=_POSITIVE_INT,
                       default=QUERIES_PER_SWEEP)
    serve.add_argument("--objects", type=_POSITIVE_INT, default=100)
    serve.add_argument("--window", type=_POSITIVE_INT, default=32,
                       help="default per-connection backpressure window")
    serve.add_argument("--max-inflight", type=_POSITIVE_INT, default=512,
                       help="global bound on ops inside the executor")
    serve.add_argument(
        "--deadline", type=float, default=None,
        help="default per-query SLO in seconds (enables resilience)",
    )
    serve.add_argument(
        "--max-outstanding", type=_POSITIVE_INT, default=None,
        help="admission bound per worker (enables resilience)",
    )
    serve.add_argument(
        "--graph-cache", metavar="DIR",
        help="serve a cache-attached network from this directory; a "
             "persisted contraction hierarchy is attached automatically "
             "when the cache carries one",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=_serve)

    cache = sub.add_parser(
        "graph-cache", help="build or inspect an on-disk memmap graph cache"
    )
    cache.add_argument("action", choices=("build", "inspect"))
    cache.add_argument("directory", help="cache directory")
    cache.add_argument("--gr", help="DIMACS .gr file to build from")
    cache.add_argument("--co", help="DIMACS .co file (with --gr)")
    cache.add_argument("--grid", type=int, default=64,
                       help="grid side length when building without --gr")
    cache.add_argument("--seed", type=int, default=0)
    cache.add_argument(
        "--verify", action="store_true",
        help="inspect: re-hash the array files instead of O(1) checks",
    )
    cache.add_argument(
        "--ch", action="store_true",
        help="build: also contract and persist a hierarchy",
    )
    cache.add_argument(
        "--ch-label-core", type=int, default=0, metavar="N",
        help="with --ch: prebuild hub labels for the N top-ranked nodes",
    )
    cache.add_argument(
        "--workers", type=int, default=None,
        help="with --ch: witness-search worker processes",
    )
    cache.set_defaults(func=_graph_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
