"""Serve-tier load test: thousands of concurrent clients on one server.

Drives an :class:`repro.serve.MPRServer` (thread-mode ``MPRSystem``
underneath) with non-stationary per-client arrival processes from the
workload tier — rush-hour sinusoids for the paying tenants and a
flash-crowd spike train for the bulk tier — and measures what the
serving layer promises:

* throughput (qps) and client-observed latency (p50/p99),
* shed rate: ``OVERLOADED`` verdicts arriving as *retryable* protocol
  errors with backoff hints rather than hangs or connection drops,
* per-tenant weighted fairness (completed work per unit weight),
* deadline propagation: a slice of queries carries a tight client
  deadline, and the executor's ``resilience.deadline_misses`` counter
  must move,
* zero hangs: every RPC settles within its watchdog.

Artifacts: ``benchmarks/results/serve.{json,txt}``.

    PYTHONPATH=src python tools/serve_loadtest.py             # 1000 clients
    PYTHONPATH=src python tools/serve_loadtest.py --smoke     # CI-sized
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.graph import grid_network                     # noqa: E402
from repro.knn import DijkstraKNN                        # noqa: E402
from repro.mpr import (                                  # noqa: E402
    MPRConfig,
    MPRSystem,
    ResilienceConfig,
    ResultStatus,
)
from repro.serve import MPRServer, ServeClient, ServeConfig  # noqa: E402
from repro.workload.processes import (                   # noqa: E402
    SinusoidRate,
    Spike,
    SpikeTrain,
)

#: (name, SFQ weight, share of the client population)
TENANTS = (("gold", 4.0), ("silver", 2.0), ("bronze", 1.0))

#: Every Nth query carries this (unmeetable-under-load) client deadline
#: so deadline propagation is observable in the miss counters.
DEADLINE_EVERY = 8
TIGHT_DEADLINE = 0.002

WATCHDOG = 60.0  # per-RPC settle bound; a breach counts as a hang


def raise_nofile_limit(target: int = 16384) -> int | None:
    """Best-effort bump of RLIMIT_NOFILE (two fds per loopback client)."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        wanted = min(target, hard) if hard > 0 else target
        if soft < wanted:
            resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))
        return resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    except (ImportError, ValueError, OSError):
        return None


def tenant_plan(clients: int) -> list[tuple[str, float]]:
    """One (tenant, weight) entry per client, tenants evenly split."""
    per = clients // len(TENANTS)
    plan = []
    for name, weight in TENANTS:
        plan.extend([(name, weight)] * per)
    while len(plan) < clients:  # remainder lands in the bulk tier
        plan.append(TENANTS[-1][:2])
    return plan


def arrival_process(tenant: str, per_client_rate: float, duration: float):
    """Non-stationary arrivals: sinusoid rush hours for the paying
    tenants, a mid-run flash crowd for the bulk tier."""
    if tenant == "bronze":
        return SpikeTrain(
            base_rate=per_client_rate * 0.6,
            spikes=(Spike(duration * 0.45, duration * 0.2, 6.0),),
        )
    phase = 0.0 if tenant == "gold" else duration / 2
    return SinusoidRate(
        base_rate=per_client_rate, amplitude=0.8,
        period=duration, phase=phase,
    )


async def run_client(
    index: int,
    tenant: str,
    weight: float,
    host: str,
    port: int,
    duration: float,
    per_client_rate: float,
    num_nodes: int,
    k: int,
    seed: int,
    gate: asyncio.Event,
    epoch: dict,
    records: list,
    hangs: list,
):
    rng = random.Random(seed * 100_003 + index)
    times = arrival_process(tenant, per_client_rate, duration).sample(
        duration, rng
    )
    client = await ServeClient.connect(
        host, port, tenant=tenant, weight=weight, window=64
    )
    try:
        await gate.wait()
        for seq, planned in enumerate(times):
            now = time.monotonic() - epoch["t0"]
            if planned > now:
                await asyncio.sleep(planned - now)
            deadline = TIGHT_DEADLINE if seq % DEADLINE_EVERY == 0 else None
            started = time.monotonic()
            try:
                result = await asyncio.wait_for(
                    client.query(
                        rng.randrange(num_nodes), k, deadline=deadline
                    ),
                    timeout=WATCHDOG,
                )
            except asyncio.TimeoutError:
                hangs.append((tenant, index, seq))
                return
            records.append(
                (tenant, result.status, time.monotonic() - started,
                 result.retry_after)
            )
    finally:
        await client.aclose()


async def run_load(args) -> dict:
    network = grid_network(args.grid, args.grid, seed=args.seed)
    rng = random.Random(args.seed)
    objects = {
        i: rng.randrange(network.num_nodes) for i in range(args.objects)
    }
    system = MPRSystem(
        MPRConfig(args.x, args.y, args.z),
        DijkstraKNN(network),
        objects,
        resilience=ResilienceConfig(max_outstanding=args.max_outstanding),
    )
    server = MPRServer(
        system,
        ServeConfig(port=0, max_inflight=args.max_inflight, window=64),
    )
    await server.start()
    host, port = server.address

    plan = tenant_plan(args.clients)
    per_client_rate = args.qps / args.clients
    gate = asyncio.Event()
    epoch: dict = {}
    records: list = []
    hangs: list = []

    tasks = [
        asyncio.ensure_future(run_client(
            index, tenant, weight, host, port, args.duration,
            per_client_rate, network.num_nodes, args.k, args.seed,
            gate, epoch, records, hangs,
        ))
        for index, (tenant, weight) in enumerate(plan)
    ]
    # Stagger nothing: clients connect concurrently, then the clock
    # starts for everyone at once.
    while server.counters["connections"] < args.clients:
        await asyncio.sleep(0.05)
    connect_done = time.monotonic()
    epoch["t0"] = connect_done
    gate.set()

    await asyncio.wait_for(
        asyncio.gather(*tasks), timeout=args.duration + 4 * WATCHDOG
    )
    wall = time.monotonic() - connect_done
    stats = server.stats()
    await server.stop()
    misses = system.telemetry.counters.get("resilience.deadline_misses", 0)
    shed_counter = system.telemetry.counters.get("resilience.shed", 0)
    system.close()

    by_status: dict[str, int] = {}
    latencies_ok = []
    retry_hints = 0
    for _tenant, status, latency, retry_after in records:
        by_status[status.value] = by_status.get(status.value, 0) + 1
        if status in (ResultStatus.OK, ResultStatus.PARTIAL):
            latencies_ok.append(latency)
        elif retry_after is not None:
            retry_hints += 1
    completed = len(records)
    shed = by_status.get("overloaded", 0)

    def pct(values, q):
        if not values:
            return None
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    per_tenant: dict[str, dict] = {}
    tenant_counts: dict[str, int] = {}
    for tenant, _weight in plan:
        tenant_counts[tenant] = tenant_counts.get(tenant, 0) + 1
    for name, weight in TENANTS:
        done = stats["tenants"].get(name, 0)
        per_tenant[name] = {
            "clients": tenant_counts.get(name, 0),
            "weight": weight,
            "completed": done,
            "per_weight": round(done / weight, 1),
        }
    normalized = [
        row["per_weight"] for row in per_tenant.values()
        if row["per_weight"] > 0
    ]
    spread = (
        round(max(normalized) / min(normalized), 3) if normalized else None
    )

    return {
        "clients": args.clients,
        "duration_s": round(wall, 2),
        "grid": f"{args.grid}x{args.grid}",
        "config": [args.x, args.y, args.z],
        "max_outstanding": args.max_outstanding,
        "max_inflight": args.max_inflight,
        "offered_qps": args.qps,
        "completed": completed,
        "qps": round(completed / wall, 1) if wall > 0 else None,
        "p50_ms": round(1e3 * pct(latencies_ok, 0.50), 2)
        if latencies_ok else None,
        "p99_ms": round(1e3 * pct(latencies_ok, 0.99), 2)
        if latencies_ok else None,
        "by_status": by_status,
        "shed": shed,
        "shed_rate": round(shed / completed, 4) if completed else None,
        "shed_with_retry_hint": retry_hints,
        "executor_shed_counter": shed_counter,
        "deadline_misses": misses,
        "fairness": per_tenant,
        "fairness_spread": spread,
        "hangs": len(hangs),
        "server_counters": stats["counters"],
    }


def format_text(result: dict) -> str:
    lines = [
        "serve load test",
        "===============",
        f"clients            {result['clients']}",
        f"duration           {result['duration_s']} s",
        f"grid / config      {result['grid']} / "
        f"{tuple(result['config'])}",
        f"completed          {result['completed']} "
        f"({result['qps']} qps, offered {result['offered_qps']})",
        f"latency p50/p99    {result['p50_ms']} / {result['p99_ms']} ms",
        f"shed               {result['shed']} "
        f"(rate {result['shed_rate']}, "
        f"{result['shed_with_retry_hint']} with retry hints)",
        f"deadline misses    {result['deadline_misses']}",
        f"hangs              {result['hangs']}",
        "",
        "tenant     clients  weight  completed  per-weight",
    ]
    for name, row in result["fairness"].items():
        lines.append(
            f"{name:<10} {row['clients']:>7}  {row['weight']:>6}  "
            f"{row['completed']:>9}  {row['per_weight']:>10}"
        )
    lines.append(f"fairness spread    {result['fairness_spread']}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="thousands-of-clients load test for repro.serve"
    )
    parser.add_argument("--clients", type=int, default=1000)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="measured window in seconds")
    parser.add_argument("--qps", type=float, default=2000.0,
                        help="offered load across all clients")
    parser.add_argument("--grid", type=int, default=16)
    parser.add_argument("--objects", type=int, default=200)
    parser.add_argument("--x", type=int, default=2)
    parser.add_argument("--y", type=int, default=2)
    parser.add_argument("--z", type=int, default=1)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--max-outstanding", type=int, default=64,
                        help="admission bound (spikes beyond it shed)")
    parser.add_argument("--max-inflight", type=int, default=256)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 90 clients, 2s")
    parser.add_argument("--no-artifacts", action="store_true",
                        help="do not touch benchmarks/results/")
    args = parser.parse_args(argv)
    if args.smoke:
        args.clients = min(args.clients, 90)
        args.duration = min(args.duration, 2.0)
        args.qps = min(args.qps, 400.0)

    limit = raise_nofile_limit()
    if limit is not None and limit < 2 * args.clients + 64:
        print(f"warning: RLIMIT_NOFILE={limit} may be too low for "
              f"{args.clients} loopback clients", file=sys.stderr)

    started = time.perf_counter()
    result = asyncio.run(run_load(args))
    elapsed = time.perf_counter() - started

    text = format_text(result)
    print(text)
    if not args.no_artifacts:
        out = ROOT / "benchmarks" / "results"
        out.mkdir(parents=True, exist_ok=True)
        (out / "serve.json").write_text(
            json.dumps(result, indent=2) + "\n"
        )
        (out / "serve.txt").write_text(text)
        print(f"artifacts: {out / 'serve.json'}, {out / 'serve.txt'}")

    problems = []
    if result["hangs"]:
        problems.append(f"{result['hangs']} RPCs hung past the watchdog")
    if not result["completed"]:
        problems.append("no queries completed")
    if result["shed"] and not result["shed_with_retry_hint"]:
        problems.append("shed queries arrived without retry hints")
    if result["deadline_misses"] == 0 and result["completed"] > 100:
        problems.append(
            "tight client deadlines never missed — deadline propagation "
            "looks broken"
        )
    if problems:
        print(f"load test FAILED ({elapsed:.1f}s): " + "; ".join(problems))
        return 1
    print(f"load test OK ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
