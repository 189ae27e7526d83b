"""Ablations of MPR design choices (DESIGN.md Section 6).

1. **Rectangular core matrix vs generic grouping** — Section IV-C ends
   with a theorem that the rectangular structure is optimal among
   irregular row groupings; we test random irregular groupings of the
   same worker budget in simulation.
2. **Round-robin vs random dispatch** — the s-core's row selection.
3. **Update balancing: partitioning objects vs partitioning updates**
   (Section III's discussion) — here surfaced as column skew.
"""

import math
import random

from common import PAPER_MACHINE, SIM_DURATION, publish

from repro.harness import format_table
from repro.knn import paper_profile
from repro.mpr import MPRConfig, Workload, optimize_response_time
from repro.sim import measure_response_time
from repro.sim.des import FCFSServer, ServiceSampler
from repro.sim.measurement import synthetic_stream
from repro.objects import TaskKind

PROFILE = paper_profile("TOAIN", "BJ")
WORKLOAD = Workload(15_000.0, 50_000.0)


def simulate_grouping(
    group_sizes: list[int], lambda_q: float, lambda_u: float,
    duration: float, seed: int, round_robin: bool = True,
) -> float:
    """Mean Rq of an irregular grouping: each group is a row of
    ``size`` partitions holding a full replica; queries round-robin (or
    uniformly random) over groups, updates are split over each group's
    partitions.  Control-plane costs mirror the real scheduler."""
    rng = random.Random(seed)
    tasks = synthetic_stream(lambda_q, lambda_u, duration, seed=seed)
    query_sampler = ServiceSampler(PROFILE.tq, PROFILE.vq, random.Random(seed + 1))
    update_sampler = ServiceSampler(PROFILE.tu, PROFILE.vu, random.Random(seed + 2))
    scheduler = FCFSServer("s")
    groups = [
        [FCFSServer(f"w{g}.{i}") for i in range(size)]
        for g, size in enumerate(group_sizes)
    ]
    next_group = 0
    update_cols = [0] * len(groups)
    responses = []
    for task in tasks:
        if task.kind is TaskKind.QUERY:
            if round_robin:
                g = next_group
                next_group = (next_group + 1) % len(groups)
            else:
                g = rng.randrange(len(groups))
            done_sched = scheduler.serve(
                task.arrival_time,
                PAPER_MACHINE.queue_write_time * len(groups[g]),
            )
            done = max(
                server.serve(done_sched, query_sampler.sample())
                for server in groups[g]
            )
            responses.append(done - task.arrival_time)
        else:
            done_sched = scheduler.serve(
                task.arrival_time,
                PAPER_MACHINE.queue_write_time * len(groups),
            )
            for g, group in enumerate(groups):
                col = update_cols[g] % len(group)
                update_cols[g] += 1
                group[col].serve(done_sched, update_sampler.sample())
    if not responses:
        return math.inf
    horizon = duration
    for group in groups:
        for server in group:
            if server.utilization(horizon) >= 0.995:
                return math.inf
    if scheduler.utilization(horizon) >= 0.995:
        return math.inf
    tail = responses[len(responses) // 5:]
    return sum(tail) / len(tail)


def run_grouping_ablation():
    """Rectangular optimum vs random irregular groupings of 15 workers."""
    best = optimize_response_time(
        WORKLOAD, PROFILE, PAPER_MACHINE, fixed_layers=1
    ).config
    rect_sizes = [best.x] * best.y
    rect = simulate_grouping(
        rect_sizes, WORKLOAD.lambda_q, WORKLOAD.lambda_u, SIM_DURATION, seed=3
    )
    rng = random.Random(77)
    rows = [["rectangular " + str(rect_sizes), _fmt(rect)]]
    worse = 0
    trials = 8
    budget = sum(rect_sizes)
    for trial in range(trials):
        sizes = _random_partition(budget, rng)
        irregular = simulate_grouping(
            sizes, WORKLOAD.lambda_q, WORKLOAD.lambda_u, SIM_DURATION,
            seed=3,
        )
        rows.append([f"irregular {sizes}", _fmt(irregular)])
        if irregular >= rect * 0.98:
            worse += 1
    return rect, rows, worse, trials


def _random_partition(total: int, rng: random.Random) -> list[int]:
    sizes = []
    remaining = total
    while remaining > 0:
        size = rng.randint(1, min(remaining, 6))
        sizes.append(size)
        remaining -= size
    return sizes


def _fmt(value: float) -> str:
    return "Overload" if math.isinf(value) else f"{value*1e6:,.0f}"


def test_ablation_rectangular_vs_generic(benchmark) -> None:
    rect, rows, worse, trials = benchmark.pedantic(
        run_grouping_ablation, rounds=1, iterations=1
    )
    table = format_table(
        ["grouping", "Rq (us)"], rows,
        title="Ablation: rectangular core matrix vs generic groupings",
    )
    publish("ablation_grouping", table)
    assert math.isfinite(rect)
    # The theorem says rectangular is optimal; allow at most one random
    # grouping to edge it out within noise.
    assert worse >= trials - 1


def test_ablation_round_robin_vs_random_dispatch(benchmark) -> None:
    def run():
        sizes = [3] * 5
        rr = simulate_grouping(
            sizes, WORKLOAD.lambda_q, WORKLOAD.lambda_u, SIM_DURATION,
            seed=5, round_robin=True,
        )
        rnd = simulate_grouping(
            sizes, WORKLOAD.lambda_q, WORKLOAD.lambda_u, SIM_DURATION,
            seed=5, round_robin=False,
        )
        return rr, rnd

    rr, rnd = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["dispatch", "Rq (us)"],
        [["round-robin (paper)", _fmt(rr)], ["uniform random", _fmt(rnd)]],
        title="Ablation: s-core row dispatch policy",
    )
    publish("ablation_dispatch", table)
    # Round-robin smooths arrivals and should not be worse than random.
    if math.isfinite(rnd):
        assert rr <= rnd * 1.05


def test_ablation_toain_core_fraction(benchmark) -> None:
    """TOAIN's SCOB knob on real code: the query/update trade-off curve
    across core fractions, and the joint TOAIN x MPR tuning closing the
    loop (Section II's 'hand-in-hand' remark)."""
    import random

    from repro.graph import scaled_replica
    from repro.knn import ContractionHierarchy, ToainIndex, ToainKNN
    from repro.knn import measure_profile
    from repro.mpr import Objective, Scheme, Workload, configure_scheme

    def run():
        network = scaled_replica("NY", scale=1.0 / 400.0, seed=4)
        rng = random.Random(6)
        objects = {i: rng.randrange(network.num_nodes) for i in range(120)}
        ch = ContractionHierarchy(network)
        curve, choices = {}, {}
        for rho in (0.02, 0.1, 0.3, 0.8):
            solution = ToainKNN(
                network, dict(objects),
                index=ToainIndex(network, core_fraction=rho, ch=ch),
            )
            profile = measure_profile(
                solution, k=10, num_queries=15, num_updates=15,
                num_nodes=network.num_nodes,
            )
            curve[rho] = (profile.tq, profile.tu)
            choices[rho] = configure_scheme(
                Scheme.MPR, Workload(200.0, 2_000.0), profile, PAPER_MACHINE,
                objective=Objective.THROUGHPUT, rq_bound=0.5,
            )
        # The joint pick: the best MPR throughput over the family
        # (ties keep the smaller core fraction).
        picked = max(curve, key=lambda rho: choices[rho].predicted_value)
        return curve, picked, choices[picked]

    curve, picked, joint = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"{rho:.2f}", f"{tq*1e6:,.0f}", f"{tu*1e6:,.1f}"]
        for rho, (tq, tu) in sorted(curve.items())
    ]
    table = format_table(
        ["core fraction ρ", "tq (us)", "tu (us)"],
        rows,
        title="Ablation: TOAIN SCOB core fraction (measured, NY replica)",
    )
    table += (
        f"\njoint tune picked ρ={picked:g} with "
        f"config ({joint.config.x},{joint.config.y},{joint.config.z}), "
        f"predicted throughput {joint.predicted_value:,.0f} q/s"
    )
    publish("ablation_toain_core_fraction", table)

    # The knob must actually trade: growing the core makes updates
    # cheaper (registration truncates earlier).
    smallest, largest = min(curve), max(curve)
    assert curve[largest][1] < curve[smallest][1]


def test_ablation_update_column_skew(benchmark) -> None:
    """What Section III's balancing buys: skewing all updates onto one
    column of the matrix versus round-robin distribution."""
    def run():
        config = MPRConfig(3, 5, 1)
        balanced = measure_response_time(
            config, PROFILE, PAPER_MACHINE,
            WORKLOAD.lambda_q, WORKLOAD.lambda_u,
            duration=SIM_DURATION, seed=6,
        )
        # Skew: all updates into column 0 == a 1-column matrix handling
        # the full update load with the same per-row query load.
        skew_config = MPRConfig(1, 5, 1)
        skewed = measure_response_time(
            skew_config, PROFILE, PAPER_MACHINE,
            WORKLOAD.lambda_q / 1.0, WORKLOAD.lambda_u,
            duration=SIM_DURATION, seed=6,
        )
        return balanced, skewed

    balanced, skewed = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["update placement", "Rq"],
        [
            ["balanced over 3 columns (paper)", balanced.display],
            ["all updates on 1 column", skewed.display],
        ],
        title="Ablation: update load balancing across columns",
    )
    publish("ablation_update_balance", table)
    assert not balanced.overloaded
    assert skewed.overloaded or (
        skewed.mean_response_time > balanced.mean_response_time
    )
