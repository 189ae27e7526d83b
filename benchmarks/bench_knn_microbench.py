"""Per-regime cost table of the actual Python kNN solutions.

Not a paper artifact per se, but the empirical counterpart of the
paper's Section V-A claim that solutions have distinct query/update
cost profiles — here measured on our real implementations (every class
of :data:`repro.knn.SOLUTIONS`) across the regimes this repository can
build: two jittered grids and the NY 1/200 replica, a sparse (16) and a
dense (n/10) object set, k ∈ {1, 10}.

Each cell's cost is the per-op mean ``(tq + r·tu) / (1 + r)`` of a
stream with ``r`` updates per query: r = 0 is a query-only stream and
r = 4 the update-heavy mix (mprbench's ``pool_update_heavy`` runs
q:u 1:4).  ``tq`` and ``tu`` come from :func:`repro.knn.measure_profile`
(one warm-up pass, then three timed repeats over the same queries and
updates, the solutions taking turns within each repeat).  A solution
*wins* a cell when its median cost is below every other solution's by
more than the spread of that pair — the larger of the two solutions'
max − min over their three repeats in that cell.  EXPERIMENTS.md
records the table of the last commit that still had G-tree, ROAD and
IER as classes.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_knn_microbench.py
--benchmark-only -s``.
"""

import random
import statistics

from common import publish

from repro.graph import grid_network, scaled_replica
from repro.harness import format_table
from repro.knn import SOLUTIONS, measure_profile

NETWORKS = {
    "grid 32²": grid_network(32, 32, seed=2),
    "NY 1/200": scaled_replica("NY", scale=1.0 / 200.0, seed=2),
    "grid 64²": grid_network(64, 64, seed=2),
}
KS = (1, 10)
#: Updates per query of the costed stream.
RATIOS = (0, 4)
REPEATS = 3
NUM_QUERIES = 60
NUM_MOVES = 30


def object_counts(num_nodes):
    return (16, num_nodes // 10)


def measure_cells():
    """``{(network, m, k): {solution: [(tq, tu), ...REPEATS]}}``.

    Solutions take turns within each repeat, so a slow spell of the
    host lands on one repeat of several solutions rather than on every
    repeat of one.
    """
    cells = {}
    for label, network in NETWORKS.items():
        n = network.num_nodes
        for m in object_counts(n):
            rng = random.Random(13)
            objects = {i: rng.randrange(n) for i in range(m)}
            solutions = {}
            for name, solution_cls in SOLUTIONS.items():
                solutions[name] = solution_cls(network, dict(objects))
                if hasattr(solutions[name], "warm_caches"):
                    solutions[name].warm_caches()  # V-tree's construction-time lists
            for repeat in range(REPEATS + 1):
                for k in KS:
                    for name, solution in solutions.items():
                        profile = measure_profile(
                            solution, k=k, num_queries=NUM_QUERIES,
                            num_updates=NUM_MOVES, num_nodes=n, seed=3,
                        )
                        if repeat:  # the first pass warms caches
                            runs = cells.setdefault((label, m, k), {})
                            runs.setdefault(name, []).append(
                                (profile.tq, profile.tu)
                            )
    return cells


def cost(tq, tu, ratio):
    return (tq + ratio * tu) / (1 + ratio)


def verdicts(cells):
    """One row per (network, m, k, r): median cost and spread per
    solution, and the cell's winner (``None`` when no solution wins)."""
    rows = []
    for (label, m, k), runs in cells.items():
        for ratio in RATIOS:
            costs = {
                name: [cost(tq, tu, ratio) for tq, tu in samples]
                for name, samples in runs.items()
            }
            medians = {name: statistics.median(c) for name, c in costs.items()}
            spreads = {name: max(c) - min(c) for name, c in costs.items()}
            best = min(medians, key=medians.get)
            wins = all(
                medians[other] - medians[best]
                > max(spreads[other], spreads[best])
                for other in medians if other != best
            )
            rows.append(
                (label, m, k, ratio, medians, spreads, best if wins else None)
            )
    return rows


def test_regime_table(benchmark) -> None:
    cells = benchmark.pedantic(measure_cells, rounds=1, iterations=1)
    rows = verdicts(cells)
    names = list(SOLUTIONS)
    table = format_table(
        ["network", "m", "k", "r", *names, "wins"],
        [
            [label, m, k, ratio,
             *(f"{medians[name] * 1e6:,.1f} ±{spreads[name] * 1e6:,.1f}"
               for name in names),
             winner or "—"]
            for label, m, k, ratio, medians, spreads, winner in rows
        ],
        title=(
            "Per-op cost (tq + r·tu)/(1 + r) in us: median ±spread "
            f"(max − min) of {REPEATS} repeats, {NUM_QUERIES} queries and "
            f"{NUM_MOVES} moves each"
        ),
    )
    publish("knn_regimes", table)

    # Section II's update-cost ordering is structural and reproduces at
    # every size: Dijkstra (bucket flip) < TOAIN (truncated upward
    # registration) < V-tree (border-list maintenance).
    for (label, m, k), runs in cells.items():
        tu = {
            name: statistics.median(u for _, u in samples)
            for name, samples in runs.items()
        }
        assert tu["Dijkstra"] < tu["TOAIN"] < tu["V-tree"], (label, m, k)
