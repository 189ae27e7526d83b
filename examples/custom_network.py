"""Bring your own road network: DIMACS I/O, metrics, measured-mode runs.

Shows the adoption path for a user with real data:

1. write/read a network in the 9th DIMACS Challenge format (the format
   the paper's NY/USA datasets ship in — point ``load_dimacs`` at the
   real files to run everything on them);
2. sanity-check it with road-network realism metrics;
3. profile a kNN solution on it and plan an MPR deployment;
4. run a workload in *measured-in-the-loop* mode: real kNN execution
   supplying both the answers and the queueing service times.

Run:  python examples/custom_network.py
"""

import random
import tempfile
from pathlib import Path

from repro.graph import (
    compute_metrics,
    load_dimacs,
    save_dimacs,
    scaled_replica,
)
from repro.harness import format_table
from repro.knn import DijkstraKNN, measure_profile
from repro.mpr import MachineSpec, Scheme, Workload, configure_scheme
from repro.sim import simulate_with_execution
from repro.workload import generate_workload


def main() -> None:
    # 1. Round-trip a network through DIMACS files (substitute your
    #    own .gr/.co pair here).
    original = scaled_replica("NY", scale=1.0 / 500.0, seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        gr = Path(tmp) / "ny.gr"
        co = Path(tmp) / "ny.co"
        save_dimacs(original, gr, co)
        network = load_dimacs(gr, co, name="NY-custom")
    print(
        f"loaded {network.name}: {network.num_nodes} nodes, "
        f"{network.num_edges} edges"
    )

    # 2. Realism metrics.
    metrics = compute_metrics(network)
    print(f"metrics: {metrics.describe()}\n")

    # 3. Profile and plan.
    rng = random.Random(2)
    objects = {i: rng.randrange(network.num_nodes) for i in range(60)}
    solution = DijkstraKNN(network, objects)
    profile = measure_profile(
        solution, k=5, num_queries=20, num_updates=20,
        num_nodes=network.num_nodes,
    )
    machine = MachineSpec(total_cores=10)
    # Rates sized to the measured service times (≈60% system load).
    lambda_q = 0.4 / profile.tq * 6
    lambda_u = 0.2 / max(profile.tu, 1e-7)
    lambda_u = min(lambda_u, 20_000.0)
    choice = configure_scheme(
        Scheme.MPR, Workload(lambda_q, lambda_u), profile, machine
    )
    print(
        f"measured tq={profile.tq*1e6:,.0f}us tu={profile.tu*1e6:,.1f}us; "
        f"MPR plan for (λq={lambda_q:,.0f}, λu={lambda_u:,.0f}): "
        f"({choice.config.x},{choice.config.y},{choice.config.z})"
    )

    # 4. Measured-in-the-loop run: real kNN answers + queueing model.
    workload = generate_workload(
        network, num_objects=60, lambda_q=min(lambda_q / 50, 200.0),
        lambda_u=min(lambda_u / 50, 400.0), duration=1.0, k=5, seed=7,
    )
    result = simulate_with_execution(
        solution, choice.config, machine,
        workload.initial_objects, workload.tasks, horizon=1.0,
    )
    busiest = max(result.worker_busy.values(), default=0.0)
    print(
        format_table(
            ["queries", "mean Rq (ms)", "busiest worker (s busy)"],
            [[
                len(result.answers),
                f"{result.mean_response_time*1e3:.2f}",
                f"{busiest:.3f}",
            ]],
            title="Measured-in-the-loop run (scaled-down rates)",
        )
    )


if __name__ == "__main__":
    main()
