"""Taxi dispatch: the paper's Uber/Didi motivating application.

A taxi-hailing backend on a Beijing-style road network: every rider
request is a kNN query ("the k closest available taxis"), and every
taxi continuously reports its position (TH-mode movement updates, the
paper's delete-at-u + insert-at-neighbour-v pattern, arriving at twice
the movement rate).

The example shows the whole MPR workflow for this update-heavy setting:

* generate the TH workload the paper describes (Section V-A);
* run it through the real threaded core matrix and dispatch taxis;
* compare the four schemes on the simulated 19-core machine at the
  paper's true arrival rates (Didi-scale), where F-Rep collapses under
  the update storm and MPR holds its response time.

Run:  python examples/taxi_dispatch.py
"""

import random

from repro.graph import NodeLocator, routes_to_neighbors, scaled_replica
from repro.harness import format_table
from repro.knn import ToainKNN, paper_profile
from repro.mpr import (
    MachineSpec,
    Scheme,
    Workload,
    build_executor,
    configure_all_schemes,
)
from repro.sim import measure_response_time
from repro.workload import UpdateMode, generate_workload


def dispatch_demo() -> None:
    """Functionally dispatch taxis on a scaled BJ replica."""
    network = scaled_replica("BJ", scale=1.0 / 2000.0, seed=7)
    print(
        f"Beijing replica: {network.num_nodes} junctions, "
        f"{network.num_edges} road segments"
    )
    workload = generate_workload(
        network, num_objects=60, lambda_q=40.0, lambda_u=160.0,
        duration=1.0, mode=UpdateMode.TAXI_HAILING, k=3, seed=11,
    )
    print(
        f"TH stream: {workload.num_queries} ride requests, "
        f"{workload.num_updates} position updates (movements come as "
        f"delete+insert pairs)"
    )
    fleet = ToainKNN(network)
    config = configure_all_schemes(
        Workload(40.0, 160.0), paper_profile("TOAIN", "BJ"),
        MachineSpec(total_cores=8),
    )[Scheme.MPR].config
    with build_executor(config, fleet, workload.initial_objects) as executor:
        dispatches = executor.run(workload.tasks)
    served = sum(1 for result in dispatches.values() if result.neighbors)
    sample_id = next(iter(sorted(dispatches)))
    sample = dispatches[sample_id].neighbors
    print(
        f"dispatched {served}/{len(dispatches)} requests; e.g. request "
        f"#{sample_id} got taxis {[n.object_id for n in sample]} "
        f"(nearest at {sample[0].distance:,.0f} m)\n"
    )


def gps_to_route_demo() -> None:
    """The full dispatch path: GPS fix -> snap -> kNN -> route."""
    network = scaled_replica("BJ", scale=1.0 / 2000.0, seed=7)
    rng = random.Random(3)
    fleet = ToainKNN(
        network, {taxi: rng.randrange(network.num_nodes) for taxi in range(40)}
    )
    locator = NodeLocator(network)

    # A rider's GPS fix lands between junctions; snap it first.
    anchor_x, anchor_y = network.coordinate(network.num_nodes // 2)
    fix = (anchor_x + 87.0, anchor_y - 55.0)
    pickup_node, snap_distance = locator.nearest_node(*fix)
    print(
        f"GPS fix {fix[0]:,.0f},{fix[1]:,.0f} snapped to junction "
        f"{pickup_node} ({snap_distance:,.0f} m away)"
    )

    nearest = fleet.query(pickup_node, 3)
    taxi_nodes = {
        fleet.object_locations()[n.object_id]: n.object_id for n in nearest
    }
    routes = routes_to_neighbors(network, pickup_node, list(taxi_nodes))
    for node, taxi in taxi_nodes.items():
        route = routes[node]
        print(
            f"  taxi #{taxi}: {route.distance:,.0f} m away via "
            f"{route.num_segments} road segments"
        )
    print()


def capacity_comparison() -> None:
    """The paper-scale comparison: Didi-like rates on 19 cores."""
    profile = paper_profile("TOAIN", "BJ")
    machine = MachineSpec(total_cores=19)
    # Thousands of requests/second at peak; each taxi reports every few
    # seconds -> updates dominate (the paper's λq=15K, λu=50K case).
    lambda_q, lambda_u = 15_000.0, 50_000.0
    choices = configure_all_schemes(
        Workload(lambda_q, lambda_u), profile, machine
    )
    rows = []
    for scheme, choice in choices.items():
        measurement = measure_response_time(
            choice.config, profile, machine, lambda_q, lambda_u,
            duration=1.0, seed=1, taxi_hailing=True, initial_objects=2000,
        )
        rows.append(
            [
                scheme.value,
                f"({choice.config.x},{choice.config.y},{choice.config.z})",
                measurement.display,
            ]
        )
    print(
        format_table(
            ["scheme", "(x,y,z)", "response time"],
            rows,
            title=(
                "Peak-hour taxi workload (15K requests/s, 50K position "
                "updates/s) on 19 simulated cores"
            ),
        )
    )


if __name__ == "__main__":
    dispatch_demo()
    gps_to_route_demo()
    capacity_comparison()
