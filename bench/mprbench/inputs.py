"""Deterministic inputs: a fixed fleet, seeded query traffic.

Graph, initial objects and their taxi-hailing (TH) moves come from
``generate_workload`` under fixed seeds and are part of the workload's
definition.  ``--seed`` draws only query origins and Poisson arrival
times, which are merged into the fleet's update stream by time.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from repro.graph import RoadNetwork, grid_network
from repro.objects.tasks import QueryTask, Task
from repro.workload import UpdateMode, generate_workload

from .spec import FLEET_SEED, GRAPH_SEED, K, Workload


@dataclass(frozen=True)
class Inputs:
    network: RoadNetwork
    initial_objects: dict[int, int]
    tasks: list[Task]


def build_network(workload: Workload) -> RoadNetwork:
    return grid_network(workload.grid, workload.grid, seed=GRAPH_SEED)


def fleet(workload: Workload, network: RoadNetwork, duration: float):
    """Initial placement plus ``duration`` seconds of TH moves."""
    return generate_workload(
        network, workload.objects, 0.0, workload.lambda_u, duration,
        mode=UpdateMode.TAXI_HAILING, k=K, seed=FLEET_SEED,
    )


def build_inputs(
    workload: Workload, seed: int, duration: float,
    network: RoadNetwork | None = None,
) -> Inputs:
    """The stream for one run: ``duration`` seconds at the spec's rates."""
    if network is None:
        network = build_network(workload)
    moves = fleet(workload, network, duration)
    rng = random.Random(seed)
    queries: list[Task] = []
    clock = rng.expovariate(workload.lambda_q)
    while clock < duration:
        queries.append(
            QueryTask(clock, len(queries), rng.randrange(network.num_nodes), K)
        )
        clock += rng.expovariate(workload.lambda_q)
    tasks = list(heapq.merge(
        moves.tasks, queries, key=lambda task: task.arrival_time
    ))
    return Inputs(network, moves.initial_objects, tasks)
