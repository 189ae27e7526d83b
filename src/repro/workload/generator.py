"""Task-stream generation: the paper's RU and TH update modes.

Section V-A: "For each road network, we generate updates under two
modes: taxi hailing mode (TH) and random update mode (RU). [...]
Queries are generated as a Poisson process at an arrival rate of λq.
For RU, updates are generated as another Poisson process with arrival
rate λu.  Each update is either an insert or a delete with equal
probability. [...] For TH, we model an object's movement from a node u
to a node v as a delete at node u followed by an insert at a
neighboring node v.  Object movements are generated as a Poisson
process at an arrival rate of λu/2."

The NW-RU exception (inserts land only on POIs) is supported through
``insert_sites``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ..graph.road_network import RoadNetwork
from ..objects.object_set import ObjectSet
from ..objects.tasks import DeleteTask, InsertTask, QueryTask, Task
from .arrivals import _check_non_negative, poisson_arrivals


class UpdateMode(Enum):
    RANDOM = "RU"
    TAXI_HAILING = "TH"


@dataclass(frozen=True)
class GeneratedWorkload:
    """A generated experiment input: initial objects plus the stream."""

    initial_objects: dict[int, int]
    tasks: list[Task]
    lambda_q: float
    lambda_u: float
    duration: float

    @property
    def num_queries(self) -> int:
        return sum(1 for t in self.tasks if isinstance(t, QueryTask))

    @property
    def num_updates(self) -> int:
        return len(self.tasks) - self.num_queries


def generate_workload(
    network: RoadNetwork,
    num_objects: int,
    lambda_q: float,
    lambda_u: float,
    duration: float,
    mode: UpdateMode = UpdateMode.RANDOM,
    k: int = 10,
    seed: int = 0,
    insert_sites: Sequence[int] | None = None,
    query_sites: Sequence[int] | None = None,
) -> GeneratedWorkload:
    """Generate the single query/update stream of Section III.

    Parameters mirror the paper: ``num_objects`` is m, rates are per
    second, ``duration`` is the run length (the paper uses 200 s runs).
    ``insert_sites`` restricts insert locations (NW-RU's POIs); when
    given, initial placements are also drawn from it.  ``query_sites``
    restricts query origins (hotspot workloads — airports, stadiums);
    the paper draws them uniformly, which remains the default.
    Rates and ``duration`` must be finite and non-negative.
    """
    for name, value in (
        ("lambda_q", lambda_q), ("lambda_u", lambda_u), ("duration", duration)
    ):
        _check_non_negative(name, value)
    if num_objects < 1:
        raise ValueError("need at least one initial object")
    if network.num_nodes == 0:
        raise ValueError("network is empty")
    rng = random.Random(seed)
    sites = list(insert_sites) if insert_sites is not None else None
    if sites is not None and not sites:
        raise ValueError("insert_sites is empty")
    origins = list(query_sites) if query_sites is not None else None
    if origins is not None and not origins:
        raise ValueError("query_sites is empty")

    objects = ObjectSet.random_on_network(
        network, num_objects, seed=rng.randrange(2**31), candidate_nodes=sites
    )
    initial = objects.snapshot()

    def random_site() -> int:
        if sites is not None:
            return rng.choice(sites)
        return rng.randrange(network.num_nodes)

    # Event times: queries are Poisson(λq); update events follow the
    # mode's convention (RU: single ops at λu; TH: movements at λu/2,
    # two ops each).  The sort is stable, so a tie goes to the query
    # and then to the earlier draw.
    update_rate = lambda_u if mode is UpdateMode.RANDOM else lambda_u / 2.0
    events = sorted(
        [(time, "query") for time in poisson_arrivals(lambda_q, duration, rng)]
        + [(time, "update") for time in poisson_arrivals(update_rate, duration, rng)],
        key=lambda event: event[0],
    )

    # Simulate object population to keep the stream consistent
    # (deletes target live objects; TH movements relocate live objects).
    live = objects.copy()
    tasks: list[Task] = []
    next_query_id = 0
    next_movement_id = 0
    for time, kind in events:
        if kind == "query":
            if origins is not None:
                origin = rng.choice(origins)
            else:
                origin = rng.randrange(network.num_nodes)
            tasks.append(QueryTask(time, next_query_id, origin, k))
            next_query_id += 1
            continue
        if mode is UpdateMode.RANDOM:
            # Insert or delete with equal probability; degenerate cases
            # (empty set) force an insert to keep the stream valid.
            if len(live) <= 1 or rng.random() < 0.5:
                object_id = live.fresh_id()
                node = random_site()
                live.insert(object_id, node)
                tasks.append(InsertTask(time, object_id, node))
            else:
                object_id = live.random_object(rng)
                live.delete(object_id)
                tasks.append(DeleteTask(time, object_id))
        else:
            # TH movement: delete at u, insert at a neighbour v.
            object_id = live.random_object(rng)
            u = live.location_of(object_id)
            neighbors = [v for v, _ in network.neighbors(u)]
            v = rng.choice(neighbors) if neighbors else u
            live.move(object_id, v)
            tasks.append(DeleteTask(time, object_id, movement_id=next_movement_id))
            tasks.append(InsertTask(time, object_id, v, movement_id=next_movement_id))
            next_movement_id += 1

    return GeneratedWorkload(
        initial_objects=initial,
        tasks=tasks,
        lambda_q=lambda_q,
        lambda_u=lambda_u,
        duration=duration,
    )
