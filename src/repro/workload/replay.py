"""Trajectory replay: synthetic UCAR-style taxi streams.

The paper's BJ-TH scenario replays 8.74 million location updates from
~3,000 real UCAR taxis, where "each Didi vehicle reports its location
to the system every 3 to 5 seconds" (Section I).  The real trajectories
are proprietary, so this module synthesizes the closest equivalent
(DESIGN.md substitution #2): each taxi performs a random walk along the
road network and reports its position on its own periodic clock with
jitter.  A report is the paper's delete-at-u + insert-at-v pair.

Unlike the Poisson TH generator in :mod:`.generator`, replayed streams
have *per-object periodic* update processes — the superposition across
thousands of taxis is Poisson-like, but individual objects update at
fixed cadence, which is what real fleets do.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass
from typing import Sequence

from ..graph.road_network import RoadNetwork
from ..objects.object_set import ObjectSet
from ..objects.tasks import DeleteTask, InsertTask, QueryTask, Task
from .generator import GeneratedWorkload


@dataclass(frozen=True)
class FleetSpec:
    """A reporting fleet: taxis walking and phoning home periodically."""

    num_taxis: int
    #: Uniform range of per-taxi reporting periods, seconds (Didi: 3-5 s).
    report_period: tuple[float, float] = (3.0, 5.0)
    #: Nodes traversed per report on average (walk speed in hops).
    hops_per_report: float = 1.5

    def __post_init__(self) -> None:
        if self.num_taxis < 1:
            raise ValueError("need at least one taxi")
        low, high = self.report_period
        if low <= 0 or high < low:
            raise ValueError("report_period must be a positive range")
        if self.hops_per_report < 0:
            raise ValueError("hops_per_report must be non-negative")


def replay_fleet(
    network: RoadNetwork,
    fleet: FleetSpec,
    lambda_q: float,
    duration: float,
    k: int = 10,
    seed: int = 0,
) -> GeneratedWorkload:
    """Generate a trajectory-replay workload.

    Taxis start at random junctions.  Each taxi reports on its own
    period (with 10% jitter); each report moves it a geometric number
    of hops along a random walk and emits the delete/insert pair at the
    report time.  Queries are a Poisson stream, as in the paper.

    The effective update rate is ``2 * num_taxis / mean(report_period)``
    operations per second (two per report).
    """
    rng = random.Random(seed)
    objects = ObjectSet.random_on_network(
        network, fleet.num_taxis, seed=rng.randrange(2**31)
    )
    initial = objects.snapshot()

    # Per-taxi report clocks.
    events: list[tuple[float, int, str, int]] = []  # (time, tiebreak, kind, id)
    tiebreak = 0
    low, high = fleet.report_period
    for taxi in range(fleet.num_taxis):
        period = rng.uniform(low, high)
        clock = rng.uniform(0.0, period)  # desynchronised fleet
        while clock < duration:
            events.append((clock, tiebreak, "report", taxi))
            tiebreak += 1
            clock += period * rng.uniform(0.9, 1.1)

    clock = 0.0
    if lambda_q > 0:
        next_query = 0
        while True:
            clock += rng.expovariate(lambda_q)
            if clock >= duration:
                break
            events.append((clock, tiebreak, "query", next_query))
            tiebreak += 1
            next_query += 1
    events.sort()

    # Walk state per taxi.
    position = dict(initial)
    move_probability = min(fleet.hops_per_report / (fleet.hops_per_report + 1.0), 0.95)

    tasks: list[Task] = []
    next_movement = 0
    for time, _, kind, ident in events:
        if kind == "query":
            tasks.append(
                QueryTask(time, ident, rng.randrange(network.num_nodes), k)
            )
            continue
        # Advance the taxi a geometric number of hops.
        node = position[ident]
        while rng.random() < move_probability:
            neighbors = [v for v, _ in network.neighbors(node)]
            if not neighbors:
                break
            node = rng.choice(neighbors)
        tasks.append(DeleteTask(time, ident, movement_id=next_movement))
        tasks.append(InsertTask(time, ident, node, movement_id=next_movement))
        position[ident] = node
        next_movement += 1

    reports = next_movement
    lambda_u = 2.0 * reports / duration if duration > 0 else 0.0
    return GeneratedWorkload(
        initial_objects=initial,
        tasks=tasks,
        lambda_q=lambda_q,
        lambda_u=lambda_u,
        duration=duration,
    )


def replay_timed(executor, tasks: Sequence[Task], speed: float = 1.0):
    """Replay a stream against an executor at its real arrival times.

    ``ProcessPoolService.run`` submits as fast as the loop spins, so the pool
    never experiences the stream's λq/λu — fine for equivalence tests,
    wrong for measuring queueing behaviour.  This helper paces
    submission on the wall clock: task ``t`` is submitted no earlier
    than ``t.arrival_time / speed`` seconds after the replay starts
    (``speed > 1`` plays faster, ``< 1`` slower).  Buffered dispatch is
    flushed before every sleep so pacing gaps never add batcher fill
    latency to the measurement.

    Returns the executor's drained ``query_id -> QueryResult`` map.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    executor.start()
    origin = _time.monotonic()
    for task in tasks:
        due = origin + task.arrival_time / speed
        remaining = due - _time.monotonic()
        if remaining > 0:
            executor.flush()
            _time.sleep(remaining)
        executor.submit(task)
    executor.flush()
    return executor.drain()


def fleet_update_rate(fleet: FleetSpec) -> float:
    """Expected update operations per second for a fleet (2 per report)."""
    low, high = fleet.report_period
    mean_period = (low + high) / 2.0
    return 2.0 * fleet.num_taxis / mean_period
