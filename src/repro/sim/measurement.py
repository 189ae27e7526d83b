"""The paper's measurement methodology (Section V-A, "Measurements").

* :func:`measure_response_time` — "We measure Rq by running the system
  for 200 seconds with a query/update stream [...] and report the
  average [...].  For the case in which a core is overloaded [...] we
  report 'Overload'."
* :func:`find_max_throughput` — "we repeat the above run while
  gradually increasing the value of λq.  We determine the largest λq
  that does not cause a core to be overloaded or Rq to exceed a
  response time bound Rq*."

Simulated seconds are cheap but not free in pure Python; the default
run length is shorter than the paper's 200 s and configurable.  All
measurements are deterministic given a seed.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

from ..knn.calibration import AlgorithmProfile
from ..mpr.analysis import MachineSpec
from ..mpr.config import MPRConfig
from ..objects.tasks import DeleteTask, InsertTask, QueryTask, Task
from .system import SimulatedMPRSystem, SystemStats

#: A server finishing the run with more than this many seconds of queued
#: work per simulated second is flagged overloaded (its queue grows
#: without bound rather than fluctuating).
OVERLOAD_BACKLOG_FRACTION = 0.05
#: Utilization above which a server counts as saturated.
OVERLOAD_UTILIZATION = 0.995


@dataclass(frozen=True)
class Measurement:
    """Outcome of one simulated run."""

    overloaded: bool
    mean_response_time: float
    p95_response_time: float
    mean_worker_service: float
    mean_queuing_delay: float
    completed_queries: int
    max_utilization: float

    @property
    def display(self) -> str:
        if self.overloaded:
            return "Overload"
        return f"{self.mean_response_time * 1e6:,.0f} us"


def synthetic_stream(
    lambda_q: float,
    lambda_u: float,
    duration: float,
    seed: int = 0,
    k: int = 10,
    taxi_hailing: bool = False,
    initial_objects: int = 0,
) -> list[Task]:
    """A location-free task stream for performance simulation.

    The simulator only consumes arrival times, kinds and object ids
    (for the scheduler's hash table); locations and k do not influence
    timing, so queries sit at node 0 and object ids follow the same
    stochastic structure the paper's generators produce:

    * **RU** (default): update events at rate λu, each an insert of a
      fresh object or a delete of a live one with equal probability;
    * **TH** (``taxi_hailing=True``): movement events at rate λu/2,
      each a delete + insert *pair* of the same object at the same
      instant — burstier for the update path, exactly like the paper's
      taxi streams.  Requires ``initial_objects > 0`` pre-placed ids
      ``0 .. initial_objects-1`` (pass the same value to the system's
      preload).
    """
    if taxi_hailing and initial_objects < 1:
        raise ValueError("taxi_hailing mode needs initial_objects >= 1")
    rng = random.Random(seed)
    update_rate = lambda_u / 2.0 if taxi_hailing else lambda_u
    events: list[tuple[float, int, str]] = []
    tiebreak = 0
    for rate, kind in ((lambda_q, "query"), (update_rate, "update")):
        clock = 0.0
        if rate <= 0:
            continue
        while True:
            clock += rng.expovariate(rate)
            if clock >= duration:
                break
            events.append((clock, tiebreak, kind))
            tiebreak += 1
    events.sort()

    tasks: list[Task] = []
    live: list[int] = list(range(initial_objects))
    next_object = initial_objects
    next_query = 0
    next_movement = 0
    for time, _, kind in events:
        if kind == "query":
            tasks.append(QueryTask(time, next_query, 0, k))
            next_query += 1
        elif taxi_hailing:
            mover = live[rng.randrange(len(live))]
            tasks.append(DeleteTask(time, mover, movement_id=next_movement))
            tasks.append(InsertTask(time, mover, 0, movement_id=next_movement))
            next_movement += 1
        elif not live or rng.random() < 0.5:
            tasks.append(InsertTask(time, next_object, 0))
            live.append(next_object)
            next_object += 1
        else:
            victim_index = rng.randrange(len(live))
            victim = live[victim_index]
            live[victim_index] = live[-1]
            live.pop()
            tasks.append(DeleteTask(time, victim))
    return tasks


def machine_spec_from_telemetry(
    telemetry, total_cores: int = 19
) -> MachineSpec:
    """Calibrate a :class:`MachineSpec` from recorded stage histograms.

    Feeds a run's observed per-stage costs back into the
    analytical/DES machine model (DESIGN.md substitution #1 run in
    reverse); usable with any pool run that recorded through a
    :class:`repro.obs.Telemetry`:

    * ``queue_write_time`` (the paper's τ') ← mean of the ``dispatch``
      stage — the parent-side routing + enqueue cost per task;
    * ``merge_time`` ← mean of the ``merge`` stage;
    * ``dispatch_time`` ← mean of the ``ack`` stage (one cross-worker
      message transit, the closest observable to a d-core hand-off).

    Stages the run never recorded keep the :class:`MachineSpec`
    defaults, so an empty handle reproduces ``MachineSpec()``.
    """
    defaults = MachineSpec(total_cores=total_cores)

    def stage_mean(stage: str, fallback: float) -> float:
        histogram = telemetry.histogram(stage)
        if histogram is None or histogram.count == 0:
            return fallback
        return histogram.mean

    return MachineSpec(
        total_cores=total_cores,
        queue_write_time=stage_mean("dispatch", defaults.queue_write_time),
        merge_time=stage_mean("merge", defaults.merge_time),
        dispatch_time=stage_mean("ack", defaults.dispatch_time),
    )


def summarize(stats: SystemStats, warmup: float = 0.0) -> Measurement:
    """Reduce raw simulation stats to the paper's reported quantities."""
    overloaded = stats.max_utilization >= OVERLOAD_UTILIZATION or any(
        backlog > OVERLOAD_BACKLOG_FRACTION * stats.horizon
        for backlog in stats.end_backlogs.values()
    )
    responses = [
        o.response_time for o in stats.outcomes if o.arrival >= warmup
    ]
    services = [
        o.worker_service_max for o in stats.outcomes if o.arrival >= warmup
    ]
    if not responses:
        return Measurement(
            overloaded=overloaded,
            mean_response_time=math.inf,
            p95_response_time=math.inf,
            mean_worker_service=math.inf,
            mean_queuing_delay=math.inf,
            completed_queries=0,
            max_utilization=stats.max_utilization,
        )
    responses.sort()
    mean_response = statistics.fmean(responses)
    mean_service = statistics.fmean(services)
    return Measurement(
        overloaded=overloaded,
        mean_response_time=mean_response,
        p95_response_time=responses[int(0.95 * (len(responses) - 1))],
        mean_worker_service=mean_service,
        mean_queuing_delay=max(mean_response - mean_service, 0.0),
        completed_queries=len(responses),
        max_utilization=stats.max_utilization,
    )


def measure_response_time(
    config: MPRConfig,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    lambda_q: float,
    lambda_u: float,
    duration: float = 2.0,
    warmup_fraction: float = 0.2,
    seed: int = 0,
    tasks: list[Task] | None = None,
    taxi_hailing: bool = False,
    initial_objects: int = 0,
) -> Measurement:
    """One Rq run: generate (or take) a stream, simulate, summarize."""
    if taxi_hailing and initial_objects < 1:
        initial_objects = 1000
    if tasks is None:
        tasks = synthetic_stream(
            lambda_q, lambda_u, duration, seed=seed,
            taxi_hailing=taxi_hailing, initial_objects=initial_objects,
        )
    system = SimulatedMPRSystem(config, profile, machine, seed=seed + 1)
    if initial_objects:
        system.preload({obj: 0 for obj in range(initial_objects)})
    stats = system.run(tasks, horizon=duration)
    return summarize(stats, warmup=duration * warmup_fraction)


def find_max_throughput(
    config: MPRConfig,
    profile: AlgorithmProfile,
    machine: MachineSpec,
    lambda_u: float,
    rq_bound: float = 0.1,
    duration: float = 0.5,
    seed: int = 0,
    relative_tolerance: float = 0.02,
    initial_lambda_q: float = 100.0,
    bound_on_p95: bool = False,
) -> float:
    """Largest sustainable λq under the response-time bound.

    Geometric ramp-up followed by binary search, mirroring the paper's
    "gradually increasing λq" procedure but with simulated runs.

    ``bound_on_p95`` switches the SLA from the paper's mean response
    time to the 95th percentile — the criterion real location-based
    services use, and strictly more conservative.
    """
    def sustainable(lambda_q: float) -> bool:
        measurement = measure_response_time(
            config, profile, machine, lambda_q, lambda_u,
            duration=duration, seed=seed,
        )
        if measurement.overloaded:
            return False
        observed = (
            measurement.p95_response_time if bound_on_p95
            else measurement.mean_response_time
        )
        return observed <= rq_bound

    if not sustainable(initial_lambda_q):
        # Even the starting rate fails; probe downwards.
        low, high = 0.0, initial_lambda_q
        if high <= 1.0:
            return 0.0
    else:
        low = initial_lambda_q
        high = initial_lambda_q * 2.0
        while sustainable(high):
            low = high
            high *= 2.0
            if high > 1e9:
                return high
    while high - low > relative_tolerance * max(high, 1.0):
        mid = (low + high) / 2.0
        if sustainable(mid):
            low = mid
        else:
            high = mid
    return low
