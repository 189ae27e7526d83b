"""Measured-in-the-loop simulation: real execution, simulated cores.

Measured mode is the simulator (:mod:`repro.sim.system`) with one
source swapped: instead of sampling a profile it executes every query
and update on real per-worker solution instances, so answers are real
and each op's **measured wall time** is its w-core service in the same
walk of the core-matrix network.  This is the closest meaningful
approximation to "run the paper's experiment on this hardware" that a
GIL-bound runtime permits (DESIGN.md substitution #1): work runs
serially, but the queueing arithmetic accounts for it as if each w-core
were a real core.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..knn.base import KNNSolution, Neighbor, merge_partial_results
from ..mpr.analysis import MachineSpec
from ..mpr.config import MPRConfig
from ..mpr.core_matrix import MPRRouter, WorkerId
from ..objects.tasks import Task, TaskKind
from .system import SimulatedMPRSystem


@dataclass
class InLoopResult:
    """Outcome of a measured-in-the-loop run."""

    answers: dict[int, list[Neighbor]]
    response_times: dict[int, float]
    horizon: float
    worker_busy: dict[WorkerId, float] = field(default_factory=dict)

    @property
    def mean_response_time(self) -> float:
        if not self.response_times:
            return float("inf")
        return sum(self.response_times.values()) / len(self.response_times)

    def utilization(self, worker_id: WorkerId) -> float:
        if self.horizon <= 0:
            return 0.0
        return self.worker_busy.get(worker_id, 0.0) / self.horizon


def simulate_with_execution(
    solution: KNNSolution,
    config: MPRConfig,
    machine: MachineSpec,
    objects: Mapping[int, int],
    tasks: Sequence[Task],
    horizon: float,
) -> InLoopResult:
    """Execute a stream on real solution instances with simulated cores.

    Every worker holds ``solution.spawn(partition)``.  Tasks route
    through the real :class:`MPRRouter` and walk the simulator's
    network; each w-core service is the measured wall time of executing
    the op on that worker's instance.  A query's partial answers are
    merged as the live pool's a-core would.
    """
    router = MPRRouter(config)
    instances = {
        worker_id: solution.spawn(cell)
        for worker_id, cell in router.preload_objects(objects).items()
    }
    answers: dict[int, list[Neighbor]] = {}

    def executed(
        task: Task, workers: Sequence[WorkerId], _time: float
    ) -> list[float]:
        services: list[float] = []
        partials: list[list[tuple[float, int]]] = []
        for worker_id in workers:
            instance = instances[worker_id]
            start = time.perf_counter()
            if task.kind is TaskKind.QUERY:
                # The w-core's own path: one query op, answered as the
                # (distance, object_id) pairs a live ack carries.
                ((_, partial),) = instance.run_ops(
                    (("query", task.query_id, task.location, task.k),)
                )
                partials.append(partial)
            elif task.kind is TaskKind.INSERT:
                instance.insert(task.object_id, task.location)
            else:
                instance.delete(task.object_id)
            services.append(time.perf_counter() - start)
        if task.kind is TaskKind.QUERY:
            answers[task.query_id] = merge_partial_results(partials, task.k)
        return services

    system = SimulatedMPRSystem._with_service(config, machine, router, executed)
    stats = system.run(tasks, horizon)
    return InLoopResult(
        answers=answers,
        response_times={o.query_id: o.response_time for o in stats.outcomes},
        horizon=horizon,
        worker_busy={
            worker_id: server.busy_time
            for worker_id, server in system._workers.items()
        },
    )
