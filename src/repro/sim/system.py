"""The simulated multicore MPR system.

Wires :class:`~repro.sim.des.FCFSServer` instances into the core-matrix
topology and pushes a task stream through them, using the *same*
:class:`~repro.mpr.core_matrix.MPRRouter` logic as the live worker pool
— the simulation and the implementation cannot diverge on scheduling
decisions.

Pipeline per query (z > 1 adds the d-core hop):

    arrival → [d-core: τ_d] → [s-core λ: x·τ_w] → x × [w-core: ~Q]
            → x × [a-core λ: τ_m]  (skipped when x = 1)

Pipeline per update: the d-core hands it to *every* layer's s-core
(y·τ_w each), which fans it to the y w-cores of one column (~U each).

This is the repo's one walk of that network.  Control-plane costs come
from :class:`~repro.mpr.analysis.MachineSpec`; w-core service times from
a source asked once per query and once per update and layer.  The
default draws them from an :class:`~repro.knn.calibration.
AlgorithmProfile` via gamma sampling; measured mode
(:mod:`repro.sim.inloop`) executes each op and returns its wall time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..knn.calibration import AlgorithmProfile
from ..mpr.analysis import MachineSpec
from ..mpr.config import MPRConfig
from ..mpr.core_matrix import MPRRouter, QueryRoute, WorkerId
from ..objects.tasks import Task, TaskKind
from .des import FCFSServer, ServiceSampler

#: ``(task, workers, time) -> service seconds per worker``, in order.
_ServiceSource = Callable[[Task, Sequence[WorkerId], float], list[float]]


@dataclass
class QueryOutcome:
    """Timing of one simulated query."""

    query_id: int
    arrival: float
    completion: float
    worker_service_max: float  # service on the critical (slowest) partial

    @property
    def response_time(self) -> float:
        return self.completion - self.arrival


@dataclass
class SystemStats:
    """Aggregate accounting of a simulation run."""

    horizon: float
    outcomes: list[QueryOutcome]
    worker_utilizations: dict[tuple[int, int, int], float]
    scheduler_utilizations: list[float]
    aggregator_utilizations: list[float]
    dispatcher_utilization: float
    end_backlogs: dict[str, float] = field(default_factory=dict)

    @property
    def max_utilization(self) -> float:
        candidates = [self.dispatcher_utilization]
        candidates.extend(self.worker_utilizations.values())
        candidates.extend(self.scheduler_utilizations)
        candidates.extend(self.aggregator_utilizations)
        return max(candidates, default=0.0)


class SimulatedMPRSystem:
    """Evaluates a task stream through the simulated core matrix.

    Two perturbation hooks extend the paper's homogeneous-core model:

    * ``speed_factors`` — per-worker relative speeds (0.5 = half speed),
      modelling heterogeneous cores (big.LITTLE, thermal throttling);
      unlisted workers run at speed 1.0.
    * ``straggler`` — ``(worker_id, start, end, slowdown)``: the worker
      multiplies its service times by ``slowdown`` while the simulated
      clock is inside ``[start, end)``, modelling a transient stall
      (GC pause, noisy neighbour).
    """

    def __init__(
        self,
        config: MPRConfig,
        profile: AlgorithmProfile,
        machine: MachineSpec,
        seed: int = 0,
        speed_factors: dict[tuple[int, int, int], float] | None = None,
        straggler: tuple[tuple[int, int, int], float, float, float] | None = None,
    ) -> None:
        if config.total_cores > machine.total_cores:
            raise ValueError(
                f"configuration needs {config.total_cores} cores, machine "
                f"has {machine.total_cores}"
            )
        rng = random.Random(seed)
        self._query_sampler = ServiceSampler(profile.tq, profile.vq, rng)
        self._update_sampler = ServiceSampler(profile.tu, profile.vu, rng)
        self._speed_factors = dict(speed_factors or {})
        for worker_id, speed in self._speed_factors.items():
            if speed <= 0:
                raise ValueError(f"worker {worker_id} speed must be positive")
        if straggler is not None:
            worker_id, start, end, slowdown = straggler
            if slowdown <= 0:
                raise ValueError("straggler slowdown must be positive")
            if end < start:
                raise ValueError("straggler window must not be inverted")
        self._straggler = straggler
        self._wire(config, machine, MPRRouter(config), self._sampled)

    @classmethod
    def _with_service(
        cls, config: MPRConfig, machine: MachineSpec, router: MPRRouter,
        service: _ServiceSource,
    ) -> SimulatedMPRSystem:
        """This network with w-core services taken from ``service``
        instead of the profile (measured mode; no core-count check)."""
        system = cls.__new__(cls)
        system._wire(config, machine, router, service)
        return system

    def _wire(
        self, config: MPRConfig, machine: MachineSpec, router: MPRRouter,
        service: _ServiceSource,
    ) -> None:
        self._config = config
        self._machine = machine
        self._router = router
        self._service = service
        self._dispatcher = FCFSServer("d-core")
        self._schedulers = [FCFSServer(f"s-core[{l}]") for l in range(config.z)]
        self._aggregators = [FCFSServer(f"a-core[{l}]") for l in range(config.z)]
        self._workers = {
            worker_id: FCFSServer(f"w-core{worker_id}")
            for worker_id in self._router.all_workers()
        }

    @property
    def config(self) -> MPRConfig:
        return self._config

    def preload(self, objects: dict[int, int]) -> None:
        """Register pre-placed objects with the router's schedulers so
        the stream may delete/move them (placement does not affect the
        simulated timing, only routing validity)."""
        self._router.preload_objects(objects)

    def run(self, tasks: list[Task], horizon: float) -> SystemStats:
        """Push ``tasks`` (time-ordered) through the system.

        ``horizon`` is the nominal run length used for utilization
        accounting (tasks beyond it should not be in the list).
        """
        config = self._config
        machine = self._machine
        outcomes: list[QueryOutcome] = []
        # Per layer, partials awaiting the a-core: (arrival, query_index).
        pending: list[list[tuple[float, int]]] = [[] for _ in range(config.z)]

        for task in tasks:
            t = task.arrival_time
            route = self._router.route(task)
            if config.z > 1:
                t = self._dispatcher.serve(t, machine.dispatch_time)
            if task.kind is TaskKind.QUERY:
                assert isinstance(route, QueryRoute)
                t_sched = self._schedulers[route.layer].serve(
                    t, machine.queue_write_time * config.x
                )
                worker_done_max = 0.0
                query_index = len(outcomes)
                services = self._service(task, route.workers, t_sched)
                for worker_id, service in zip(route.workers, services):
                    done = self._workers[worker_id].serve(t_sched, service)
                    if config.x > 1:
                        pending[route.layer].append((done, query_index))
                    if done > worker_done_max:
                        worker_done_max = done
                outcomes.append(QueryOutcome(
                    task.query_id, task.arrival_time, worker_done_max,
                    max(services),
                ))
            else:
                # Updates reach every layer; each layer's s-core writes
                # y queues, then the column's workers apply the update.
                for layer in range(config.z):
                    t_sched = self._schedulers[layer].serve(
                        t, machine.queue_write_time * config.y
                    )
                    column = route.columns[layer]
                    workers = [(layer, row, column) for row in range(config.y)]
                    services = self._service(task, workers, t_sched)
                    for worker_id, service in zip(workers, services):
                        self._workers[worker_id].serve(t_sched, service)

        # Aggregator post-pass: merge partials in FCFS (arrival) order.
        if config.x > 1:
            remaining = [config.x] * len(outcomes)
            for layer in range(config.z):
                server = self._aggregators[layer]
                for arrival, query_index in sorted(pending[layer]):
                    done = server.serve(arrival, machine.merge_time)
                    remaining[query_index] -= 1
                    if remaining[query_index] == 0:
                        # FCFS merge completions are monotone in arrival
                        # order, so the last partial's merge is the max.
                        outcomes[query_index].completion = done

        backlogs: dict[str, float] = {}
        for server in self._all_servers():
            backlog = server.end_backlog(horizon)
            if backlog > 0:
                backlogs[server.name] = backlog

        return SystemStats(
            horizon=horizon,
            outcomes=outcomes,
            worker_utilizations={
                worker_id: server.utilization(horizon)
                for worker_id, server in self._workers.items()
            },
            scheduler_utilizations=[
                s.utilization(horizon) for s in self._schedulers
            ],
            aggregator_utilizations=[
                a.utilization(horizon) for a in self._aggregators
            ]
            if config.x > 1
            else [],
            dispatcher_utilization=(
                self._dispatcher.utilization(horizon) if config.z > 1 else 0.0
            ),
            end_backlogs=backlogs,
        )

    def _sampled(
        self, task: Task, workers: Sequence[WorkerId], time: float
    ) -> list[float]:
        """The profile source: a gamma draw per w-core, scaled by its
        speed factor and, inside the window, the straggler's slowdown."""
        if task.kind is TaskKind.QUERY:
            sampler = self._query_sampler
        else:
            sampler = self._update_sampler
        services = []
        for worker_id in workers:
            service = sampler.sample() / self._speed_factors.get(worker_id, 1.0)
            if self._straggler is not None:
                victim, start, end, slowdown = self._straggler
                if victim == worker_id and start <= time < end:
                    service *= slowdown
            services.append(service)
        return services

    def _all_servers(self) -> list[FCFSServer]:
        servers: list[FCFSServer] = []
        if self._config.z > 1:
            servers.append(self._dispatcher)
        servers.extend(self._schedulers)
        if self._config.x > 1:
            servers.extend(self._aggregators)
        servers.extend(self._workers.values())
        return servers
