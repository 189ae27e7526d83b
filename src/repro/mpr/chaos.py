"""Fault-injection chaos harness for the process pool.

Each scenario runs a real workload through a
:class:`~repro.mpr.process_executor.ProcessPoolService` with the
resilience layer enabled, injects one failure mode mid-batch, and then
checks the *invariants* the resilience design promises rather than any
particular timing:

* **no hang** — ``drain`` returns within a generous wall bound, whatever
  was killed, stopped, or wedged;
* **no wrong answer** — every ``OK`` answer equals the serial oracle
  bit-for-bit; degraded answers are structurally valid ``PARTIAL``
  envelopes naming real columns;
* **traces account for every answered column** — with telemetry on, an
  ``OK`` answer's trace carries an ``execute`` span for each partition
  column (hedges swap the row, never drop the column);
* **deadline misses stay bounded** — the per-scenario miss-rate ceiling
  holds.

Scenarios (``SCENARIOS``): ``none`` (fault-free control), ``kill-worker``
(SIGKILL one worker mid-batch), ``kill-column`` (SIGKILL every replica
of one partition column mid-batch — the acceptance scenario),
``crash-loop`` (re-kill one column's respawns until its breakers open,
then stop and let the half-open trials recover it), ``stall`` (SIGSTOP a
worker so only the watchdog can notice), ``slow`` (every query sleeps
past the SLO), ``poison`` (a query that raises inside every replica),
``dropped-ack`` (a worker that exits *before* acknowledging, forcing
replay into a crash loop), ``reconfig-kill-new-worker`` (SIGKILL a
warming worker mid-transition: the transition must roll back and the
untouched old shape stay oracle-exact), and ``reconfig-under-load`` (a
live ``(x, y, z)`` transition while the stream is in flight: zero
hangs, every answer exact under whichever shape routed it).

The solution wrappers (:class:`SlowKNN`, :class:`PoisonKNN`,
:class:`ExitingKNN`) live at module level so worker pickles resolve them
under any start method.  Use ``python -m repro.cli chaos`` to run
scenarios from a shell.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..graph.generators import grid_network
from ..knn.base import KNNSolution, Neighbor
from ..knn.dijkstra_knn import DijkstraKNN
from ..objects.tasks import InsertTask, QueryTask, Task
from ..obs import Telemetry
from .api import build_executor
from .config import MPRConfig
from .executor import run_serial_reference
from .process_executor import ProcessPoolService
from .resilience import ResilienceConfig
from .results import QueryResult, ResultStatus

__all__ = [
    "ChaosReport",
    "ExitingKNN",
    "PoisonKNN",
    "SCENARIOS",
    "SlowKNN",
    "run_scenario",
]

#: Node a poison/exit query targets (any fixed in-range node works; the
#: wrappers key off the *location*, which routing never inspects).
POISON_LOCATION = 1


class _WrappedKNN(KNNSolution):
    """Base for chaos wrappers: delegate everything, spawn wrapped."""

    def __init__(self, inner: KNNSolution) -> None:
        self._inner = inner

    def query(self, location: int, k: int) -> list[Neighbor]:
        return self._inner.query(location, k)

    def insert(self, object_id: int, location: int) -> None:
        self._inner.insert(object_id, location)

    def delete(self, object_id: int) -> None:
        self._inner.delete(object_id)

    def object_locations(self) -> dict[int, int]:
        return self._inner.object_locations()

    def spawn(self, objects: Mapping[int, int]) -> "KNNSolution":
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._inner = self._inner.spawn(objects)
        return clone


class SlowKNN(_WrappedKNN):
    """Every query sleeps ``delay`` seconds first (an overloaded cell)."""

    name = "slow"

    def __init__(self, inner: KNNSolution, delay: float) -> None:
        super().__init__(inner)
        self._delay = delay

    def query(self, location: int, k: int) -> list[Neighbor]:
        time.sleep(self._delay)
        return self._inner.query(location, k)


class PoisonKNN(_WrappedKNN):
    """Raises on the poison location — inside *every* replica alike."""

    name = "poison"

    def query(self, location: int, k: int) -> list[Neighbor]:
        if location == POISON_LOCATION:
            raise ValueError("poison query")
        return self._inner.query(location, k)


class ExitingKNN(_WrappedKNN):
    """Exits the worker process *before* the ack can be sent.

    ``os._exit`` skips every finally/atexit hook, so the batch is never
    acknowledged and never errored — the parent sees only EOF, replays,
    and hits the same exit: the dropped-ack crash loop.
    """

    name = "exiting"

    def query(self, location: int, k: int) -> list[Neighbor]:
        if location == POISON_LOCATION:
            os._exit(0)
        return self._inner.query(location, k)


@dataclass
class ChaosReport:
    """Outcome of one scenario run (JSON-ready via :meth:`to_dict`)."""

    scenario: str
    queries: int
    plain: int
    degraded: int
    shed: int
    drain_seconds: float
    miss_rate: float
    metrics: dict[str, Any]
    counters: dict[str, int]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "queries": self.queries,
            "plain": self.plain,
            "degraded": self.degraded,
            "shed": self.shed,
            "drain_seconds": self.drain_seconds,
            "miss_rate": self.miss_rate,
            "violations": list(self.violations),
            "metrics": self.metrics,
            "counters": self.counters,
        }


@dataclass(frozen=True)
class _Scenario:
    """One failure mode: how to wrap the solution and when to strike."""

    description: str
    #: Called after half the stream is submitted; returns a cleanup
    #: callable (or None) invoked after the drain.
    inject: Callable[[ProcessPoolService], Callable[[], None] | None]
    #: Wraps the base solution before the pool is built.
    wrap: Callable[[KNNSolution], KNNSolution] = lambda solution: solution
    #: Acceptable deadline-miss *events* per query for this failure
    #: mode.  A query whose deadline is re-armed after a hedge can miss
    #: more than once, so saturation scenarios may legitimately exceed
    #: 1.0.
    max_miss_rate: float = 1.0
    #: Include update tasks (off for scenarios that quarantine batches:
    #: a quarantined update is dropped by design, which would fork the
    #: replica away from the oracle).
    with_updates: bool = True
    #: Inject a poison-location query into the stream.
    with_poison_query: bool = False
    #: Extra shapes whose column sets are also acceptable trace
    #: coverage — reconfiguration scenarios answer queries under both
    #: the old arrangement and the target one.
    alt_configs: tuple[MPRConfig, ...] = ()
    #: Post-drain invariant check on the pool itself (e.g. the
    #: reconfiguration outcome); returns violation strings.
    verify: Callable[[ProcessPoolService], list[str]] | None = None


def _no_fault(pool: ProcessPoolService) -> None:
    return None


def _kill_worker(pool: ProcessPoolService) -> None:
    """SIGKILL one worker mid-batch; replay must restore it."""
    pids = pool.worker_pids()
    victim = sorted(pids)[0]
    os.kill(pids[victim], signal.SIGKILL)
    return None


def _kill_column(pool: ProcessPoolService) -> None:
    """SIGKILL every replica row of partition column 0 mid-batch."""
    for worker_id, pid in pool.worker_pids().items():
        if worker_id[2] == 0:
            os.kill(pid, signal.SIGKILL)
    return None


def _crash_loop(pool: ProcessPoolService) -> Callable[[], None]:
    """Keep re-killing column 0 until its breakers open, then relent."""
    stop = threading.Event()

    def killer() -> None:
        deadline = time.monotonic() + 10.0
        while not stop.is_set() and time.monotonic() < deadline:
            if pool.metrics.breaker_opens >= pool.config.y:
                break
            for worker_id, pid in pool.worker_pids().items():
                if worker_id[2] == 0:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.01)

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()

    def cleanup() -> None:
        stop.set()
        thread.join(timeout=5.0)

    return cleanup


def _stall(pool: ProcessPoolService) -> Callable[[], None]:
    """SIGSTOP one worker: alive to the OS, silent to the pool."""
    pids = pool.worker_pids()
    victim = sorted(pids)[0]
    pid = pids[victim]
    os.kill(pid, signal.SIGSTOP)

    def cleanup() -> None:
        try:  # the watchdog normally SIGKILLs it first
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            pass

    return cleanup


#: Target shapes for the reconfiguration scenarios (from the default
#: ``MPRConfig(2, 2, 1)``): the rollback one shrinks the partition
#: count, the live one grows it, so both exercise real repartitioning.
RECONFIG_ROLLBACK_TARGET = MPRConfig(1, 2, 1)
RECONFIG_LIVE_TARGET = MPRConfig(3, 1, 1)


def kill_warming_worker(pool: ProcessPoolService) -> None:
    """SIGKILL one warming worker and wait until it is waitable.

    A supervision step reads a killed, not yet waitable child as alive
    and would cut over on already-acked probes (then respawn the victim
    as a serving worker: safe, but not a rollback).  Once the child is
    waitable, the next step must see the death.
    """
    pids = pool.transition_pids()
    victim = pids[sorted(pids)[0]]
    os.kill(victim, signal.SIGKILL)
    os.waitid(os.P_PID, victim, os.WEXITED | os.WNOWAIT)


def _reconfig_kill_new_worker(pool: ProcessPoolService) -> None:
    """Begin a transition, then SIGKILL a warming worker.

    Cutover only ever happens inside the supervision step driven by
    later submits/drains, never inside ``begin_reconfigure``, and the
    victim is dead for certain before that step runs — so the
    transition must roll back and the untouched old shape must stay
    oracle-exact.
    """
    pool.begin_reconfigure(
        RECONFIG_ROLLBACK_TARGET, trigger="chaos", warm_timeout=5.0
    )
    kill_warming_worker(pool)
    return None


def _reconfig_under_load(pool: ProcessPoolService) -> None:
    """Begin a transition mid-stream and let the load drive it home."""
    pool.begin_reconfigure(
        RECONFIG_LIVE_TARGET, trigger="chaos", warm_timeout=10.0
    )
    return None


def _verify_rolled_back(pool: ProcessPoolService) -> list[str]:
    violations: list[str] = []
    outcomes = [event.outcome for event in pool.reconfig_history]
    if outcomes != ["rolled_back"]:
        violations.append(
            f"expected exactly one rolled_back transition, got {outcomes}"
        )
    if pool.generation != 0:
        violations.append(
            f"generation advanced to {pool.generation} despite rollback"
        )
    if pool.config != MPRConfig(2, 2, 1):
        violations.append(f"rollback left config {pool.config}")
    return violations


def _verify_completed(pool: ProcessPoolService) -> list[str]:
    violations: list[str] = []
    outcomes = [event.outcome for event in pool.reconfig_history]
    if outcomes != ["completed"]:
        violations.append(
            f"expected exactly one completed transition, got {outcomes}"
        )
    if pool.generation != 1:
        violations.append(f"generation is {pool.generation}, expected 1")
    if pool.config != RECONFIG_LIVE_TARGET:
        violations.append(f"cutover left config {pool.config}")
    return violations


SCENARIOS: dict[str, _Scenario] = {
    "none": _Scenario(
        "fault-free control: resilience on, nothing injected",
        _no_fault,
        max_miss_rate=0.5,
    ),
    "kill-worker": _Scenario(
        "SIGKILL one worker mid-batch (respawn + replay)",
        _kill_worker,
    ),
    "kill-column": _Scenario(
        "SIGKILL one full partition column mid-batch",
        _kill_column,
    ),
    "crash-loop": _Scenario(
        "re-kill column 0 until its circuit breakers open",
        _crash_loop,
        with_updates=False,
    ),
    "stall": _Scenario(
        "SIGSTOP one worker (only the stall watchdog can tell)",
        _stall,
    ),
    "slow": _Scenario(
        "every query sleeps past the SLO (hedges race, first wins)",
        _no_fault,
        wrap=lambda solution: SlowKNN(solution, delay=0.05),
        # Every replica is slow, so each hedge re-arm can miss again;
        # bound the events, not the (always-missing) query fraction.
        max_miss_rate=3.0,
    ),
    "poison": _Scenario(
        "one query raises inside every replica that tries it",
        _no_fault,
        wrap=PoisonKNN,
        with_updates=False,
        with_poison_query=True,
    ),
    "dropped-ack": _Scenario(
        "a worker exits before acking (EOF, replay, crash loop)",
        _no_fault,
        wrap=ExitingKNN,
        with_updates=False,
        with_poison_query=True,
    ),
    "reconfig-kill-new-worker": _Scenario(
        "SIGKILL a warming worker mid-transition (rollback, old shape "
        "keeps serving)",
        _reconfig_kill_new_worker,
        verify=_verify_rolled_back,
    ),
    "reconfig-under-load": _Scenario(
        "live (x,y,z) transition while the stream is in flight",
        _reconfig_under_load,
        alt_configs=(RECONFIG_LIVE_TARGET,),
        verify=_verify_completed,
    ),
}


def _build_stream(
    num_queries: int,
    num_nodes: int,
    *,
    with_updates: bool,
    with_poison_query: bool,
    deadline: float | None = None,
) -> list[Task]:
    """A deterministic stream: an insert prefix, then all the queries.

    Updates come *first* so the object set is frozen during the query
    phase: a hedge re-executes its query on a sibling row later than
    the original attempt, and only a frozen state makes "plain answers
    equal the serial oracle bit-for-bit" a sound invariant (hedged
    reads are documented to see the replica's current state).  Replay
    correctness for updates is still exercised — killed workers must
    restore the insert prefix before their query answers can match.
    """
    tasks: list[Task] = []
    clock = 0.0
    if with_updates:
        for position in range(num_queries // 4):
            tasks.append(
                InsertTask(
                    clock, 10_000 + position, (position * 13) % num_nodes
                )
            )
            clock += 0.001
    for position in range(num_queries):
        location = (position * 37 + 5) % num_nodes
        if location == POISON_LOCATION:
            location = (location + 1) % num_nodes
        if with_poison_query and position == num_queries // 2:
            location = POISON_LOCATION
        tasks.append(
            QueryTask(clock, position, location, 5, deadline=deadline)
        )
        clock += 0.001
    return tasks


def run_scenario(
    name: str,
    *,
    config: MPRConfig | None = None,
    num_queries: int = 24,
    batch_size: int = 4,
    deadline: float = 0.25,
    drain_timeout: float = 60.0,
    telemetry: Telemetry | None = None,
) -> ChaosReport:
    """Run one chaos scenario and verify the resilience invariants.

    Builds a grid-network fixture, computes the serial oracle, submits
    the stream (injecting the scenario's fault after the first half),
    drains with a hard wall bound, and returns a :class:`ChaosReport`
    whose ``violations`` list is empty exactly when every invariant
    held.  Raises ``KeyError`` for an unknown scenario name.
    """
    scenario = SCENARIOS[name]
    if config is None:
        config = MPRConfig(2, 2, 1)
    network = grid_network(10, 10)
    base = DijkstraKNN(network)
    solution = scenario.wrap(base)
    objects = {i: (i * 7 + 3) % network.num_nodes for i in range(50)}
    tasks = _build_stream(
        num_queries, network.num_nodes,
        with_updates=scenario.with_updates,
        with_poison_query=scenario.with_poison_query,
        deadline=deadline,
    )
    # The oracle runs the *unwrapped* solution: fault wrappers raise or
    # exit by design, and the poison query's truth is never compared
    # (every replica refuses it, so its answer degrades).
    oracle = run_serial_reference(base, objects, tasks)
    if telemetry is None:
        telemetry = Telemetry()
    resilience = ResilienceConfig(
        default_deadline=deadline,
        breaker_failures=2,
        backoff_base=0.2,
        backoff_factor=2.0,
        stall_timeout=0.5,
    )
    violations: list[str] = []
    answers: dict[int, QueryResult] = {}
    drain_seconds = float("nan")
    cleanup: Callable[[], None] | None = None
    with build_executor(
        config, solution, objects,
        mode="process", batch_size=batch_size,
        telemetry=telemetry, resilience=resilience,
    ) as pool:
        half = len(tasks) // 2
        for task in tasks[:half]:
            pool.submit(task)
        cleanup = scenario.inject(pool)
        try:
            for task in tasks[half:]:
                pool.submit(task)
            started = time.monotonic()
            try:
                answers = pool.drain(timeout=drain_timeout)
            except TimeoutError as exc:
                violations.append(f"hang: {exc}")
            drain_seconds = time.monotonic() - started
        finally:
            if cleanup is not None:
                cleanup()
        if scenario.verify is not None:
            violations.extend(scenario.verify(pool))
        metrics = dict(pool.metrics.to_dict())
    counters = telemetry.counters
    report = ChaosReport(
        scenario=name,
        queries=sum(1 for task in tasks if isinstance(task, QueryTask)),
        plain=0,
        degraded=0,
        shed=0,
        drain_seconds=drain_seconds,
        miss_rate=0.0,
        metrics=metrics,
        counters=counters,
        violations=violations,
    )
    _check_answers(
        report, answers, oracle, config, telemetry,
        alt_configs=scenario.alt_configs,
    )
    if report.queries:
        report.miss_rate = (
            metrics.get("deadline_misses", 0) / report.queries
        )
    if report.miss_rate > scenario.max_miss_rate:
        violations.append(
            f"miss rate {report.miss_rate:.2f} exceeds the "
            f"{scenario.max_miss_rate:.2f} bound"
        )
    if not violations and len(answers) != report.queries:
        violations.append(
            f"{len(answers)} answers for {report.queries} queries"
        )
    return report


def _check_answers(
    report: ChaosReport,
    answers: Mapping[int, QueryResult],
    oracle: Mapping[int, Sequence[Neighbor]],
    config: MPRConfig,
    telemetry: Telemetry,
    *,
    alt_configs: Sequence[MPRConfig] = (),
) -> None:
    """Tally every answer by status; append violations.

    ``alt_configs`` lists additional shapes whose full column sets are
    acceptable execute-span coverage: a reconfiguration scenario's
    queries are answered entirely under whichever shape routed them, so
    each trace must cover exactly one shape's columns — never a mix.
    """
    column_sets = [
        {
            (layer, column)
            for layer in range(shape.z)
            for column in range(shape.x)
        }
        for shape in (config, *alt_configs)
    ]
    valid_columns = set().union(*column_sets)
    for query_id, result in sorted(answers.items()):
        if result.status is ResultStatus.OVERLOADED:
            report.shed += 1
            continue
        if result.status is ResultStatus.PARTIAL:
            report.degraded += 1
            if not set(result.missing_columns) <= valid_columns:
                report.violations.append(
                    f"query {query_id}: degraded answer names unknown "
                    f"columns {result.missing_columns}"
                )
            if sorted(result.neighbors) != list(result.neighbors):
                report.violations.append(
                    f"query {query_id}: degraded answer is not canonical"
                )
            truth = {n.object_id: n.distance for n in oracle[query_id]}
            for neighbor in result.neighbors:
                known = truth.get(neighbor.object_id)
                if known is not None and known != neighbor.distance:
                    report.violations.append(
                        f"query {query_id}: degraded answer has a wrong "
                        f"distance for object {neighbor.object_id}"
                    )
            continue
        report.plain += 1
        if list(result.neighbors) != list(oracle[query_id]):
            report.violations.append(
                f"query {query_id}: wrong answer "
                f"{list(result.neighbors)!r} != {list(oracle[query_id])!r}"
            )
        trace = telemetry.trace(query_id)
        if trace is None or not trace.spans:
            report.violations.append(f"query {query_id}: no trace")
            continue
        covered = {
            (span.worker[0], span.worker[2])
            for span in trace.stage_spans("execute")
            if span.worker is not None
        }
        if covered not in column_sets:
            report.violations.append(
                f"query {query_id}: execute spans cover {sorted(covered)}, "
                "expected every column of one shape among "
                f"{[sorted(columns) for columns in column_sets]}"
            )
