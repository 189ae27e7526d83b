"""The unified executor API: one entry point, one executor.

Callers pick a configuration, not a class:

* :func:`build_executor` — the one construction path.  Takes the
  arrangement first (``config`` is the decision MPR's optimizer makes;
  the worker kind is an implementation detail), picks process or
  thread workers via ``mode``, and threads a
  :class:`repro.obs.Telemetry` through every layer it builds.  There
  is no other public way to construct an executor.
* :class:`MPRSystem` — a convenience wrapper owning an executor plus a
  default-enabled telemetry handle, for scripts and notebooks that
  want answers *and* a latency report without wiring either.

Every executor built here is a :class:`repro.mpr.process_executor.
ProcessPoolService` and keeps its contract: ``start()``/``submit()``/
``flush()``/``drain()``/``run()``/``close()`` plus the context-manager
form, with serial-equivalent answers across worker kinds.

For serving, :meth:`MPRSystem.submit_async` returns a
:class:`concurrent.futures.Future` resolving to a typed
:class:`~repro.mpr.results.QueryResult` envelope.  Underneath it a
:class:`_CompletionPump` thread takes exclusive ownership of the
executor and turns the batch-oriented ``submit``/``drain`` cycle into
per-task completions, so a caller (the ``repro.serve`` event loop in
particular) never sits in a ``drain()`` barrier.
"""

from __future__ import annotations

import queue as queue_module
import threading
from concurrent.futures import Future
from typing import Any, Mapping, Sequence

from ..graph.kernels import QUERIES_PER_SWEEP
from ..knn.base import KNNSolution
from ..objects.tasks import Task, TaskKind
from ..obs import Telemetry
from .config import MPRConfig
from .executor import QuiesceTimeout
from .process_executor import ProcessPoolService, WorkerCrash
from .reconfig import (
    DEFAULT_RETIRE_TIMEOUT,
    DEFAULT_SETTLE_TIMEOUT,
    DEFAULT_TRIGGER,
    DEFAULT_WAIT_RETIRE,
    DEFAULT_WARM_TIMEOUT,
    ReconfigEvent,
    ReconfigManager,
    ReconfigPolicy,
)
from .resilience import ResilienceConfig
from .results import QueryResult

__all__ = ["MPRSystem", "build_executor"]

#: The worker kinds ``build_executor`` knows how to realize.
EXECUTOR_MODES = ("thread", "process")

#: Most tasks one completion-pump cycle submits before it drains.
_PUMP_MAX_BATCH = 256


def build_executor(
    config: MPRConfig,
    solution: KNNSolution,
    objects: Mapping[int, int] | None = None,
    *,
    mode: str = "thread",
    telemetry: Telemetry | None = None,
    check_invariants: bool = False,
    batch_size: int = QUERIES_PER_SWEEP,
    start_method: str = "fork",
    health_check_interval: float = 0.05,
    max_respawns: int = 3,
    resilience: ResilienceConfig | None = None,
) -> ProcessPoolService:
    """Build an executor realizing ``config`` over the chosen worker kind.

    Parameters
    ----------
    config:
        The ``(x, y, z)`` core-matrix arrangement to realize.
    solution:
        Prototype kNN solution; each worker gets ``solution.spawn``-ed
        onto its object cell.
    objects:
        Initial object placements ``object_id -> node`` (default: start
        empty and build state through insert tasks).
    mode:
        The worker kind behind the one data plane
        (:class:`~repro.mpr.process_executor.ProcessPoolService`).
        ``"process"`` — forked worker processes: real parallelism, and
        every fault rung (SIGKILL respawn, stall watchdog).
        ``"thread"`` — the same protocol over in-process worker
        threads: no fork, shared memory, batching/hedging/degraded
        answers/live reconfiguration all included, but GIL-bound and
        un-killable — correctness, not speed (measured in
        :mod:`repro.mpr.transport`, which is where the two kinds live).
    telemetry:
        A :class:`repro.obs.Telemetry` recorded into by every layer
        (router, batcher, workers).  Default: the shared disabled
        handle, which keeps the hot path a single branch.
    check_invariants:
        Assert the Section IV-A partition/replication invariants on
        the workers' acknowledged cells after every ``run()``.
    batch_size:
        Queries per worker message — one kernel sweep's worth; updates
        ride along; ``batch_size=1`` is per-query dispatch.
    health_check_interval, max_respawns:
        Forwarded to the pool (see
        :class:`repro.mpr.process_executor.ProcessPoolService`).
    start_method:
        Process mode only: the ``multiprocessing`` start method; under
        ``spawn``/``forkserver`` the road network is published to shared
        memory first (see :class:`~repro.mpr.transport.ProcessTransport`).
        Thread workers share the caller's memory.
    resilience:
        A :class:`repro.mpr.resilience.ResilienceConfig` enabling the
        resilience layer (``None`` disables it entirely): deadlines
        with hedged replica reads, admission-controlled shedding,
        circuit breakers with quarantine, degraded (``PARTIAL``)
        answers and — for process workers only — the stall watchdog.

    Returns
    -------
    ProcessPoolService
        Unstarted; call ``start()`` or use the context-manager form,
        and ``close()`` it (or leave the ``with`` block) in both modes.
    """
    if mode not in EXECUTOR_MODES:
        raise ValueError(
            f"unknown executor mode {mode!r}; expected one of {EXECUTOR_MODES}"
        )
    return ProcessPoolService(
        solution, config, objects if objects is not None else {},
        batch_size=batch_size,
        start_method="thread" if mode == "thread" else start_method,
        health_check_interval=health_check_interval,
        max_respawns=max_respawns,
        telemetry=telemetry,
        resilience=resilience,
        check_invariants=check_invariants,
    )


class _ReconfigureRequest:
    """A pump control item: reconfigure between two drain cycles.

    The pump thread owns the executor once serving starts, so a live
    shape change must go through its queue like everything else — it
    acts as a cycle boundary: tasks queued before it are submitted (and
    ride through the cutover in flight), the reconfiguration runs, and
    tasks queued after it are routed by the new shape.
    """

    __slots__ = ("new_config", "kwargs", "future")

    def __init__(
        self, new_config: MPRConfig, kwargs: dict[str, Any], future: Future
    ) -> None:
        self.new_config = new_config
        self.kwargs = kwargs
        self.future = future


class _CompletionPump:
    """A thread turning the batch ``submit``/``drain`` cycle into futures.

    The executor contract is batch-synchronous: answers only exist
    after a ``drain()`` barrier, and the executor is not thread-safe.
    The pump is the one thread that touches the executor once serving
    starts: it pulls ``(task, future)`` pairs from a queue in FCFS
    order, submits a micro-batch (everything queued, up to
    ``_PUMP_MAX_BATCH``) as one planned cycle — a small one fills a
    kernel sweep on one replica row before it spreads over rows
    (:meth:`ProcessPoolService.plan`) — drains, and resolves each
    query's future with the :class:`QueryResult` the drain returned for
    it (update futures
    resolve to ``None`` after the drain that made them visible).
    Callers — the asyncio server above all — therefore get per-task
    completion without ever blocking in the barrier themselves.

    Failure mapping, so a sick pool cannot hang an RPC forever:

    * :class:`QuiesceTimeout` — the queries it names resolve as
      ``TIMEOUT``; the rest of the cycle gets one short follow-up
      drain, then times out too.
    * :class:`WorkerCrash`/``RuntimeError`` — every future of the
      cycle resolves as ``ERROR`` with the crash detail.
    * ``stop()`` — queued-but-unsubmitted tasks resolve as ``TIMEOUT``
      ("shutting down"); the in-flight cycle finishes first.
    """

    def __init__(
        self, executor: ProcessPoolService, drain_timeout: float | None
    ) -> None:
        self._executor = executor
        self._drain_timeout = drain_timeout
        self._queue: queue_module.SimpleQueue = queue_module.SimpleQueue()
        self._stopping = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="mpr-completion-pump", daemon=True
        )
        self._thread.start()

    def submit(self, task: Task) -> "Future[QueryResult | None]":
        """Enqueue one task; the future resolves when its drain lands."""
        if self._stopping.is_set():
            raise RuntimeError("completion pump is stopped")
        future: Future = Future()
        self._queue.put((task, future))
        return future

    def reconfigure(
        self, new_config: MPRConfig, **kwargs: Any
    ) -> "Future[ReconfigEvent]":
        """Enqueue a live shape change; FCFS with the task stream."""
        if self._stopping.is_set():
            raise RuntimeError("completion pump is stopped")
        future: Future = Future()
        self._queue.put(_ReconfigureRequest(new_config, kwargs, future))
        return future

    def stop(self, timeout: float | None = None) -> None:
        """Finish the in-flight cycle, fail the queue, join the thread."""
        if not self._stopping.is_set():
            self._stopping.set()
            self._queue.put(None)
        self._thread.join(timeout)

    # ------------------------------------------------------------------
    def _next_cycle(self) -> list[tuple[Task, Future]] | None:
        """Block for the first item, then sweep the queue (bounded)."""
        item = self._queue.get()
        if item is None:
            return None
        cycle = [item]
        if isinstance(item, _ReconfigureRequest):
            return cycle
        while len(cycle) < _PUMP_MAX_BATCH:
            try:
                item = self._queue.get_nowait()
            except queue_module.Empty:
                break
            if item is None:
                return cycle  # drain this cycle, then exit the loop
            cycle.append(item)
            if isinstance(item, _ReconfigureRequest):
                break  # cycle boundary: later tasks ride the new shape
        return cycle

    def _resolve(self, cycle: list[Any]) -> None:
        """Run one planned submit→drain cycle and settle every future
        in it (the drain's flush closes the plan)."""
        request: _ReconfigureRequest | None = None
        submitted: list[tuple[Task, Future]] = []
        self._executor.plan([
            item[0] for item in cycle
            if not isinstance(item, _ReconfigureRequest)
        ])
        for item in cycle:
            if isinstance(item, _ReconfigureRequest):
                request = item
                continue
            task, future = item
            try:
                self._executor.submit(task)
            except Exception as exc:  # routing/admission blew up
                future.set_exception(exc)
                continue
            submitted.append((task, future))
        if request is not None:
            # Reconfigure with this cycle's queries in flight: the wait
            # loop keeps collecting their acks, the drain below settles
            # them — under the old shape on rollback, the new on cutover.
            self._run_reconfigure(request)
        if not submitted:
            return
        try:
            results = self._executor.drain(timeout=self._drain_timeout)
        except QuiesceTimeout as exc:
            results = self._recover_timeout(submitted, exc)
        except (WorkerCrash, RuntimeError) as exc:
            for task, future in submitted:
                if task.kind is TaskKind.QUERY:
                    future.set_result(
                        QueryResult.failed(task.query_id, str(exc))
                    )
                else:
                    future.set_exception(exc)
            return
        for task, future in submitted:
            if task.kind is TaskKind.QUERY:
                result = results.get(task.query_id)
                if result is None:
                    result = QueryResult.timed_out(
                        task.query_id,
                        "query lost by the executor drain",
                    )
                future.set_result(result)
            else:
                future.set_result(None)

    def _run_reconfigure(self, request: _ReconfigureRequest) -> None:
        try:
            request.future.set_result(
                self._executor.reconfigure(
                    request.new_config, **request.kwargs
                )
            )
        except Exception as exc:  # rejected / timed out / crashed
            request.future.set_exception(exc)

    def _recover_timeout(
        self, submitted: list[tuple[Task, Future]], exc: QuiesceTimeout
    ) -> dict[int, QueryResult]:
        """Fail the queries a drain timeout names; salvage the rest.

        The :class:`QuiesceTimeout` carries the affected query ids so
        we can fail exactly those in-flight RPCs and give everyone else
        one more — short — chance to surface answers that were already
        merged.  With nobody else in the cycle there is nothing to
        salvage, and the pump goes straight back to its queue.
        """
        stuck = set(exc.query_ids)
        for task, future in submitted:
            if task.kind is TaskKind.QUERY and task.query_id in stuck:
                future.set_result(
                    QueryResult.timed_out(task.query_id, str(exc))
                )
        remaining = [
            (task, future)
            for task, future in submitted
            if not (task.kind is TaskKind.QUERY and task.query_id in stuck)
        ]
        submitted[:] = remaining
        if not remaining:
            return {}
        try:
            return self._executor.drain(timeout=1.0)
        except Exception:
            return {}

    def _loop(self) -> None:
        while True:
            cycle = self._next_cycle()
            if cycle is None:
                break
            self._resolve(cycle)
            if self._stopping.is_set() and self._queue.empty():
                break
        # Fail whatever raced in behind the sentinel — never hang a
        # caller on a future nobody will resolve.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue_module.Empty:
                break
            if item is None:
                continue
            if isinstance(item, _ReconfigureRequest):
                item.future.set_exception(RuntimeError("shutting down"))
                continue
            task, future = item
            if task.kind is TaskKind.QUERY:
                future.set_result(
                    QueryResult.timed_out(task.query_id, "shutting down")
                )
            else:
                future.set_exception(RuntimeError("shutting down"))


class MPRSystem:
    """An executor bundled with always-on telemetry and reporting.

    The two-line serving setup::

        with MPRSystem(config, solution, objects, mode="process") as system:
            results = system.run_results(tasks)
            print(system.report())

    Accepts the same arguments as :func:`build_executor` but defaults
    ``telemetry`` to a fresh *enabled* handle — the wrapper exists to
    make the traced path the easy path.  :meth:`stats` and
    :meth:`report` expose the telemetry.

    Every outcome is a :class:`~repro.mpr.results.QueryResult`
    envelope: :meth:`run_results` executes a whole task stream, and
    :meth:`submit_async` returns a :class:`concurrent.futures.Future`
    per task (``None`` for updates).  First use of ``submit_async``
    starts the :class:`_CompletionPump`, which then owns the executor
    until :meth:`close` — the executor is not thread-safe, so from then
    on ``run_results`` goes through the pump too.  The blocking
    ``submit``/``flush``/``drain`` cycle lives on :attr:`executor`
    (and answers in the same envelopes).
    """

    def __init__(
        self,
        config: MPRConfig,
        solution: KNNSolution,
        objects: Mapping[int, int] | None = None,
        *,
        mode: str = "thread",
        telemetry: Telemetry | None = None,
        **options: Any,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._pump_drain_timeout = options.pop("pump_drain_timeout", 30.0)
        self.executor = build_executor(
            config, solution, objects,
            mode=mode, telemetry=self.telemetry, **options,
        )
        self._pump: _CompletionPump | None = None
        self._manager: ReconfigManager | None = None

    @property
    def config(self) -> MPRConfig:
        return self.executor.config

    @property
    def num_nodes(self) -> int | None:
        """Nodes of the served road network (see
        :attr:`ProcessPoolService.num_nodes`)."""
        return self.executor.num_nodes

    def start(self) -> "MPRSystem":
        self.executor.start()
        return self

    def close(self) -> None:
        if self._manager is not None:
            self._manager.stop()
            self._manager = None
        if self._pump is not None:
            self._pump.stop()
            self._pump = None
        self.executor.close()

    # ------------------------------------------------------------------
    # Task execution (futures + QueryResult envelopes)
    # ------------------------------------------------------------------
    def submit_async(self, task: Task) -> "Future[QueryResult | None]":
        """Submit one task; get a future instead of joining a barrier.

        The returned :class:`concurrent.futures.Future` resolves to a
        :class:`~repro.mpr.results.QueryResult` for queries (every
        outcome — full answer, degraded ``PARTIAL``, shed
        ``OVERLOADED``, drain ``TIMEOUT``, crash ``ERROR`` — is a
        *result*, never an exception) and to ``None`` for updates once
        the drain that made them visible completes.  FCFS order across
        calls is preserved.  First call starts the completion pump,
        which owns the executor until :meth:`close`.
        """
        return self._ensure_pump().submit(task)

    def _ensure_pump(self) -> _CompletionPump:
        if self._pump is None:
            self.executor.start()
            self._pump = _CompletionPump(
                self.executor, self._pump_drain_timeout
            )
        return self._pump

    def run_results(
        self, tasks: Sequence[Task]
    ) -> dict[int, QueryResult]:
        """Execute a task stream; return enveloped per-query outcomes.

        One :class:`~repro.mpr.results.QueryResult` per query id.  Goes
        through :meth:`submit_async` when the pump is already running,
        else it *is* one blocking ``executor.run()``.  The envelopes are
        the same either way; what differs is a pool that fails under
        the drain: the un-pumped path raises
        :class:`~repro.mpr.process_executor.WorkerCrash` where the
        pumped one answers ``ERROR``.
        """
        if self._pump is not None:
            futures = [(task, self.submit_async(task)) for task in tasks]
            return {
                task.query_id: future.result()
                for task, future in futures
                if task.kind is TaskKind.QUERY
            }
        return self.executor.run(tasks)

    def __enter__(self) -> "MPRSystem":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Live reconfiguration
    # ------------------------------------------------------------------
    def reconfigure(
        self,
        new_config: MPRConfig,
        *,
        trigger: str = DEFAULT_TRIGGER,
        warm_timeout: float = DEFAULT_WARM_TIMEOUT,
        retire_timeout: float = DEFAULT_RETIRE_TIMEOUT,
        wait_retire: bool = DEFAULT_WAIT_RETIRE,
        timeout: float = DEFAULT_SETTLE_TIMEOUT,
    ) -> ReconfigEvent:
        """Change the serving ``(x, y, z)`` live, without downtime.

        Before the pump starts this delegates to
        :meth:`ProcessPoolService.reconfigure
        <repro.mpr.process_executor.ProcessPoolService.reconfigure>`
        directly; once :meth:`submit_async` has started the completion
        pump, the request is enqueued FCFS with the task stream and
        executes between two drain cycles (queries already queued ride
        through the cutover in flight).  Returns the terminal
        :class:`~repro.mpr.reconfig.ReconfigEvent`; raises
        :class:`~repro.mpr.reconfig.ReconfigRejected` when refused.
        """
        kwargs = dict(
            trigger=trigger,
            warm_timeout=warm_timeout,
            retire_timeout=retire_timeout,
            wait_retire=wait_retire,
            timeout=timeout,
        )
        if self._pump is not None:
            return self._pump.reconfigure(new_config, **kwargs).result()
        return self.executor.reconfigure(new_config, **kwargs)

    def enable_auto_reconfigure(
        self,
        profile: Any,
        machine: Any,
        *,
        policy: ReconfigPolicy | None = None,
        estimator: Any | None = None,
        interval: float | None = None,
    ) -> ReconfigManager:
        """Attach a :class:`~repro.mpr.reconfig.ReconfigManager`.

        The manager watches this system's telemetry (router counter
        deltas, resilience pressure counters), re-solves the Eq. 5/7
        optimization with hysteresis + cooldown, and calls
        :meth:`reconfigure` with an ``"auto"`` trigger when a switch
        clearly pays.  With ``interval=None`` (default) nothing runs by
        itself — call ``manager.poll()`` from your own loop (the soak
        harness drives synthetic time this way).  With an interval, a
        daemon thread polls continuously; that is only safe once the
        completion pump owns the executor, so the pump is started as a
        side effect.  :meth:`close` stops the manager.
        """
        if self._manager is not None:
            return self._manager
        self._manager = ReconfigManager(
            self, profile, machine, policy=policy, estimator=estimator
        )
        if interval is not None:
            self._ensure_pump()
            self._manager.start(interval)
        return self._manager

    @property
    def reconfig_history(self) -> list[ReconfigEvent]:
        """Audited shape changes, oldest first."""
        return list(self.executor.reconfig_history)

    def stats(self) -> dict[str, Any]:
        """JSON-ready telemetry snapshot (stages, counters, traces).

        When the executor has reconfigured, a ``"reconfigurations"``
        list (one :meth:`~repro.mpr.reconfig.ReconfigEvent.to_dict`
        entry per attempt, oldest first) rides along; with an
        auto-reconfigure manager attached, so does
        ``"auto_reconfigure"`` — its background loop's failed polls
        (also the ``reconfig.poll_errors`` counter) and the last error.
        """
        stats = self.telemetry.summary()
        history = self.reconfig_history
        if history:
            stats["reconfigurations"] = [
                event.to_dict() for event in history
            ]
        manager = self._manager
        if manager is not None:
            stats["auto_reconfigure"] = {
                "poll_errors": manager.poll_errors,
                "last_error": (
                    None if manager.last_error is None
                    else repr(manager.last_error)
                ),
            }
        return stats

    def report(self) -> str:
        """Human-readable per-stage latency table (+ reconfig history)."""
        from ..harness.report import telemetry_report

        text = telemetry_report(self.telemetry)
        history = self.reconfig_history
        if history:
            lines = ["reconfigurations:"]
            for event in history:
                old, new = event.old_config, event.new_config
                line = (
                    f"  [{event.trigger}] "
                    f"({old.x},{old.y},{old.z}) -> ({new.x},{new.y},{new.z})"
                    f"  {event.outcome}"
                )
                if event.phases.get("warm") is not None:
                    line += f"  warm={event.phases['warm'] * 1e3:.1f} ms"
                if event.reason:
                    line += f"  ({event.reason})"
                if event.generation is not None:
                    line += f"  gen={event.generation}"
                lines.append(line)
            text = text.rstrip("\n") + "\n\n" + "\n".join(lines) + "\n"
        return text
