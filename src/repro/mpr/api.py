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
:class:`_CompletionPump` takes exclusive ownership of the executor and
turns the batch-oriented ``submit``/``drain`` cycle into per-task
completions, so no caller sits in a ``drain()`` barrier.  The pump is
a steppable cycle machine with no thread of its own; an event loop
drives it, and that loop's thread is the only one that touches the
executor.  Who drives it: the ``repro.serve`` server's own loop
(:meth:`MPRSystem.attach_loop`, which ``MPRServer.start()`` calls), so
socket → fair queue → cycle → pipe → ack → response runs on one
thread; otherwise a private loop thread the system starts on first
use (scripts, ``run_results`` once the pump runs, a background
:class:`~repro.mpr.reconfig.ReconfigManager`), which callers on other
threads reach through ``call_soon_threadsafe``.  What can block the
driving loop is bounded and confined to fault and reconfigure paths:
a dead or stalled worker's one-second ``join`` before its respawn, and
the forks of a shape change's new workers.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import Future
from typing import Any, Mapping, Sequence

from ..graph.kernels import QUERIES_PER_SWEEP
from ..knn.base import KNNSolution
from ..objects.tasks import Task, TaskKind
from ..obs import Telemetry
from .config import MPRConfig
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
    """A pump control item: reconfigure between two cycles.

    The pump owns the executor once serving starts, so a live shape
    change goes through its queue like everything else — it acts as a
    cycle boundary: tasks queued before it are submitted (and ride
    through the cutover in flight), the shape change is begun and
    stepped to a terminal event, and tasks queued after it are routed
    by the new shape.
    """

    __slots__ = ("new_config", "kwargs", "future", "event", "due")

    def __init__(
        self, new_config: MPRConfig, kwargs: dict[str, Any], future: Future
    ) -> None:
        self.new_config = new_config
        self.kwargs = kwargs
        self.future = future
        self.event: ReconfigEvent | None = None
        self.due = 0.0  # when waiting for the event gives up

    def settled(self) -> bool:
        """The event is terminal (and, with ``wait_retire``, a completed
        change has retired its old shape)."""
        event = self.event
        return event.outcome != "pending" and not (
            self.kwargs["wait_retire"] and event.outcome == "completed"
            and "retire" not in event.phases
        )


def _shutting_down(item: Any) -> None:
    """Fail one queued pump item: it will never reach the executor."""
    if isinstance(item, _ReconfigureRequest):
        item.future.set_exception(RuntimeError("shutting down"))
        return
    task, future = item
    if task.kind is TaskKind.QUERY:
        future.set_result(QueryResult.timed_out(task.query_id, "shutting down"))
    else:
        future.set_exception(RuntimeError("shutting down"))


def _call_into(result: Future, fn: Any, args: tuple) -> None:
    try:
        result.set_result(fn(*args))
    except Exception as exc:  # handed to the waiting caller
        result.set_exception(exc)


class _CompletionPump:
    """A cycle machine turning the batch ``submit``/``drain`` cycle into
    futures; it has no thread of its own.

    The executor contract is batch-synchronous and the executor is not
    thread-safe, so the pump is the one owner of the executor once
    serving starts, and whoever drives the pump is the one thread that
    touches it.  :meth:`submit` and :meth:`reconfigure` queue FCFS on
    the driving loop's thread (from any other thread they are handed over
    with ``call_soon_threadsafe``); :meth:`step` advances the machine
    and never blocks on the transport.  One cycle is in flight at a
    time: everything queued (up to ``_PUMP_MAX_BATCH``, or up to a
    reconfigure request) is checked, then what passed is planned — a
    small cycle fills a kernel sweep on one replica row before it
    spreads over rows (:meth:`repro.mpr.core_matrix.MPRRouter.plan`) — sent, and
    booked (:meth:`ProcessPoolService._dispatch`); each
    step then resolves the futures of the queries
    :meth:`ProcessPoolService.step` returned, in place, and once the
    pool is quiescent the update futures resolve to ``None`` and the
    next cycle starts.

    Driven by an event loop (:meth:`attach`), the loop watches the
    pool's whole wait set with one ``add_reader`` and steps when it is
    readable, when a cycle's worth of work has been queued, and when
    the one timer — armed only while a cycle is in flight — comes due:
    the health-check interval, the nearest armed deadline, or the
    cycle's drain timeout.  Steps that can block the loop are the
    fault and reconfigure paths only, and bounded: a dead or stalled
    worker's ``join(handle, 1.0)`` before its respawn, and the forks of
    a shape change's new workers in ``begin_reconfigure``.

    Failure mapping, so a sick pool cannot hang an RPC forever:

    * drain timeout (the cycle not settled ``drain_timeout`` seconds
      after it started) — every query still owed resolves as
      ``TIMEOUT`` with the pool's diagnostic, which names it
      (:meth:`ProcessPoolService.timeout_error`); its updates resolve.
    * :class:`WorkerCrash`/``RuntimeError`` — every future of the
      cycle still owed resolves as ``ERROR`` with the crash detail.
    * :meth:`stop` — queued-but-unsubmitted tasks resolve as
      ``TIMEOUT`` ("shutting down"); the in-flight cycle finishes
      first.
    """

    def __init__(
        self, executor: ProcessPoolService, drain_timeout: float | None
    ) -> None:
        self._executor = executor
        self._drain_timeout = drain_timeout
        #: The pool's clock — virtual on a fake transport.
        self._now = executor._now
        self._queue: deque = deque()
        #: The in-flight cycle: query futures still owed, by query id;
        #: its update futures; its reconfigure request; when it times
        #: out (None: never, or not before the request settles).
        self._busy = False
        self._queries: dict[int, Future] = {}
        self._updates: list[Future] = []
        self._request: _ReconfigureRequest | None = None
        self._wall: float | None = None
        #: The cycle's refused tasks by position (reused, left empty).
        self._refused: dict[int, Exception] = {}
        self._stopping = False
        #: Set when the pump is stopped and its last cycle has ended.
        self.stopped = threading.Event()
        #: The driving loop and its thread (None: stepped by hand).
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread_id: int | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._kicked = False

    # -- the caller's side ---------------------------------------------
    def submit(self, task: Task) -> "Future[QueryResult | None]":
        """Queue one task; its future resolves once its cycle settles
        it."""
        future: Future = Future()
        self._enqueue([(task, future)])
        return future

    def submit_all(
        self, tasks: Sequence[Task]
    ) -> "list[Future[QueryResult | None]]":
        """:meth:`submit` for many tasks, handed over at once."""
        items = [(task, Future()) for task in tasks]
        self._enqueue(items)
        return [future for _task, future in items]

    def reconfigure(
        self, new_config: MPRConfig, **kwargs: Any
    ) -> "Future[ReconfigEvent]":
        """Queue a live shape change; FCFS with the task stream."""
        request = _ReconfigureRequest(new_config, kwargs, Future())
        self._enqueue([request])
        return request.future

    def on_loop_thread(self) -> bool:
        return threading.get_ident() == self._thread_id

    def _enqueue(self, items: list) -> None:
        if self._stopping:
            raise RuntimeError("completion pump is stopped")
        if self.loop is not None and not self.on_loop_thread():
            self.loop.call_soon_threadsafe(self._hand_over, items)
        else:
            self._enqueue_here(items)

    def _enqueue_here(self, items: list) -> None:
        self._queue.extend(items)
        if not self._busy and not self._kicked and self.loop is not None:
            # Start the cycle once this loop iteration has queued all it
            # will: the server's dispatcher releases a burst in one go.
            self._kicked = True
            self.loop.call_soon(self.step)

    def _hand_over(self, items: list) -> None:
        """Items from another thread, now on the loop's: one
        hand-over is one burst, so an idle pump starts it at once."""
        if self._stopping:  # stopped while the hand-over was queued
            for item in items:
                _shutting_down(item)
            return
        self._queue.extend(items)
        if not self._busy:
            self.step()

    def stop(self) -> None:
        """Fail the queue; the in-flight cycle finishes first (set
        :attr:`stopped` then).  On the driving loop's thread."""
        self._stopping = True
        while self._queue:
            _shutting_down(self._queue.popleft())
        if not self._busy:
            self.stopped.set()

    @property
    def idle(self) -> bool:
        return not self._busy and not self._queue

    # -- the driving loop's side --------------------------------------
    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Be driven by ``loop``; call on its thread."""
        self.loop, self._thread_id = loop, threading.get_ident()
        loop.add_reader(self._executor.fileno(), self.step)
        if not self.idle:
            self._kicked = True
            loop.call_soon(self.step)

    def detach(self) -> None:
        """Stop being driven (the machine keeps its state); call on the
        driving loop's thread, or once that loop no longer runs."""
        loop, self.loop, self._thread_id = self.loop, None, None
        if loop is None:
            return
        loop.remove_reader(self._executor.fileno())
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._kicked = False

    def step(self) -> None:
        """Advance the machine: settle what the pool has for the cycle
        in flight; start the next cycle once it has settled."""
        self._kicked = False
        try:
            results = self._executor.step()
        except (WorkerCrash, RuntimeError) as exc:
            self._fail_cycle(exc)
            results = {}
        if self._busy:
            self._settle(results)
        while not self._busy and self._queue:
            self._start_cycle()
        self._arm()

    def _settle(self, results: dict[int, QueryResult]) -> None:
        queries = self._queries
        for query_id, result in results.items():
            future = queries.pop(query_id, None)
            if future is not None:  # else: a cycle that timed out
                future.set_result(result)
        now = self._now()
        request = self._request
        if request is not None:
            if request.settled():
                request.future.set_result(request.event)
            elif now >= request.due:
                config = request.new_config
                request.future.set_exception(TimeoutError(
                    f"reconfiguration to ({config.x}, {config.y}, "
                    f"{config.z}) did not settle within "
                    f"{request.kwargs['timeout']} s "
                    f"(outcome={request.event.outcome!r})"
                ))
            else:
                return  # no cycle settles before its shape change
            self._request = None
            self._arm_wall(now)
        if not queries and (not self._updates or self._executor.quiescent):
            self._end_cycle()
        elif self._wall is not None and now >= self._wall:
            self._time_out()

    def _arm_wall(self, now: float) -> None:
        """The drain timeout runs from here (a cycle's start, or the
        end of its shape change)."""
        self._wall = (
            None if self._drain_timeout is None else now + self._drain_timeout
        )

    def _start_cycle(self) -> None:
        executor, queue = self._executor, self._queue
        cycle: list[tuple[Task, Future]] = []
        while queue and len(cycle) < _PUMP_MAX_BATCH:
            if isinstance(queue[0], _ReconfigureRequest):
                self._request = queue.popleft()
                break  # cycle boundary: later tasks ride the new shape
            cycle.append(queue.popleft())
        self._busy = True
        tasks = [task for task, _future in cycle]
        refused = self._refused
        failure: Exception | None = None
        try:  # a task failing its check or its route lands in refused
            executor._dispatch(tasks, True, refused)
        except Exception as exc:  # the pool failed under the cycle
            failure = exc
        queries, updates = self._queries, self._updates
        for index, (task, future) in enumerate(cycle):
            if refused and index in refused:
                future.set_exception(refused.pop(index))
            elif task.kind is TaskKind.QUERY:
                queries[task.query_id] = future
            else:
                updates.append(future)
        if failure is not None:
            self._fail_cycle(failure)
        now = self._now()
        self._arm_wall(now)
        request = self._request
        if request is not None:
            kwargs = request.kwargs
            try:
                request.event = executor.begin_reconfigure(
                    request.new_config, trigger=kwargs["trigger"],
                    warm_timeout=kwargs["warm_timeout"],
                    retire_timeout=kwargs["retire_timeout"],
                )
            except Exception as exc:  # rejected / spawn failed
                request.future.set_exception(exc)
                self._request = None
            else:
                request.due = now + kwargs["timeout"]
                self._wall = None
        if not queries and not updates and self._request is None:
            self._end_cycle()  # nothing was submitted

    def _end_cycle(self) -> None:
        for future in self._updates:
            future.set_result(None)
        self._updates.clear()
        self._busy = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._stopping:
            self.stopped.set()

    def _time_out(self) -> None:
        """The cycle's drain timeout: resolve what it still owes."""
        detail = str(self._executor.timeout_error(self._drain_timeout))
        for query_id, future in self._queries.items():
            future.set_result(QueryResult.timed_out(query_id, detail))
        self._queries.clear()
        self._end_cycle()

    def _fail_cycle(self, exc: Exception) -> None:
        """The pool failed under the cycle: every future it still owes
        learns why."""
        for query_id, future in self._queries.items():
            future.set_result(QueryResult.failed(query_id, str(exc)))
        self._queries.clear()
        for future in self._updates:
            future.set_exception(exc)
        self._updates.clear()
        if self._request is not None:
            self._request.future.set_exception(exc)
            self._request = None

    def _arm(self) -> None:
        """Keep the one timer due by the next time the cycle in flight
        needs a step with no message: health check, armed deadline,
        drain timeout or reconfigure timeout."""
        loop = self.loop
        if loop is None or not self._busy:
            return
        now = self._now()
        due = now + self._executor.step_within()
        for bound in (self._wall, self._request and self._request.due):
            if bound:
                due = min(due, bound)
        timer = self._timer
        if timer is not None:
            if timer.when() <= loop.time() + (due - now):
                return
            timer.cancel()
        self._timer = loop.call_later(max(due - now, 0.0), self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self.step()


class _LoopThread:
    """A private event loop on a daemon thread: what drives the pump for
    callers that have no loop of their own."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="mpr-pump-loop", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.close()


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
    per task (``None`` for updates).  First use of ``submit_async`` (or
    :meth:`attach_loop`) starts the :class:`_CompletionPump`, which then
    owns the executor until :meth:`close` — the executor is not
    thread-safe, so from then on ``run_results`` and
    :meth:`reconfigure` go through the pump too.  The pump is driven
    by one event loop at a time: the loop handed over with
    :meth:`attach_loop` (the serving tier's), else a private daemon
    loop thread named ``mpr-pump-loop``; only that loop's thread
    touches the executor, and a blocking call that waits for the pump
    (``run_results``, ``reconfigure``) refuses to run on it.  The
    blocking ``submit``/``flush``/``drain`` cycle lives on
    :attr:`executor` (and answers in the same envelopes).
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
        #: What drives the pump when no caller's loop does.
        self._private: _LoopThread | None = None
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
        pump = self._pump
        if pump is not None:
            if pump.loop is not None and self._private is None:
                self._on_pump_loop(self.detach_loop)
            private = self._private
            if private is not None:
                self._on_pump_loop(pump.stop)
                pump.stopped.wait()  # the in-flight cycle finishes first
                self._on_pump_loop(pump.detach)
                self._private = None
                private.close()
            else:
                pump.stop()
            self._pump = None
        self.executor.close()

    # ------------------------------------------------------------------
    # Who drives the pump
    # ------------------------------------------------------------------
    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Let ``loop`` drive the completion pump from now on; call on
        the loop's own thread (``MPRServer.start()`` does).

        The loop then watches the pool's wait set with one reader and
        steps the pump in place, so the socket → cycle → pipe → ack →
        response path runs on this one thread.  A private loop thread
        that was driving it is wound down first.
        """
        pump = self._pump
        if pump is None:
            pump = self._pump = self._new_pump()
        elif self._private is not None:
            self._on_pump_loop(pump.detach)
            self._private.close()
            self._private = None
        elif pump.loop is not None:
            raise RuntimeError("another event loop drives the pump")
        pump.attach(loop)

    def detach_loop(self) -> None:
        """Hand the pump back (``MPRServer.stop()`` does); call on the
        attached loop's thread.  Work still in flight goes on, on a
        private loop thread."""
        pump = self._pump
        if pump is None or pump.loop is None or self._private is not None:
            return
        pump.detach()
        if not pump.idle:
            self._drive_privately(pump)

    def _new_pump(self) -> _CompletionPump:
        self.executor.start()
        return _CompletionPump(self.executor, self._pump_drain_timeout)

    def _ensure_pump(self) -> _CompletionPump:
        if self._pump is None:
            self._pump = self._new_pump()
        if self._pump.loop is None:
            self._drive_privately(self._pump)
        return self._pump

    def _drive_privately(self, pump: _CompletionPump) -> None:
        self._private = _LoopThread()
        self._on_pump_loop(pump.attach, self._private.loop)

    def _on_pump_loop(self, fn: Any, *args: Any) -> Any:
        """``fn(*args)`` on the thread that drives the pump, and its
        result: through the driving loop, unless this is its thread or
        it is a caller's loop that no longer runs."""
        private = self._private
        loop = private.loop if private is not None else self._pump.loop
        if (
            loop is None or self._pump.on_loop_thread()
            or (private is None and not loop.is_running())
        ):
            return fn(*args)
        result: Future = Future()
        loop.call_soon_threadsafe(_call_into, result, fn, args)
        return result.result()

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

    def run_results(
        self, tasks: Sequence[Task]
    ) -> dict[int, QueryResult]:
        """Execute a task stream; return enveloped per-query outcomes.

        One :class:`~repro.mpr.results.QueryResult` per query id.  Goes
        through the pump when it is already running (and then waits, so
        not on the pump's driving thread), else it *is* one blocking
        ``executor.run()``.  The envelopes are
        the same either way; what differs is a pool that fails under
        the drain: the un-pumped path raises
        :class:`~repro.mpr.process_executor.WorkerCrash` where the
        pumped one answers ``ERROR``.
        """
        if self._pump is not None:
            pump = self._ensure_pump()
            self._refuse_on_pump_loop(pump, "run_results")
            futures = pump.submit_all(tasks)
            return {
                task.query_id: future.result()
                for task, future in zip(tasks, futures)
                if task.kind is TaskKind.QUERY
            }
        return self.executor.run(tasks)

    @staticmethod
    def _refuse_on_pump_loop(pump: _CompletionPump, name: str) -> None:
        if pump.on_loop_thread():
            raise RuntimeError(
                f"{name}() waits for the pump, and this thread drives it: "
                "the wait would never end"
            )

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
        directly; once the completion pump runs, the request is
        enqueued FCFS with the task stream and is a cycle boundary: the
        pump begins it after the tasks queued before it and steps it to
        a terminal event before the next cycle starts (queries already
        queued ride through the cutover in flight), while this call
        waits — so not on the pump's driving thread.  Returns the terminal
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
            pump = self._ensure_pump()
            self._refuse_on_pump_loop(pump, "reconfigure")
            return pump.reconfigure(new_config, **kwargs).result()
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
        side effect (on a private loop thread unless a loop is
        attached).  :meth:`close` stops the manager.
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
