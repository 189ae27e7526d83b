"""A real threaded executor for the MPR core matrix.

This is the *functional* realization of MPR: actual worker threads with
FCFS queues, each running its own spawned kNN solution instance over
its object partition, with a scheduler routing tasks per Algorithms 1–3
and an aggregator merging partial answers.

Its purpose in this reproduction is **correctness**, not speed: CPython
threads share the GIL, so this executor cannot demonstrate the paper's
wall-clock speedups (that is the job of :mod:`repro.sim`, the
discrete-event model of the 19-core machine — DESIGN.md substitution
#1).  What it *does* demonstrate, and what the tests pin down, is the
paper's semantic claims: every scheme returns exactly the answers of a
serial execution in arrival order, for any solution and configuration.

Construction goes through :func:`repro.mpr.api.build_executor`; the
lifecycle —
``start()``/``submit()``/``flush()``/``drain()``/``close()`` plus the
context-manager form — is shared verbatim with the process pool, so the
two substrates are drop-in interchangeable.
"""

from __future__ import annotations

import queue
import threading
import time
from abc import ABC, abstractmethod
from typing import Mapping, Sequence

from ..graph.kernels import KERNEL_CALLS
from ..knn.base import KNNSolution, Neighbor, merge_partial_results
from ..objects.tasks import Task, TaskKind
from ..obs import NULL_TELEMETRY, Telemetry
from .config import MPRConfig
from .core_matrix import (
    MPRRouter,
    QueryRoute,
    WorkerId,
    check_matrix_invariants,
    encode_op,
)
from .resilience import (
    NULL_RESILIENCE,
    Overloaded,
    ResilienceConfig,
    ResiliencePolicy,
)

_SENTINEL = None


class QuiesceTimeout(TimeoutError):
    """``drain(timeout=)`` expired with work still outstanding.

    Carries the stuck ``(worker_id, seq)`` batches *and* the affected
    query ids, so a serving tier can fail exactly the in-flight RPCs
    that will never get an answer instead of failing the connection.
    """

    def __init__(
        self,
        message: str,
        *,
        pending: Sequence[tuple[WorkerId, int]] = (),
        query_ids: Sequence[int] = (),
    ) -> None:
        super().__init__(message)
        #: Unacknowledged ``(worker_id, seq)`` batches at expiry (empty
        #: from the threaded executor, which dispatches unbatched).
        self.pending: tuple[tuple[WorkerId, int], ...] = tuple(pending)
        #: Every query implicated in those batches, plus queries still
        #: unresolved at expiry.
        self.query_ids: tuple[int, ...] = tuple(query_ids)


class MPRExecutor(ABC):
    """The contract every core-matrix executor satisfies.

    An executor realizes one MPR arrangement over some worker substrate
    (threads, processes, a simulator) and runs task streams through it.
    The contract — shared by :class:`ThreadedMPRExecutor` and
    :class:`repro.mpr.process_executor.ProcessPoolService`, and pinned
    by ``tests/test_executor_equivalence.py`` — has two halves:

    * *serial equivalence*: ``run(tasks)`` returns exactly the answers
      of a single-threaded execution in arrival order (Section III), so
      executors are interchangeable wherever one is accepted;
    * *one lifecycle*: ``start()`` → any number of ``submit()`` /
      ``flush()`` / ``drain()`` / ``run()`` calls → ``close()``, with
      the context-manager form doing start/close automatically and
      ``close()`` idempotent.  ``telemetry`` exposes the
      :class:`repro.obs.Telemetry` handle the executor records into.
    """

    @property
    @abstractmethod
    def config(self) -> MPRConfig:
        """The realized core-matrix arrangement."""

    @property
    @abstractmethod
    def telemetry(self) -> Telemetry:
        """The telemetry handle (``NULL_TELEMETRY`` when disabled)."""

    @abstractmethod
    def start(self) -> "MPRExecutor":
        """Bring workers up (idempotent); return ``self``."""

    @abstractmethod
    def close(self) -> None:
        """Tear workers down; idempotent and safe without ``start()``."""

    @abstractmethod
    def submit(self, task: Task) -> None:
        """Route one task into the matrix (starts workers on demand)."""

    @abstractmethod
    def flush(self) -> None:
        """Release any buffered dispatch (latency over amortization)."""

    @abstractmethod
    def drain(self, timeout: float | None = None) -> dict[int, list[Neighbor]]:
        """Quiesce and return answers of queries since the last drain.

        ``timeout`` bounds the wait in seconds (``None`` = unbounded);
        on expiry :class:`QuiesceTimeout` names the stuck queries, and
        everything submitted stays pending for a later drain.
        """

    def run(self, tasks: Sequence[Task]) -> dict[int, list[Neighbor]]:
        """Execute a task stream; return ``query_id -> aggregated kNN``."""
        self.start()
        for task in tasks:
            self.submit(task)
        return self.drain()

    def __enter__(self) -> "MPRExecutor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def record_batch_stamps(
    telemetry: Telemetry,
    worker_id: WorkerId,
    sent: float | None,
    stamps: tuple,
    skip: frozenset[int] | set[int] = frozenset(),
) -> None:
    """Stitch one worker batch's timing report into spans and histograms.

    ``stamps`` is the worker's ``(t_recv, t_ack_send, op_timings,
    kernel_delta)`` — ``op_timings`` being what
    :meth:`~repro.knn.base.KNNSolution.run_ops` appended — and ``sent``
    the dispatcher's send stamp for the batch.  Together they yield one
    ``queue_wait`` span for the batch (attributed to every query in
    it), an ``execute`` span per query, an ``update`` histogram sample
    per update op, and one ``ack`` span (transit back, measured at read
    time).  A grouped ``("qb", ...)`` run additionally records an
    ``execute_batch`` histogram span plus the ``exec.batches``/
    ``exec.batch_queries`` counters, and each of its queries gets an
    equal *share* of the run as its ``execute`` span — batched queries
    cannot be timed individually, but their traces stay complete.
    ``kernel_delta`` folds a child process's ``KERNEL_CALLS``
    increments into this process's counters (threads share them and
    report none).  Replayed batches restamp the same ``(stage,
    worker)`` slots; last report wins inside the trace.  ``skip`` names
    queries whose per-query spans must *not* be recorded — duplicate
    answers of a hedged query, whose accepted answer already carries
    the spans.
    """
    t_recv, t_ack_send, op_timings, kernel_delta = stamps
    if kernel_delta:
        KERNEL_CALLS.update(kernel_delta)
    ack_wait = time.monotonic() - t_ack_send
    queue_wait = max(t_recv - sent, 0.0) if sent is not None else None
    query_ids: list[int] = []
    for entry in op_timings:
        if entry[0] == "q":
            query_ids.append(entry[1])
        elif entry[0] == "qb":
            query_ids.extend(entry[1])
    if skip:
        query_ids = [qid for qid in query_ids if qid not in skip]
    if queue_wait is not None:
        if query_ids:
            for query_id in query_ids:
                telemetry.record(
                    "queue_wait", queue_wait,
                    start=sent, query_id=query_id, worker=worker_id,
                )
        else:  # pure-update batch: histogram only, once
            telemetry.record("queue_wait", queue_wait, start=sent)
    for entry in op_timings:
        if entry[0] == "q":
            _, query_id, t0, t1 = entry
            if query_id in skip:
                continue
            telemetry.record(
                "execute", t1 - t0,
                start=t0, query_id=query_id, worker=worker_id,
            )
        elif entry[0] == "qb":
            _, run_ids, t0, t1 = entry
            telemetry.record("execute_batch", t1 - t0, start=t0)
            telemetry.count("exec.batches")
            telemetry.count("exec.batch_queries", len(run_ids))
            share = (t1 - t0) / len(run_ids)
            for position, query_id in enumerate(run_ids):
                if query_id in skip:
                    continue
                span_start = t0 + position * share
                telemetry.record(
                    "execute", share,
                    start=span_start, query_id=query_id, worker=worker_id,
                )
        else:
            _, t0, t1 = entry
            telemetry.record("update", t1 - t0, start=t0)
    if query_ids:
        for query_id in query_ids:
            telemetry.record(
                "ack", ack_wait,
                start=t_ack_send, query_id=query_id, worker=worker_id,
            )
    else:
        telemetry.record("ack", ack_wait, start=t_ack_send)


class _Barrier:
    """A quiesce marker: the worker sets the event when it dequeues it,
    proving everything enqueued before it has been executed.  Costs
    O(workers) per drain instead of per-op ``task_done()`` accounting,
    keeping the hot loop at seed cost."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class _Worker:
    """One w-core: a thread draining a FCFS queue into a solution.

    Queue items are ``(enqueued, op)`` pairs, ``op`` in the wire
    encoding of :func:`~repro.mpr.core_matrix.encode_op`.  The parent
    quiesces by enqueueing a :class:`_Barrier` and waiting on its
    event, so the loop itself carries no per-op accounting.  After the
    first error the loop keeps consuming without executing (barriers
    still fire), and the stored exception surfaces on the next
    ``drain()``.
    """

    def __init__(
        self,
        worker_id: WorkerId,
        solution: KNNSolution,
        results: "queue.Queue[tuple]",
        telemetry: Telemetry,
    ) -> None:
        self.worker_id = worker_id
        self.solution = solution
        self.tasks: "queue.Queue[object]" = queue.Queue()
        self._results = results
        self._telemetry = telemetry
        self.thread = threading.Thread(
            target=self._loop, name=f"w-core-{worker_id}", daemon=True
        )
        self.error: BaseException | None = None

    def start(self) -> None:
        self.thread.start()

    def _loop(self) -> None:
        """Drain the FCFS queue, one ``run_ops`` call per backlog.

        Each blocking ``get()`` is followed by an opportunistic
        non-blocking drain: everything immediately available up to the
        next barrier or sentinel — queries *and* the updates between
        them — goes to the solution as one FCFS op batch, exactly what
        a process-pool worker receives in one message.  How much work
        the batch shares is the solution's business; serial equivalence
        is :meth:`~repro.knn.base.KNNSolution.run_ops`'s contract.
        """
        tasks = self.tasks
        while True:
            item = tasks.get()
            batch: list = []
            # This thread is the queue's only consumer, so a non-empty
            # probe guarantees the next get_nowait() succeeds.
            while item is not _SENTINEL and type(item) is not _Barrier:
                batch.append(item)
                if tasks.empty():
                    break
                item = tasks.get_nowait()
            if batch and self.error is None:
                try:
                    self._execute(batch)
                except BaseException as exc:  # surfaced by drain()
                    self.error = exc
            if item is _SENTINEL:
                return
            if type(item) is _Barrier:
                item.event.set()

    def _execute(self, batch: list) -> None:
        """Run one op batch; report its partials (and stamps) once."""
        ops = [item[1] for item in batch]
        if not self._telemetry.enabled:
            partials = self.solution.run_ops(ops)
            if partials:
                self._results.put((self.worker_id, partials, None, None))
            return
        received = time.monotonic()
        op_timings: list[tuple] = []
        partials = self.solution.run_ops(ops, op_timings)
        # The oldest op's enqueue stamp is the batch's: its queue_wait
        # is the longest any op of the batch saw.
        self._results.put((
            self.worker_id, partials, batch[0][0],
            (received, time.monotonic(), op_timings, None),
        ))


class ThreadedMPRExecutor(MPRExecutor):
    """Run task streams through a real multi-threaded core matrix.

    Parameters
    ----------
    solution:
        A prototype solution; each worker gets ``solution.spawn(cell)``.
    config:
        The core-matrix arrangement to realize.
    objects:
        Initial object placements (partitioned round-robin by column).
    check_invariants:
        When True, the partition/replication invariants of Section IV-A
        are asserted on the worker contents after every :meth:`run`.
    telemetry:
        A :class:`repro.obs.Telemetry` to record spans into (default:
        the shared disabled handle — zero overhead).

    Workers are persistent: :meth:`start` spawns the threads once and
    any number of :meth:`submit`/:meth:`drain`/:meth:`run` calls reuse
    them until :meth:`close`.  ``flush()`` is a no-op — the threaded
    path dispatches per task, there is nothing buffered.

    Construct via :func:`repro.mpr.api.build_executor`
    (``mode="thread"``), the one public construction path; the direct
    constructor exists for the facade and for tests.
    """

    def __init__(
        self,
        solution: KNNSolution,
        config: MPRConfig,
        objects: Mapping[int, int],
        check_invariants: bool = False,
        *,
        telemetry: Telemetry | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self._config = config
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Threads neither crash nor stall the way processes do, so the
        # threaded realization of the resilience layer is admission
        # control (shed on deep worker queues) plus deadline-miss
        # accounting; hedges/breakers/degraded answers live in the
        # process pool, whose replicas actually fail independently.
        self._resilience = (
            ResiliencePolicy(resilience)
            if resilience is not None
            else NULL_RESILIENCE
        )
        self._shed: dict[int, Overloaded] = {}
        self._armed: dict[int, tuple[float, float]] = {}
        #: Queries that finished past their SLO (resilience only).
        self.deadline_misses = 0
        self._router = MPRRouter(config, telemetry=self._telemetry)
        self._check_invariants = check_invariants
        contents = self._router.preload_objects(objects)
        self._results: "queue.Queue[tuple]" = queue.Queue()
        self._workers: dict[WorkerId, _Worker] = {
            worker_id: _Worker(
                worker_id, solution.spawn(cell), self._results, self._telemetry
            )
            for worker_id, cell in contents.items()
        }
        #: Pending query bookkeeping since the last completed drain.
        self._expected: dict[int, int] = {}
        self._ks: dict[int, int] = {}
        self._partials: dict[int, list[list[Neighbor]]] = {}
        self._started = False
        self._closed = False
        self._running = False  # fast flag for the per-submit start check

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def config(self) -> MPRConfig:
        return self._config

    @property
    def telemetry(self) -> Telemetry:
        return self._telemetry

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    def start(self) -> "ThreadedMPRExecutor":
        if self._closed:
            raise RuntimeError("executor is closed")
        if not self._started:
            for worker in self._workers.values():
                worker.start()
            self._started = True
            self._running = True
        return self

    def close(self) -> None:
        """Stop every worker thread (idempotent, usable un-started)."""
        if self._closed:
            return
        self._closed = True
        self._running = False
        if not self._started:
            return
        for worker in self._workers.values():
            worker.tasks.put(_SENTINEL)
        for worker in self._workers.values():
            worker.thread.join()

    # ------------------------------------------------------------------
    # Dispatch and collection
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Route one task to its workers' FCFS queues."""
        if not self._running:
            self.start()
        telemetry = self._telemetry
        if telemetry.enabled:
            dispatch_start = time.monotonic()
        route = self._router.route(task)
        if task.kind is TaskKind.QUERY:
            assert isinstance(route, QueryRoute)
            if self._resilience.enabled and self._admit(task, route) is False:
                return
            self._expected[task.query_id] = len(route.workers)
            self._ks[task.query_id] = task.k
            if telemetry.enabled:
                telemetry.begin_trace(task.query_id, route.workers)
        item = (time.monotonic() if telemetry.enabled else 0.0, encode_op(task))
        for worker_id in route.workers:
            self._workers[worker_id].tasks.put(item)
        if telemetry.enabled:
            query_id = task.query_id if task.kind is TaskKind.QUERY else None
            telemetry.record(
                "dispatch",
                time.monotonic() - dispatch_start,
                start=dispatch_start,
                query_id=query_id,
            )

    def _admit(self, task: Task, route: QueryRoute) -> bool:
        """Admission + deadline arming for one query (resilience only).

        The per-worker FCFS queue depth *is* the outstanding-work
        ledger here, so the shed decision reads it directly: a query
        whose deepest target queue is at the bound is rejected with a
        typed :class:`Overloaded` answer.  Admitted queries with an SLO
        (task > resilience default > arrangement default) are armed for
        deadline-miss accounting at the next :meth:`drain`.
        """
        bound = self._resilience.config.max_outstanding
        if bound is not None:
            backlog = 0
            for worker_id in route.workers:
                depth = self._workers[worker_id].tasks.qsize()
                if depth > backlog:
                    backlog = depth
            if backlog >= bound:
                self._shed[task.query_id] = Overloaded(
                    task.query_id, backlog, bound
                )
                if self._telemetry.enabled:
                    self._telemetry.count("resilience.shed")
                return False
        slo = self._resilience.deadline_for(
            task.deadline, self._config.default_deadline
        )
        if slo is not None:
            self._armed[task.query_id] = (time.monotonic(), slo)
        return True

    def flush(self) -> None:
        """No-op: the threaded path dispatches per task, unbuffered."""

    def drain(self, timeout: float | None = None) -> dict[int, list[Neighbor]]:
        """Wait for every queue to empty; merge and return the answers.

        With a ``timeout``, workers still busy at expiry raise
        :class:`QuiesceTimeout` naming the queries short of partials;
        all bookkeeping carries over to the next drain.
        """
        self.start()
        wall = None if timeout is None else time.monotonic() + timeout
        barriers = {worker_id: _Barrier() for worker_id in self._workers}
        for worker_id, barrier in barriers.items():
            self._workers[worker_id].tasks.put(barrier)
        stuck = [
            worker_id
            for worker_id, barrier in barriers.items()
            if not barrier.event.wait(
                None if wall is None else max(wall - time.monotonic(), 0.0)
            )
        ]
        for worker in self._workers.values():
            if worker.error is not None:
                raise RuntimeError(
                    f"worker {worker.worker_id} failed"
                ) from worker.error

        telemetry = self._telemetry
        partials = self._partials
        while not self._results.empty():
            worker_id, batch, sent, stamps = self._results.get_nowait()
            for query_id, partial in batch:
                partials.setdefault(query_id, []).append(partial)
            if stamps is not None:
                record_batch_stamps(telemetry, worker_id, sent, stamps)
        if stuck:
            affected = sorted(
                query_id for query_id, expected in self._expected.items()
                if len(partials.get(query_id, ())) < expected
            )
            raise QuiesceTimeout(
                f"executor did not quiesce within {timeout} s; workers "
                f"still busy: {stuck}; affected query ids: {affected}",
                query_ids=affected,
            )

        answers: dict[int, list[Neighbor]] = {}
        for query_id, parts in partials.items():
            if len(parts) != self._expected[query_id]:
                raise RuntimeError(
                    f"query {query_id}: {len(parts)} partials, "
                    f"expected {self._expected[query_id]}"
                )
            if telemetry.enabled:
                merge_start = time.monotonic()
                answers[query_id] = merge_partial_results(
                    parts, self._ks[query_id]
                )
                telemetry.record(
                    "merge", time.monotonic() - merge_start,
                    start=merge_start, query_id=query_id,
                )
                trace = telemetry.trace(query_id)
                if trace is not None:
                    telemetry.record("response", trace.response_time)
            else:
                answers[query_id] = merge_partial_results(
                    parts, self._ks[query_id]
                )
        self._expected.clear()
        self._ks.clear()
        partials.clear()
        if self._resilience.enabled:
            self._settle_resilient(answers)
        return answers

    def _settle_resilient(self, answers: dict[int, list[Neighbor]]) -> None:
        """Fold shed verdicts in; account deadline misses.

        With telemetry on, a query's miss is judged by its stitched
        trace (submit → last span); without traces the drain's own
        clock bounds the completion time from above — conservative, but
        it never misses a true miss.
        """
        now = time.monotonic()
        telemetry = self._telemetry
        for query_id, (submitted, slo) in self._armed.items():
            finished = None
            if telemetry.enabled:
                trace = telemetry.trace(query_id)
                if trace is not None and trace.spans:
                    finished = max(span.end for span in trace.spans)
            elapsed = (
                finished - submitted if finished is not None
                else now - submitted
            )
            if elapsed > slo:
                self.deadline_misses += 1
                if telemetry.enabled:
                    telemetry.count("resilience.deadline_misses")
        self._armed.clear()
        for query_id, overloaded in self._shed.items():
            answers[query_id] = overloaded
        self._shed.clear()

    def run(self, tasks: Sequence[Task]) -> dict[int, list[Neighbor]]:
        """Execute the stream; return ``query_id -> aggregated kNN``."""
        answers = super().run(tasks)
        if self._check_invariants:
            check_matrix_invariants(self.worker_contents(), self._config)
        return answers

    def worker_contents(self) -> dict[WorkerId, dict[int, int]]:
        """Object placements per worker (valid after a drain)."""
        return {
            worker_id: worker.solution.object_locations()
            for worker_id, worker in self._workers.items()
        }


def run_serial_reference(
    solution: KNNSolution,
    objects: Mapping[int, int],
    tasks: Sequence[Task],
) -> dict[int, list[Neighbor]]:
    """Single-threaded serial execution in arrival order (the oracle).

    Section III requires every scheme's execution to be "equivalent to a
    serial execution in the tasks' arrival order"; this produces that
    serial baseline for tests to compare against.
    """
    instance = solution.spawn(objects)
    answers: dict[int, list[Neighbor]] = {}
    for task in tasks:
        if task.kind is TaskKind.QUERY:
            answers[task.query_id] = instance.query(task.location, task.k)
        elif task.kind is TaskKind.INSERT:
            instance.insert(task.object_id, task.location)
        else:
            instance.delete(task.object_id)
    return answers
