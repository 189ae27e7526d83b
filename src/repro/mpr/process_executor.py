"""The MPR executor: one data plane, two worker kinds.

:class:`ProcessPoolService` realizes a core matrix over persistent
w-cores and is the only executor there is.  A w-core is an OS *process*
(``mode="process"`` — the literal "multi-processing" of the paper's
title, and the only kind that shows wall-clock speedup under CPython's
GIL) or a *thread* (``mode="thread"``); the parent decides the kind in
``_spawn`` and nowhere else on the data path (``_retire_pipes`` closes
a pipe inbox if there is one; worker-side, ``_worker_main`` picks the
inbox's read call and knows that a stamped ack from a ``_ThreadWorker``
carries no ``KERNEL_CALLS`` delta):

* **persistent workers** — workers start once (``start()`` or the
  context manager) and serve any number of ``run()``/``submit()``
  calls; the road network and each worker's object partition reach the
  worker once, mirroring MPR's one-time replica construction;
* **batched dispatch** — one queue message carries up to
  ``batch_size`` tasks, amortizing the ~tens-of-μs per-message pickle
  and queue cost (the τ' the paper models, magnified ~1000× by
  ``multiprocessing``) over the batch; ``flush()`` releases partial
  batches for latency-sensitive streams;
* **supervision** — the parent polls worker liveness while waiting on
  results; a dead worker (crash, SIGKILL) is respawned from its
  replica's object cell and the in-flight batches are replayed, so
  final answers are indistinguishable from a fault-free run.

Thread workers run the same ``_worker_main`` over the same per-worker
pipe, ack ledger, hedging, degraded answers and live reconfiguration;
they share the parent's memory (no graph publication, no
``KERNEL_CALLS`` delta to fold) and exist for **correctness, not
speed**: tests and examples get the whole protocol without forking.
What they cannot do: a thread cannot be SIGKILLed, so the stall
watchdog never fires for them, ``close()``'s terminate/kill rungs and
a rollback's kill are just another queued stop, and a wedged thread is
abandoned (daemon) rather than reaped.  They are GIL-bound and pay the
pipe's pickling without gaining a core: against the bare per-thread
FCFS queues this mode replaced, a ``(2, 2, 1)`` DijkstraKNN 3,140-op
mix on the 2-core build host moved 0.57–0.70 → 0.73–0.78 ms/op on a
32×32 grid and 2.2–2.4 → 2.8–3.0 ms/op on 96×96 (10×10 is noise-bound,
0.14–0.43 ms/op on both sides), a zero-cost solution 11 → 49–59 μs/op.

Both directions are single-writer pipes, one pair per process worker,
rather than shared ``Queue`` objects.  A shared result queue serializes
every worker's acks through one cross-process write lock, and a worker
SIGKILLed inside that critical section leaks the semaphore forever —
deadlocking every *surviving* worker's acks (observed deterministically
in the respawn tests).  With one pipe per worker there is exactly one
writer per channel, no lock to leak, and a crash can only corrupt the
dead worker's own pipes, which the respawn replaces wholesale.  The
inbox (:class:`_PipeInbox`) is written inline by the thread that calls
``send`` — no ``mp.Queue``, so no feeder thread competing for the
parent's GIL before a batch may leave, and no read lock in the worker.
Its write end never blocks: what the 64 KiB pipe will not take waits
parent-side in FCFS byte order and is flushed by the pump, whose wait
set holds that write end exactly while it is clogged.  Blocking instead
would deadlock a long run against one worker — parent stuck writing the
inbox, worker stuck writing acks nobody reads, both pipes full.  The
backlog holds only bytes of batches still in ``unacked`` (or a stop),
so death, respawn/replay, quarantine and the stall watchdog — which
keeps running because the parent never blocks — need no new case; a
write to a dead worker (``EPIPE``) is dropped and the death is found at
the usual fault points.  Thread workers keep an in-memory queue.

Fault-tolerance argument, in MPR's own terms: every ``(layer, column)``
cell is replicated across the ``y`` rows (Section IV-A), so a worker's
object set is never lost with the process.  The service keeps the
authoritative copy of each cell — its initial contents plus every
*acknowledged* update batch — which is exactly the state any row
sibling holds.  A respawned worker is ``solution.spawn``-ed from that
cell and replays the unacknowledged batch suffix in FCFS order;
because solutions are deterministic, the replayed partials equal the
lost ones.  The same argument makes any row of a column
interchangeable: answers are accepted per ``(query, layer, column)``,
first one wins, a replay from the same worker overwrites idempotently
— which is the whole dedup rule, for replays and hedged reads alike.

There is one data plane: ``submit`` → :meth:`_WorkerState.send` →
pump → ack → settle.  What a pool does when something breaks is
decided by its :class:`~repro.mpr.resilience.ResiliencePolicy` at the
fault points (a worker died, a worker reported an error, a deadline is
armed), not by a second copy of that path.

Per-stage timings and counters stream into a
:class:`repro.harness.PoolMetrics`, which the benchmarks and the DES
calibration (:func:`repro.sim.measurement.machine_spec_from_pool`)
consume.

Construction goes through :func:`repro.mpr.api.build_executor`, the
one public construction path.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import pickle
import queue
import selectors
import struct
import threading
import time
from typing import Mapping, Sequence

from ..graph.kernels import KERNEL_CALLS
from ..harness.metrics import PoolMetrics
from ..knn.base import KNNSolution, Neighbor, merge_partial_results
from ..objects.tasks import Task, TaskKind
from ..obs import NULL_TELEMETRY, Telemetry
from .config import MPRConfig
from .core_matrix import (
    MPRRouter,
    QueryRoute,
    RouteBatcher,
    WorkerBatch,
    WorkerId,
    check_matrix_invariants,
    encode_op,
)
from .executor import MPRExecutor, QuiesceTimeout, record_batch_stamps
from .reconfig import ReconfigEvent, ReconfigRejected
from .resilience import (
    CircuitBreaker,
    Overloaded,
    ResilienceConfig,
    ResiliencePolicy,
)

_STOP = ("stop",)


def _worker_main(
    solution: KNNSolution, worker_id, inbox, results, stamp_timings: bool = False
) -> None:
    """A w-core's main loop: serve batches from ``inbox`` (the read end
    of a bare pipe in a child process, a queue in a thread) until told
    to stop.

    One ``("batch", seq, ops)`` message is acknowledged by one
    ``("done", worker_id, seq, partials)`` message carrying every query
    partial of the batch — the ack doubles as the result envelope, so
    the return path is batch-amortized too.  The batch executes as one
    :meth:`~repro.knn.base.KNNSolution.run_ops` call, so how much work
    its queries share is the solution's business.  ``results`` is this
    worker's private pipe end: no lock is shared with sibling workers,
    so this process dying mid-send cannot wedge anyone else.

    With ``stamp_timings`` (telemetry enabled in the parent) the ack
    grows a compact timing tuple — ``(t_recv, t_ack_send, per-op
    timings, kernel_delta)`` in the shared ``time.monotonic`` clock —
    from which the parent stitches ``queue_wait``/``execute``/``ack``
    spans.  The per-op entries are ``run_ops``'s: ``("q", query_id, t0,
    t1)`` for a query answered alone, ``("qb", (query_ids...), t0, t1)``
    for queries answered together, and ``("u", t0, t1)`` for updates;
    ``kernel_delta`` is this batch's increment to the child's
    ``KERNEL_CALLS`` diagnostic counters, which the parent folds into
    its own copy (fork gives each child separate counter memory).
    """
    monotonic = time.monotonic
    receive = inbox.recv if hasattr(inbox, "recv") else inbox.get
    while True:
        message = receive()
        received = monotonic() if stamp_timings else 0.0
        kind = message[0]
        if kind == "stop":
            results.send(("stopped", worker_id))
            return
        if kind != "batch":  # pragma: no cover - protocol guard
            results.send(("error", worker_id, -1, f"unknown message {kind!r}"))
            return
        _, seq, ops = message
        op_timings: list[tuple] | None = [] if stamp_timings else None
        kernel_before = dict(KERNEL_CALLS) if stamp_timings else {}
        try:
            partials = solution.run_ops(ops, op_timings)
        except Exception as exc:
            results.send(("error", worker_id, seq, repr(exc)))
            return
        if stamp_timings:
            # A thread worker bumps the parent's own counters: no delta.
            kernel_delta = None if isinstance(
                threading.current_thread(), _ThreadWorker
            ) else {
                name: count - kernel_before.get(name, 0)
                for name, count in KERNEL_CALLS.items()
                if count != kernel_before.get(name, 0)
            }
            results.send((
                "done", worker_id, seq, partials,
                (received, monotonic(), op_timings, kernel_delta),
            ))
        else:
            results.send(("done", worker_id, seq, partials))


class _ThreadWorker(threading.Thread):
    """A w-core as a thread, behind the process-handle surface the pool
    supervises (``is_alive``/``join``/``terminate``/``kill``/``pid``).

    Runs the same :func:`_worker_main` against the same private result
    pipe; only the inbox is an in-memory queue.  A thread cannot be
    signalled, so it is stopped by message — ``kill()`` queues the stop
    behind whatever the worker is doing — and it closes its pipe end on
    the way out, so the parent reads EOF exactly as for a dead process.
    """

    pid = None  # nothing to signal: worker_pids() lists no thread

    def __init__(self, main_args: tuple) -> None:
        _solution, worker_id, inbox, writer, _stamp_timings = main_args
        super().__init__(name=f"w-core-{worker_id}", daemon=True)
        self._main_args, self._inbox, self._writer = main_args, inbox, writer

    def run(self) -> None:
        try:
            _worker_main(*self._main_args)
        except BrokenPipeError:  # reader retired: nobody is listening
            pass
        finally:
            self._writer.close()

    def kill(self) -> None:
        self._inbox.put(_STOP)

    terminate = kill


class _PipeInbox:
    """Parent end of a process worker's inbox: a bare pipe whose writer
    never blocks (see the module docstring for why it must not).

    Messages are framed as ``Connection.send`` frames them (``!i``
    length + pickle), so the child's plain ``Connection.recv()`` reads
    them and a partial ``os.write`` loses no boundary.  What the pipe
    will not take stays in ``backlog``, and the write end is registered
    with the pump's ``selector`` exactly while ``backlog`` is non-empty.
    """

    def __init__(self, writer, selector) -> None:
        os.set_blocking(writer.fileno(), False)
        self._writer, self._selector = writer, selector
        self.backlog = bytearray()
        self._watched = False  # write end registered with the selector

    def put(self, message: tuple) -> None:
        if self._writer.closed:
            return  # retired with its dead worker
        payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        clogged = bool(self.backlog)
        self.backlog += struct.pack("!i", len(payload))
        self.backlog += payload
        if not clogged:
            self.flush()

    def flush(self) -> None:
        """Write what the pipe takes now; never wait for the rest."""
        backlog = self.backlog
        try:
            while backlog:
                del backlog[:os.write(self._writer.fileno(), backlog)]
        except BlockingIOError:
            pass
        except BrokenPipeError:  # worker died: the respawn replays its log
            backlog.clear()
        if bool(backlog) != self._watched:
            self._watched = not self._watched
            if self._watched:
                self._selector.register(
                    self._writer, selectors.EVENT_WRITE, self
                )
            else:
                self._selector.unregister(self._writer)

    def close(self) -> None:
        if not self._writer.closed:
            self.backlog.clear()
            self.flush()  # nothing left to write: leaves the selector
            self._writer.close()


class _WorkerState:
    """Parent-side ledger for one w-core: process + replica cell + log,
    and the parent's ends of its two channels (``inbox``, ``reader``)."""

    def __init__(self, worker_id: WorkerId, cell: Mapping[int, int]) -> None:
        self.worker_id = worker_id
        #: The replica's object cell: initial contents plus every
        #: acknowledged update — the state a respawn restarts from.
        self.cell: dict[int, int] = dict(cell)
        #: Dispatched-but-unacknowledged batches, in seq order.
        self.unacked: dict[int, tuple] = {}
        #: Monotonic send stamp per in-flight batch (feeds traces and
        #: the stall watchdog).
        self.sent_at: dict[int, float] = {}
        #: Batches parked while this worker's circuit breaker is open;
        #: moved back into ``unacked`` and replayed on the half-open
        #: trial respawn.
        self.quarantined: dict[int, tuple] = {}
        #: Poison batches (the worker reported an execution error on
        #: them) — never replayed, kept for inspection.
        self.poisoned: dict[int, tuple] = {}
        #: True once a death has been processed (breaker fed, batches
        #: quarantined) so repeated health checks do not re-count it.
        self.down = False
        #: Which fleet this worker belongs to: ``"current"`` (serving),
        #: ``"transition"`` (warming toward a new shape), or
        #: ``"retiring"`` (draining pre-cutover work before stopping).
        self.group = "current"
        #: True once a graceful stop message has been queued (retiring
        #: workers are stopped exactly once).
        self.stop_sent = False
        self.next_seq = 0
        self.respawns = 0
        self.failed: str | None = None
        self.process: mp.process.BaseProcess | _ThreadWorker | None = None
        #: Where batches go: a ``_PipeInbox`` or a thread's SimpleQueue.
        self.inbox = None
        #: Parent-held read end of this worker's private result pipe.
        self.reader = None

    def send(self, ops: tuple) -> None:
        """Log ``ops`` as this worker's next batch and put it on the wire."""
        seq = self.next_seq
        self.next_seq += 1
        self.unacked[seq] = ops
        self._put(seq)

    def replay(self) -> None:
        """Re-send the whole unacknowledged log, in seq order, to a
        freshly spawned process.  Replays restamp ``sent_at``, so a
        stitched trace reflects the run that produced the surviving ack
        and the stall watchdog times the new process, not the dead one.
        """
        for seq in sorted(self.unacked):
            self._put(seq)

    def _put(self, seq: int) -> None:
        self.sent_at[seq] = time.monotonic()
        self.inbox.put(("batch", seq, self.unacked[seq]))

    def acknowledge(self, seq: int) -> bool:
        """Apply an ack: advance the durable cell past batch ``seq``.

        Returns False for a duplicate ack (a replayed batch whose
        original ack survived the crash) — those are ignored.
        """
        ops = self.unacked.pop(seq, None)
        self.sent_at.pop(seq, None)
        if ops is None:
            return False
        for op in ops:
            if op[0] == "insert":
                self.cell[op[1]] = op[2]
            elif op[0] == "delete":
                self.cell.pop(op[1], None)
        return True


class WorkerCrash(RuntimeError):
    """A worker died irrecoverably (poison task or respawn limit)."""


class _PendingQuery:
    """Parent-side ledger for one admitted query, until the next drain.

    ``accepted`` is the per-column answer ledger the whole data plane
    runs on: ``(layer, column) -> (answering worker, partial)``, first
    answer per column wins.  With no hedge in flight exactly one row
    serves each column, so this is also the plain one-partial-per-
    worker count.
    """

    __slots__ = (
        "task", "columns", "row", "generation", "accepted", "attempted",
        "missing",
    )

    def __init__(
        self,
        task: Task,
        columns: tuple[tuple[int, int], ...],
        row: int,
        generation: int,
    ) -> None:
        self.task = task
        #: Every ``(layer, column)`` cell the query fans out to.
        self.columns = columns
        #: The replica row the router picked.
        self.row = row
        #: Shape generation it was routed under — hedging never crosses
        #: a cutover.
        self.generation = generation
        self.accepted: dict[
            tuple[int, int], tuple[WorkerId, list[Neighbor]]
        ] = {}
        #: Rows tried per column; built on the first hedge decision.
        self.attempted: dict[tuple[int, int], set[int]] | None = None
        #: Columns given up on (degraded).
        self.missing: set[tuple[int, int]] = set()

    @property
    def resolved(self) -> bool:
        """Every column either answered or explicitly degraded."""
        return len(self.accepted) + len(self.missing) == len(self.columns)


class _Transition:
    """The half-built replacement matrix of one in-flight shape change.

    Holds everything the supervisor needs to either promote the new
    shape at cutover or discard it wholesale on rollback: the target
    router/batcher pair (warming against ``NULL_TELEMETRY`` so dual-fed
    updates do not double-count), the warming worker states, and the
    phase deadline.  The old shape's state is deliberately *not* here —
    rollback must be a pure discard.
    """

    __slots__ = (
        "event", "new_config", "router", "batcher", "workers",
        "warm_deadline", "retire_timeout", "started", "fault",
    )

    def __init__(
        self,
        event: ReconfigEvent,
        new_config: MPRConfig,
        router: MPRRouter,
        batcher: RouteBatcher,
        workers: dict[WorkerId, "_WorkerState"],
        *,
        warm_deadline: float,
        retire_timeout: float,
        started: float,
    ) -> None:
        self.event = event
        self.new_config = new_config
        self.router = router
        self.batcher = batcher
        self.workers = workers
        self.warm_deadline = warm_deadline
        self.retire_timeout = retire_timeout
        self.started = started
        #: First fault observed while warming (worker death or error
        #: report); processed by ``_advance_transition`` → rollback.
        self.fault: str | None = None


class ProcessPoolService(MPRExecutor):
    """A persistent process pool realizing one MPR core matrix.

    Parameters
    ----------
    solution:
        Prototype solution; each worker gets ``solution.spawn(cell)``.
    config:
        The ``(x, y, z)`` arrangement to realize.
    objects:
        Initial object placements (partitioned round-robin by column).
    batch_size:
        Tasks per queue message.  1 reproduces per-task dispatch; the
        sweep in ``benchmarks/bench_process_pool.py`` shows the
        trade-off.
    start_method:
        The worker kind: a ``multiprocessing`` start method, or
        ``"thread"`` (what ``build_executor(mode="thread")`` passes).
        Under ``fork`` workers inherit the parent's memory
        copy-on-write; under ``spawn`` the worker payload is pickled —
        which is why the pool publishes the road network to shared
        memory first (see ``share_graph``).  Thread workers run the
        same protocol inside this process (see the module docstring for
        what they cannot do).
    share_graph:
        When True (the default) and the solution exposes its
        :class:`~repro.graph.road_network.RoadNetwork`, ``start()``
        publishes the network's CSR arrays to a
        ``multiprocessing.shared_memory`` segment
        (:func:`repro.graph.shared.publish_shared_graph`).  Workers —
        including respawned ones — then attach the same segment
        zero-copy during unpickling; the graph itself is never pickled
        per worker.  ``close()`` unlinks the segment.  If the network
        was already published by an outer owner, the pool borrows that
        segment and leaves its lifecycle alone.  Thread workers already
        share the parent's memory, so nothing is published for them.
    health_check_interval:
        How long one result-pipe wait may block before the supervisor
        re-checks worker liveness (seconds).
    max_respawns:
        Per-worker crash budget; exceeding it raises
        :class:`WorkerCrash` instead of looping on a poison batch.
        With ``resilience`` enabled the budget is superseded by the
        per-worker circuit breaker's exponential backoff.
    resilience:
        The failure semantics, as a
        :class:`repro.mpr.resilience.ResilienceConfig`.  The pool runs
        the same submit → ack → drain → settle path either way; the
        setting decides what happens at the fault points.  ``None``
        (the default): a dead worker is respawned and its log replayed
        until ``max_respawns`` is spent, then :class:`WorkerCrash`; a
        worker-reported execution error raises :class:`WorkerCrash`; no
        deadline is armed, nothing is shed, hedged or degraded, and a
        silent worker is waited for.  With a config: a death feeds the
        worker's circuit breaker (quarantine + exponential-backoff
        respawn trials), an execution error poison-quarantines the
        batch, queries past their deadline (task > config >
        arrangement) are hedged to a sibling replica row, a query that
        would land on a backlog at ``max_outstanding`` gets a typed
        :class:`~repro.mpr.resilience.Overloaded` answer, the stall
        watchdog SIGKILLs silent workers, and a column with no live
        replica yields a degraded
        :class:`~repro.knn.base.PartialResult`.
    telemetry:
        A :class:`repro.obs.Telemetry` handle.  When enabled, workers
        stamp monotonic timings into their acks and the parent stitches
        per-query ``dispatch``/``queue_wait``/``execute``/``merge``/
        ``ack`` traces; when disabled (the default) the wire protocol
        and hot path are identical to the untraced pool.
    check_invariants:
        When True, the partition/replication invariants of Section IV-A
        are asserted on :meth:`worker_contents` after every :meth:`run`.

    Lifecycle: ``start()`` → any number of ``submit()``/``flush()``/
    ``drain()``/``run()`` calls → ``close()``.  The context manager
    form does start/close automatically; ``close()`` is idempotent.

    Construct via :func:`repro.mpr.api.build_executor`, the one public
    construction path; the direct constructor exists for the facade and
    for tests.
    """

    def __init__(
        self,
        solution: KNNSolution,
        config: MPRConfig,
        objects: Mapping[int, int],
        *,
        batch_size: int = 16,
        start_method: str = "fork",
        share_graph: bool = True,
        health_check_interval: float = 0.05,
        max_respawns: int = 3,
        metrics: PoolMetrics | None = None,
        telemetry: Telemetry | None = None,
        resilience: ResilienceConfig | None = None,
        check_invariants: bool = False,
    ) -> None:
        if health_check_interval <= 0:
            raise ValueError("health_check_interval must be positive")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        self._solution = solution
        self._config = config
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Owned, never shared: the admission ledger and breaker map
        #: inside are fed on every path, whatever the setting.
        self._resilience = ResiliencePolicy(resilience)
        self._router = MPRRouter(config, telemetry=self._telemetry)
        self._batcher = RouteBatcher(
            self._router, batch_size, telemetry=self._telemetry,
            admission=self._resilience.admission,
        )
        #: The worker kind, read by ``_spawn`` and the stall watchdog.
        self._thread_workers = start_method == "thread"
        self._context = mp.get_context(
            None if self._thread_workers else start_method
        )
        self._share_graph = share_graph and not self._thread_workers
        self._check_invariants = check_invariants
        self._shared_graph = None  # owning handle, set by start()
        self._health_check_interval = health_check_interval
        self._max_respawns = max_respawns
        self.metrics = metrics if metrics is not None else PoolMetrics()
        contents = self._router.preload_objects(objects)
        self._workers: dict[WorkerId, _WorkerState] = {
            worker_id: _WorkerState(worker_id, cell)
            for worker_id, cell in contents.items()
        }
        #: Submit-time object ledger: the authoritative ``object ->
        #: node`` map in FCFS submit order.  Per-worker acked cells lag
        #: behind dispatch, and per-worker seqs are not globally
        #: ordered, so this — not a merge of the cells — is the exact
        #: snapshot a reconfiguration hands to the new shape.
        self._objects: dict[int, int] = dict(objects)
        #: The pump's wait set, kept for the pool's lifetime: every
        #: result-pipe reader across *all* groups (current, transition,
        #: retiring), plus the inbox write end of any worker whose pipe
        #: is clogged (its key's ``data`` is the inbox).  A reader key's
        #: ``data`` is the owning worker state — the dispatch key: after
        #: a cutover the retiring fleet shares worker ids with the
        #: current one, so messages route by pipe identity, never by id.
        self._selector = selectors.DefaultSelector()
        #: Shape generation, bumped at every cutover.
        self._generation = 0
        self._transition: _Transition | None = None
        self._retiring: list[_WorkerState] = []
        self._retire_deadline = 0.0
        self._retire_started = 0.0
        self._retire_event: ReconfigEvent | None = None
        #: Audit log of every reconfiguration attempt (completed,
        #: rolled back, and rejected alike), oldest first.
        self.reconfig_history: list[ReconfigEvent] = []
        #: Trips after repeated rolled-back transitions; while open,
        #: ``begin_reconfigure`` rejects instead of churning workers.
        self._reconfig_breaker = CircuitBreaker(ResilienceConfig(
            breaker_failures=2, backoff_base=5.0, backoff_factor=2.0,
            backoff_max=60.0,
        ))
        #: Admitted queries since the last drain, by query id.
        self._queries: dict[int, _PendingQuery] = {}
        self._shed: dict[int, Overloaded] = {}
        self._deadline_heap: list[tuple[float, int]] = []
        #: Per-layer ``((layer, col), ...)`` tuples — every query routed
        #: to a layer shares the same column set, so cache it.
        self._layer_columns: dict[int, tuple[tuple[int, int], ...]] = {}
        self._started = False
        self._closed = False

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
    def generation(self) -> int:
        """Shape generation: 0 at start, +1 per completed cutover."""
        return self._generation

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    def start(self) -> "ProcessPoolService":
        """Spawn every worker process (no-op if already running)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if not self._started:
            if self._share_graph:
                self._publish_graph()
            for state in self._workers.values():
                self._spawn(state)
            self._started = True
        return self

    def _publish_graph(self) -> None:
        """Put the solution's road network into shared memory, if any.

        Every subsequent worker pickle — initial spawn and respawn alike
        — then ships a ~100-byte attach token instead of the CSR arrays.
        Networks already published by an outer owner are borrowed as-is
        (their token is inherited by the pickles; lifecycle untouched).
        Networks attached from a disk cache (``RoadNetwork.open_cache``)
        need no segment at all: their pickle already ships the memmap
        attach token, and each worker maps the same files in O(1), so
        shared-memory publication is skipped for them.
        """
        network = getattr(self._solution, "network", None)
        if network is None:
            network = getattr(self._solution, "_network", None)
        if (
            network is None
            or getattr(network, "_shared_meta", None) is not None
            or getattr(network, "_cache_meta", None) is not None
        ):
            return
        from ..graph.shared import publish_shared_graph

        self._shared_graph = publish_shared_graph(network)

    def close(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop messages, bounded wait, then force.

        Workers that acknowledge the stop within ``timeout`` seconds
        exit cleanly; stragglers escalate join → ``terminate()``
        (SIGTERM) → ``kill()`` (SIGKILL).  The last rung matters: a
        worker wedged mid-``recv`` or SIGSTOPped leaves SIGTERM pending
        forever, but SIGKILL cannot be blocked or deferred.  (A thread
        worker has no such rungs: both just queue another stop, and a
        wedged daemon thread is abandoned at the deadline.)  Reader
        retirement and the shared-memory unlink run in a ``finally`` so
        the segment is never leaked, whatever state the workers are in.
        Safe to call twice and safe to call without ``start()``.
        """
        if self._closed:
            return
        self._closed = True
        if not self._started:
            self._selector.close()
            self._unpublish_graph()
            return
        if self._transition is not None:
            # A half-built shape dies with the pool; this is not a
            # transition *failure*, so the reconfig breaker is not fed.
            self._transition_failed("pool closed mid-transition",
                                    feed_breaker=False)
        targets = list(self._workers.values()) + list(self._retiring)
        try:
            live = {
                state
                for state in targets
                if state.process is not None and state.process.is_alive()
            }
            for state in live:
                if state.stop_sent:
                    continue
                state.inbox.put(_STOP)
            deadline = time.monotonic() + timeout
            pending = set(live)
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._selector.get_map():
                    break
                ready = self._selector.select(min(remaining, 0.1))
                if not ready:
                    pending = {
                        state for state in pending
                        if state.process.is_alive()
                    }
                    continue
                for key, events in ready:
                    owner = key.data
                    if events & selectors.EVENT_WRITE:
                        owner.flush()  # the stop may be behind a backlog
                        continue
                    message = self._receive(owner)
                    if message is not None and message[0] == "stopped":
                        pending.discard(owner)
            for state in targets:
                process = state.process
                if process is None:
                    continue
                process.join(timeout=max(deadline - time.monotonic(), 0.1))
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
        finally:
            for state in targets:
                self._retire_pipes(state)
            self._retiring.clear()
            self._selector.close()
            # Only after every worker is down: no process can still be
            # mid-attach, so unlinking the segment cannot race a respawn.
            self._unpublish_graph()

    def _unpublish_graph(self) -> None:
        if self._shared_graph is not None:
            self._shared_graph.close()
            self._shared_graph = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Route one task; full batches are dispatched immediately.

        Submission is admission-controlled: a query routed at a worker
        whose backlog is at the policy's bound is *shed* — it gets a
        typed :class:`Overloaded` answer from the next :meth:`drain`
        instead of joining the queue (no bound, the default, never
        sheds) — and an admitted query arms the deadline the policy
        resolves for it (none by default).
        """
        self.start()
        if self._transition is not None or self._retiring:
            self._advance_transition(time.monotonic())
        metrics = self.metrics
        metrics.tasks_submitted += 1
        stamping = self._telemetry.enabled
        t0 = time.monotonic() if stamping else 0.0
        with metrics.timed("dispatch", events=0):
            route, ready, backlog = self._batcher.offer(task)
        query_id = None
        if task.kind is TaskKind.QUERY:
            assert isinstance(route, QueryRoute)
            metrics.queries_submitted += 1
            query_id = task.query_id
            if backlog is not None:
                metrics.shed += 1
                self._shed[query_id] = Overloaded(
                    query_id, backlog, self._resilience.config.max_outstanding
                )
                self._telemetry.count("resilience.shed")
            else:
                layer = route.workers[0][0]
                columns = self._layer_columns.get(layer)
                if columns is None:
                    columns = self._layer_columns[layer] = tuple(
                        (worker[0], worker[2]) for worker in route.workers
                    )
                self._queries[query_id] = _PendingQuery(
                    task, columns, route.row, self._generation
                )
                # Fault point: deadline arming (a disabled policy
                # resolves every SLO to None).
                slo = self._resilience.deadline_for(
                    task.deadline, self._config.default_deadline
                )
                if slo is not None:
                    heapq.heappush(
                        self._deadline_heap,
                        (time.monotonic() + slo, query_id),
                    )
                if stamping:
                    self._telemetry.begin_trace(query_id, route.workers)
        else:
            metrics.updates_submitted += 1
            self._record_update(task)
        self._send_batches(ready)
        if stamping:
            self._telemetry.record(
                "dispatch", time.monotonic() - t0, start=t0, query_id=query_id
            )
        # Opportunistically drain acks so the result pipes stay short.
        self._collect_ready()

    def _record_update(self, task: Task) -> None:
        """Advance the submit-time object ledger; dual-feed a warming
        shape.  Runs *after* the serving router validated the update,
        so the transition feed can never see an invalid op."""
        if task.kind is TaskKind.INSERT:
            self._objects[task.object_id] = task.location
        else:
            self._objects.pop(task.object_id, None)
        if self._transition is not None:
            self._feed_transition(task)

    def flush(self) -> None:
        """Dispatch every partial batch (latency over amortization)."""
        if not self._started or self._closed:
            return
        with self.metrics.timed("dispatch", events=0):
            ready = self._batcher.flush()
        self._send_batches(ready)

    @property
    def batch_size(self) -> int:
        return self._batcher.batch_size

    def set_batch_size(self, batch_size: int) -> None:
        """Change the dispatch batch size for subsequent submits.

        Already-buffered ops are flushed first so no op waits on the
        *old* threshold while the new one is in force — the switch is
        FCFS-transparent.
        """
        self.flush()
        self._batcher.set_batch_size(batch_size)

    def retune_batch_size(
        self, arrival_rate: float, *, candidates: tuple[int, ...] | None = None
    ) -> int:
        """Adapt ``batch_size`` to measured timings; return the choice.

        Calibrates the stage-cost model from this pool's own telemetry
        (:func:`repro.sim.measurement.machine_spec_from_telemetry`) and
        picks the candidate minimizing modeled Rq at ``arrival_rate``
        (per-worker tasks/second) with fanout ``x`` — one merge per
        partial (see :mod:`repro.mpr.batching`).  With telemetry
        disabled the model falls back to :class:`MachineSpec` defaults,
        which still yields a sane size.  No-op if the choice matches
        the current size.
        """
        from .batching import DEFAULT_BATCH_CANDIDATES, recommend_batch_size

        choice = recommend_batch_size(
            self._telemetry, arrival_rate,
            candidates=(
                candidates if candidates is not None
                else DEFAULT_BATCH_CANDIDATES
            ),
            fanout=self._config.x,
        )
        if choice != self._batcher.batch_size:
            self.set_batch_size(choice)
            self._telemetry.count("pool.batch_retunes")
        return choice

    def _send_batches(self, batches: Sequence[WorkerBatch]) -> None:
        for worker_id, ops in batches:
            state = self._workers[worker_id]
            self._ensure_alive(state)
            with self.metrics.timed("dispatch"):
                state.send(ops)
            self.metrics.batches_sent += 1
            self.metrics.messages_sent += 1
            self.metrics.ops_dispatched += len(ops)

    # ------------------------------------------------------------------
    # Collection and supervision
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> dict[int, list[Neighbor]]:
        """Flush, wait until the pool quiesces, return finished answers.

        Returns the aggregated top-k for every query submitted since
        the previous drain.  ``timeout`` bounds the total wait
        (``None`` = wait as long as workers keep making progress); on
        expiry the raised :class:`TimeoutError` lists every outstanding
        ``(worker_id, seq)`` batch so the caller can see exactly which
        cells never acknowledged.

        Loops until every batch is acknowledged (or quarantined) *and*
        every admitted query is resolved — answered on all its columns,
        or explicitly degraded.  Worker death during the wait goes to
        the policy (respawn + replay, or breaker + quarantine); queries
        past an armed deadline are hedged to a sibling replica row.
        Once nothing is in flight, any still-unresolved query is
        force-resolved: hedged to an untried replica row when one
        exists, degraded to a :class:`~repro.knn.base.PartialResult`
        otherwise — the loop can therefore never hang on a dead column.
        """
        self.flush()
        wall = None if timeout is None else time.monotonic() + timeout
        while True:
            now = time.monotonic()
            if self._transition is not None or self._retiring:
                self._advance_transition(now)
            self._enforce_deadlines(now)
            outstanding = self._outstanding()
            if not outstanding and not self._has_unresolved():
                break
            if wall is not None and now >= wall:
                raise self._quiesce_failure(timeout)
            if not outstanding:
                self._force_resolve(now)
                continue
            wait_for = self._health_check_interval
            if self._deadline_heap:
                wait_for = min(
                    wait_for, max(self._deadline_heap[0][0] - now, 0.001)
                )
            if not self._pump(wait_for):
                self._check_health(time.monotonic())
        if self._transition is not None or self._retiring:
            self._advance_transition(time.monotonic())
        return self._finish_answers()

    def _quiesce_failure(self, timeout: float | None) -> QuiesceTimeout:
        """Diagnostic for a drain timeout: name every unacked batch and
        every query id those batches (or unresolved hedges) strand."""
        states = list(self._workers.values()) + list(self._retiring)
        pending = sorted(
            (state.worker_id, seq)
            for state in states
            for seq in state.unacked
        )
        query_ids = {
            op[1]
            for state in states
            for ops in state.unacked.values()
            for op in ops
            if op[0] == "query"
        }
        query_ids.update(
            query_id for query_id, query in self._queries.items()
            if not query.resolved
        )
        affected = sorted(query_ids)
        return QuiesceTimeout(
            f"pool did not quiesce within {timeout} s; "
            f"{len(pending)} batches outstanding (worker, seq): {pending}; "
            f"affected query ids: {affected}",
            pending=pending,
            query_ids=affected,
        )

    def run(self, tasks: Sequence[Task]) -> dict[int, list[Neighbor]]:
        """Submit a whole stream and drain it; workers stay alive."""
        answers = super().run(tasks)
        if self._check_invariants:
            check_matrix_invariants(self.worker_contents(), self._config)
        return answers

    def worker_contents(self) -> dict[WorkerId, dict[int, int]]:
        """Object placements per serving worker: the acknowledged cells
        (each worker's exact state once a drain has returned)."""
        return {
            worker_id: dict(state.cell)
            for worker_id, state in self._workers.items()
        }

    def worker_pids(self) -> dict[WorkerId, int]:
        """Live worker process ids (fault-injection hooks; thread
        workers have none)."""
        return {
            worker_id: state.process.pid
            for worker_id, state in self._workers.items()
            if state.process is not None and state.process.pid is not None
        }

    def _outstanding(self) -> int:
        total = sum(len(state.unacked) for state in self._workers.values())
        for state in self._retiring:
            total += len(state.unacked)
        return total

    def _pump(self, timeout: float) -> bool:
        """One pump step: wait up to ``timeout`` seconds on every result
        pipe (and every clogged inbox), then read and handle one message
        from each ready result pipe and flush each inbox that has room.

        The only place the data plane blocks; a blocking step counts as
        the ``wait`` stage, a poll (``timeout=0``) does not.  Returns
        whether any message was handled — a step that handled nothing
        is the supervisor's cue to check worker health.  (With every
        worker dead the wait set is empty and the step waits out the
        interval.)
        """
        blocking = timeout > 0
        started = time.perf_counter() if blocking else 0.0
        ready = self._selector.select(timeout)
        if blocking:
            self.metrics.wait.add(time.perf_counter() - started, events=0)
        handled = False
        for key, events in ready:
            owner = key.data
            if events & selectors.EVENT_WRITE:
                owner.flush()  # a clogged inbox: the worker made room
                continue
            message = self._receive(owner)
            if message is not None:
                handled = True
                self._handle(message, owner)
        return handled

    def _receive(self, state: _WorkerState):
        """Read one message off ``state``'s result pipe; retire its
        pipes on EOF.

        EOF means the writing worker is gone (its buffered messages
        stay readable until then, so no surviving ack is lost); the
        reader is dropped from the wait set until a respawn replaces
        it.  A warming worker's EOF marks the in-flight transition
        faulted — processed (as a rollback) by ``_advance_transition``.
        Returns the message, or None for a retired reader.
        """
        try:
            return state.reader.recv()
        except (EOFError, OSError):
            self._retire_pipes(state)
            if (
                state.group == "transition"
                and self._transition is not None
                and self._transition.fault is None
            ):
                self._transition.fault = (
                    f"worker {state.worker_id} died while warming"
                )
            return None

    def _retire_pipes(self, state: _WorkerState) -> None:
        """Close the parent's ends of a gone worker's pipes: the result
        reader (out of the wait set first) and a pipe inbox's write end
        (what it had not taken is still in ``unacked``)."""
        reader = state.reader
        if reader is None:
            return
        self._selector.unregister(reader)
        reader.close()
        state.reader = None
        if isinstance(state.inbox, _PipeInbox):
            state.inbox.close()

    def _collect_ready(self) -> None:
        while self._pump(0):
            pass

    def _handle(self, message: tuple, state: _WorkerState) -> None:
        """Process one worker message.

        ``state`` is the pipe's owning worker.  Dispatching on the
        state object rather than the wire worker id is what keeps a
        post-cutover retiring fleet — whose ids collide with the
        current one — unambiguous.
        """
        kind = message[0]
        if kind == "done":
            seq, partials = message[2], message[3]
            if state.group == "transition":
                # Probe or catch-up ack: no queries, no stamps recorded
                # (dual-fed updates must not double-count histograms).
                state.acknowledge(seq)
                return
            self._handle_done(
                state, seq, partials, message[4] if len(message) == 5 else None
            )
        elif kind == "error":
            _, worker_id, seq, detail = message
            if state.group == "transition":
                if self._transition is not None and self._transition.fault is None:
                    self._transition.fault = (
                        f"worker {worker_id} failed while warming "
                        f"batch {seq}: {detail}"
                    )
            elif self._resilience.enabled:
                # Fault point: a worker-reported execution error.
                self._handle_poison(state, seq, detail)
            else:
                state.failed = detail
                raise WorkerCrash(
                    f"worker {worker_id} failed on batch {seq}: {detail}"
                )
        elif kind == "stopped":  # graceful exit ack (retire or close)
            pass
        else:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unknown pool message {message!r}")

    def _handle_done(
        self,
        state: _WorkerState,
        seq: int,
        partials: list,
        stamps: tuple | None,
    ) -> None:
        """An ack: per-column first-answer-wins dedup.

        A hedge means the same query may be answered by two rows of one
        column; the first partial per ``(layer, column)`` is accepted,
        later ones from a *different* worker are dropped as duplicates
        (their telemetry spans are skipped too, so a traced query keeps
        exactly one ``execute`` span).  Replays from the *same* worker
        overwrite idempotently.
        """
        worker_id = state.worker_id
        column = (worker_id[0], worker_id[2])
        stamping = stamps is not None and self._telemetry.enabled
        # Only needed as the span-skip set; None skips the allocation.
        duplicates: set[int] | None = set() if stamping else None
        metrics = self.metrics
        queries = self._queries
        for query_id, partial in partials:
            metrics.partials_received += 1
            query = queries.get(query_id)
            if query is None:
                # Query already finished (late ack after a prior drain)
                # or was shed: nothing to attribute the spans to.
                if duplicates is not None:
                    duplicates.add(query_id)
                continue
            accepted = query.accepted
            prior = accepted.get(column)
            if prior is not None and prior[0] != worker_id:
                metrics.duplicate_acks += 1
                self._telemetry.count("resilience.duplicate_acks")
                if duplicates is not None:
                    duplicates.add(query_id)
                continue
            accepted[column] = (worker_id, partial)
            # A late answer beats a provisional degrade decision.
            if query.missing:
                query.missing.discard(column)
        if stamping:
            record_batch_stamps(
                self._telemetry, worker_id, state.sent_at.get(seq), stamps,
                skip=duplicates,
            )
        ops = state.unacked.get(seq)
        if state.acknowledge(seq) and state.group == "current":
            # Retiring acks skip the ledgers: the cutover cleared the
            # admission counts and breakers, whose keys now belong to
            # the same-id workers of the new shape.
            self._resilience.admission.acked(worker_id, len(ops))
            breaker = self._resilience.breakers().get(worker_id)
            if breaker is not None:
                breaker.record_success()

    def _handle_poison(
        self, state: _WorkerState, seq: int, detail: str
    ) -> None:
        """A worker reported an execution error on batch ``seq``.

        The batch is *poison*: quarantined permanently (never replayed
        — replaying would crash-loop every replica it touches) and the
        worker, which exits after reporting, is respawned without
        feeding the circuit breaker.  Queries in the batch resolve via
        hedge/degrade; updates in it are dropped on this replica and
        kept in ``state.poisoned`` for inspection — the price of not
        wedging the whole column on one bad op.
        """
        ops = state.unacked.pop(seq, None)
        state.sent_at.pop(seq, None)
        if ops is not None:
            state.poisoned[seq] = ops
            if state.group == "current":
                # As in _handle_done: after a cutover the ledger's keys
                # belong to the new shape's same-id workers.
                self._resilience.admission.acked(state.worker_id, len(ops))
            self.metrics.batches_quarantined += 1
            self._telemetry.count("resilience.quarantined")
        state.down = True  # exit is expected: skip the breaker
        self._respawn(state)

    def _finish_answers(self) -> dict[int, list[Neighbor]]:
        """Merge accepted columns; flag degraded and shed queries.

        A query whose columns all answered merges to a plain list.  A
        query with degraded columns merges the survivors into a
        :class:`~repro.knn.base.PartialResult` naming the missing
        ``(layer, column)`` cells; a shed query maps to its
        :class:`Overloaded` verdict.
        """
        telemetry = self._telemetry
        stamping = telemetry.enabled
        queries = self._queries
        events = len(queries) + len(self._shed)
        with self.metrics.timed("aggregate", events=events):
            answers: dict[int, list[Neighbor]] = {}
            for query_id, query in queries.items():
                accepted = query.accepted
                missing: Sequence[tuple[int, int]] = ()
                if len(accepted) != len(query.columns):
                    missing = sorted(
                        column for column in query.columns
                        if column not in accepted
                    )
                parts = [partial for _worker, partial in accepted.values()]
                t0 = time.monotonic() if stamping else 0.0
                answers[query_id] = merge_partial_results(
                    parts, query.task.k, missing_columns=missing
                )
                if stamping:
                    telemetry.record(
                        "merge", time.monotonic() - t0,
                        start=t0, query_id=query_id,
                    )
                if missing:
                    self.metrics.degraded += 1
                    telemetry.count("resilience.degraded")
            answers.update(self._shed)
        if stamping:
            for query_id in queries:
                trace = telemetry.trace(query_id)
                if trace is not None and trace.spans:
                    telemetry.record("response", trace.response_time)
        queries.clear()
        self._shed.clear()
        self._deadline_heap.clear()
        return answers

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _check_health(self, now: float) -> None:
        """Liveness sweep: stalls, deaths, and half-open breaker trials.

        Visits workers with *no* unacked work too — a quarantined
        (breaker-open) worker holds its batches outside ``unacked``,
        and its half-open retry can only fire from here.
        """
        for state in self._workers.values():
            process = state.process
            if process is not None and process.is_alive():
                if self._stalled(state, now):
                    self._kill_stalled(state)
                    self._on_death(state, now)
            elif state.unacked or state.quarantined:
                self._on_death(state, now)

    def _stalled(self, state: _WorkerState, now: float) -> bool:
        """Live but silent past the policy's watchdog (SIGSTOPped or
        wedged in a syscall)?  Never, when the policy has no watchdog —
        or the workers are threads, which no SIGKILL can clear."""
        stall_timeout = self._resilience.config.stall_timeout
        return (
            stall_timeout is not None
            and not self._thread_workers
            and bool(state.sent_at)
            and now - min(state.sent_at.values()) > stall_timeout
        )

    def _kill_stalled(self, state: _WorkerState) -> None:
        """SIGKILL converts a stall into the well-understood
        crash/replay path."""
        state.process.kill()
        state.process.join(timeout=1.0)
        self.metrics.stall_kills += 1
        self._telemetry.count("resilience.stall_kills")

    def _ensure_alive(self, state: _WorkerState) -> None:
        process = state.process
        if process is None or not process.is_alive():
            self._on_death(state, time.monotonic())

    def _on_death(self, state: _WorkerState, now: float) -> None:
        """Fault point: a serving worker's process is gone.

        Disabled policy: respawn from the replica cell and replay,
        until the per-worker budget is spent — then (or once the worker
        reported an execution error) :class:`WorkerCrash`.

        Enabled policy: the first observation of a death records one
        breaker failure; crossing the consecutive-failure threshold
        opens the breaker and quarantines the in-flight batches.  A
        respawn happens only when the breaker allows it (always while
        closed; one half-open trial per backoff window while open) — so
        a crash-looping cell costs an exponentially shrinking respawn
        rate instead of a tight fork loop, and its queries hedge or
        degrade meanwhile.
        """
        if not self._resilience.enabled:
            if state.failed is not None:
                raise WorkerCrash(
                    f"worker {state.worker_id} is failed: {state.failed}"
                )
            if state.respawns >= self._max_respawns:
                raise WorkerCrash(
                    f"worker {state.worker_id} exceeded the respawn budget "
                    f"({self._max_respawns}); last batches: "
                    f"{sorted(state.unacked)}"
                )
            self._respawn(state)
            return
        breaker = self._resilience.breaker(state.worker_id)
        if not state.down:
            state.down = True
            if breaker.record_failure(now):
                self.metrics.breaker_opens += 1
                self._telemetry.count("resilience.breaker_open")
                self._quarantine(state)
        if breaker.allow(now):
            self._respawn(state)
        else:
            # Batches dispatched while the breaker was already open
            # (the send path only learns of the death here) must not
            # count as outstanding either: park them with the rest.
            self._quarantine(state)

    def _quarantine(self, state: _WorkerState) -> None:
        """Park a broken worker's in-flight batches outside ``unacked``.

        Quarantined batches stop counting as outstanding (the drain
        loop must not wait on a cell the breaker declared down) and
        release their admission debt; the half-open respawn moves them
        back and replays them in seq order.
        """
        if not state.unacked:
            return
        admission = self._resilience.admission
        for seq, ops in state.unacked.items():
            state.quarantined[seq] = ops
            admission.acked(state.worker_id, len(ops))
        moved = len(state.unacked)
        state.unacked.clear()
        state.sent_at.clear()
        self.metrics.batches_quarantined += moved
        self._telemetry.count("resilience.quarantined", moved)

    # ------------------------------------------------------------------
    # Deadlines, hedges, and degraded answers
    # ------------------------------------------------------------------
    def _has_unresolved(self) -> bool:
        return any(not query.resolved for query in self._queries.values())

    def _enforce_deadlines(self, now: float) -> None:
        """Pop due deadlines; hedge (or degrade) the late queries.

        A query still unresolved at its deadline counts one miss and
        re-arms for another SLO window, so a hedge that itself lands on
        a dying worker gets hedged again until the rows are exhausted.
        An empty heap — no deadline was ever armed — is the whole cost
        of a policy without deadlines.
        """
        heap = self._deadline_heap
        while heap and heap[0][0] <= now:
            _due, query_id = heapq.heappop(heap)
            query = self._queries.get(query_id)
            if query is None or query.resolved:
                continue
            self.metrics.deadline_misses += 1
            self._telemetry.count("resilience.deadline_misses")
            self._resolve_query(query, now, force=False)
            if not query.resolved:
                slo = self._resilience.deadline_for(
                    query.task.deadline, self._config.default_deadline
                )
                heapq.heappush(heap, (now + slo, query_id))

    def _force_resolve(self, now: float) -> None:
        """Nothing in flight: settle every still-unresolved query.

        With zero outstanding batches no answer can arrive on its own,
        so each unanswered column either gets a hedge to an untried row
        (re-entering the drain loop) or is degraded.  Attempted-row
        sets grow monotonically, so this terminates within ``y`` rounds
        per column.
        """
        for query in self._queries.values():
            if not query.resolved:
                self._resolve_query(query, now, force=True)

    def _resolve_query(
        self, query: _PendingQuery, now: float, *, force: bool
    ) -> None:
        """Hedge or degrade every unanswered column of one query."""
        accepted = query.accepted
        missing = query.missing
        if query.generation != self._generation:
            # Routed under a shape that has since cut over: its replica
            # rows are retiring, and the current matrix holds different
            # cells, so a hedge would return the wrong column contents.
            # Wait for the retiring workers (which are respawned on
            # death until drained); degrade only when forced — i.e.
            # when nothing is in flight that could still answer.
            if force:
                missing.update(
                    column for column in query.columns
                    if column not in accepted
                )
            return
        hedge_enabled = self._resilience.config.hedge
        for column in query.columns:
            if column in accepted or column in missing:
                continue
            row = (
                self._pick_hedge_row(query, column, now)
                if hedge_enabled
                else None
            )
            if row is not None:
                self._dispatch_hedge(query, column, row)
            elif force or not hedge_enabled or self._column_down(column):
                # Give up on this column: answer without it.
                missing.add(column)
            # else: every row is attempted but some attempt is still in
            # flight (replay pending) — keep waiting for it.

    def _column_down(self, column: tuple[int, int]) -> bool:
        """True when no replica row of ``column`` can currently serve."""
        layer, col = column
        breakers = self._resilience.breakers()
        for row in range(self._config.y):
            breaker = breakers.get((layer, row, col))
            if breaker is None or breaker.state != CircuitBreaker.OPEN:
                return False
        return True

    def _pick_hedge_row(
        self, query: _PendingQuery, column: tuple[int, int], now: float
    ) -> int | None:
        """Least-loaded untried replica row whose breaker permits work."""
        layer, col = column
        if query.attempted is None:
            # The submit path records only the routed row; the per-
            # column sets materialize on the first hedge decision.
            query.attempted = {col_: {query.row} for col_ in query.columns}
        attempted = query.attempted[column]
        breakers = self._resilience.breakers()
        admission = self._resilience.admission
        best_row: int | None = None
        best_load = 0
        for row in range(self._config.y):
            if row in attempted:
                continue
            breaker = breakers.get((layer, row, col))
            if breaker is not None and not breaker.allow(now):
                continue
            load = admission.load((layer, row, col))
            if best_row is None or load < best_load:
                best_row = row
                best_load = load
        return best_row

    def _dispatch_hedge(
        self, query: _PendingQuery, column: tuple[int, int], row: int
    ) -> None:
        """Re-issue one query to a sibling replica row of ``column``.

        The hedge is a single-op batch through the normal seq/unacked
        machinery, so it survives crashes of its target exactly like a
        first-class dispatch; queries never mutate state, so the
        original answering later is harmless (first answer wins).
        """
        layer, col = column
        target: WorkerId = (layer, row, col)
        query.attempted[column].add(row)
        self._resilience.admission.dispatched((target,), 1)
        self.metrics.hedges += 1
        self._telemetry.count("resilience.hedges")
        self._send_batches([(target, (encode_op(query.task),))])

    # ------------------------------------------------------------------
    # Live reconfiguration (shape changes without downtime)
    # ------------------------------------------------------------------
    def begin_reconfigure(
        self,
        new_config: MPRConfig,
        *,
        trigger: str = "manual",
        warm_timeout: float = 10.0,
        retire_timeout: float = 10.0,
    ) -> ReconfigEvent:
        """Start a supervised transition to ``new_config``; non-blocking.

        Spawns the new shape's workers (attaching to the already-
        published shared-memory/memmap graph), hands each an exact
        object-cell snapshot from the submit-time ledger, and sends an
        empty *probe* batch whose ack proves the spawn + graph attach +
        cell load completed end to end.  The old shape keeps serving
        throughout; updates submitted from now on are dual-fed to the
        warming cells.  The transition then advances opportunistically
        from the submit/drain paths (or :meth:`reconfigure`'s wait
        loop): once every probe is acked the router/batcher pair is
        swapped atomically; any warming fault or the ``warm_timeout``
        expiring rolls back to the old shape instead.

        Raises :class:`ReconfigRejected` (recording a rejected event)
        when the target equals the current shape, a transition is
        already in flight, the previous shape still owes pre-cutover
        answers (a drained one is stopped and reaped here first), or
        the reconfiguration circuit breaker is open.
        """
        self.start()
        now = time.monotonic()
        if new_config == self._config:
            self._reject_reconfigure(
                new_config, trigger, "target equals the current shape"
            )
        if self._transition is not None:
            self._reject_reconfigure(
                new_config, trigger, "a transition is already in flight"
            )
        if self._retiring:
            self._reap_retiring(now)
        if self._retiring:
            self._reject_reconfigure(
                new_config, trigger, "the previous shape is still retiring"
            )
        if not self._reconfig_breaker.allow(now):
            self._reject_reconfigure(
                new_config, trigger,
                "reconfiguration breaker open after repeated rollbacks",
            )
        event = ReconfigEvent(
            started_at=time.time(),
            old_config=self._config,
            new_config=new_config,
            trigger=trigger,
        )
        router = MPRRouter(new_config, telemetry=NULL_TELEMETRY)
        contents = router.preload_objects(dict(self._objects))
        workers: dict[WorkerId, _WorkerState] = {}
        for worker_id, cell in contents.items():
            state = _WorkerState(worker_id, cell)
            state.group = "transition"
            workers[worker_id] = state
        batcher = RouteBatcher(
            router, self._batcher.batch_size, telemetry=NULL_TELEMETRY
        )
        self._transition = _Transition(
            event, new_config, router, batcher, workers,
            warm_deadline=now + warm_timeout,
            retire_timeout=retire_timeout,
            started=now,
        )
        self.reconfig_history.append(event)
        self._telemetry.count("reconfig.attempts")
        try:
            for state in workers.values():
                self._spawn(state)
                state.send(())  # the probe: seq 0, no ops
        except Exception as exc:  # pragma: no cover - spawn failure
            self._transition_failed(f"spawn failed: {exc!r}")
            raise
        return event

    def reconfigure(
        self,
        new_config: MPRConfig,
        *,
        trigger: str = "manual",
        warm_timeout: float = 10.0,
        retire_timeout: float = 10.0,
        wait_retire: bool = False,
        timeout: float = 30.0,
    ) -> ReconfigEvent:
        """Transition to ``new_config`` and wait for the outcome.

        Blocks until the transition completes (cutover done) or rolls
        back; with ``wait_retire`` also until the old shape has fully
        retired.  In-flight and newly arriving acks from the serving
        shape keep being collected while waiting, so calling this with
        queries outstanding is safe.  Returns the terminal
        :class:`ReconfigEvent`; raises :class:`ReconfigRejected` as
        :meth:`begin_reconfigure` does, or ``TimeoutError`` if the
        transition does not settle within ``timeout`` seconds.
        """
        event = self.begin_reconfigure(
            new_config, trigger=trigger,
            warm_timeout=warm_timeout, retire_timeout=retire_timeout,
        )
        deadline = time.monotonic() + timeout
        while True:
            now = time.monotonic()
            self._advance_transition(now)
            if event.outcome != "pending" and not (
                wait_retire and self._retiring
            ):
                break
            if now >= deadline:
                raise TimeoutError(
                    f"reconfiguration to ({new_config.x}, {new_config.y}, "
                    f"{new_config.z}) did not settle within {timeout} s "
                    f"(outcome={event.outcome!r})"
                )
            self._pump(self._health_check_interval)
        return event

    def transition_pids(self) -> dict[WorkerId, int]:
        """Warming-worker pids of the in-flight transition (chaos hooks)."""
        if self._transition is None:
            return {}
        return {
            worker_id: state.process.pid
            for worker_id, state in self._transition.workers.items()
            if state.process is not None and state.process.pid is not None
        }

    def _reject_reconfigure(
        self, new_config: MPRConfig, trigger: str, reason: str
    ) -> None:
        wall = time.time()
        event = ReconfigEvent(
            started_at=wall,
            old_config=self._config,
            new_config=new_config,
            trigger=trigger,
            outcome="rejected",
            reason=reason,
            finished_at=wall,
        )
        self.reconfig_history.append(event)
        self._telemetry.count("reconfig.rejected")
        raise ReconfigRejected(reason)

    def _feed_transition(self, task: Task) -> None:
        """Dual-feed one update to the warming shape's cells.

        The warming batcher buffers like the serving one; full batches
        dispatch immediately, partial ones are flushed at cutover.
        Because each worker inbox is FCFS, every catch-up batch is
        applied before any post-cutover batch reaches the same worker —
        the new cells are exactly the ledger state at cutover.
        """
        transition = self._transition
        _route, ready = transition.batcher.add(task)
        transition.event.catchup_ops += 1
        for worker_id, ops in ready:
            transition.workers[worker_id].send(ops)

    def _advance_transition(self, now: float) -> None:
        """One supervision step of the transition state machine.

        Called from the submit and drain paths whenever a transition or
        a retiring fleet exists (one branch otherwise): detects warming
        faults (→ rollback), performs the cutover once every probe is
        acked, enforces the warm deadline, and progresses retirement.
        """
        transition = self._transition
        if transition is not None:
            if transition.fault is None:
                for state in transition.workers.values():
                    process = state.process
                    if process is None or not process.is_alive():
                        transition.fault = (
                            f"worker {state.worker_id} died while warming"
                        )
                        break
            if transition.fault is not None:
                self._transition_failed(transition.fault)
            elif all(
                0 not in state.unacked
                for state in transition.workers.values()
            ):
                # Every probe acked: spawn + graph attach + cell load
                # proven end to end.  Catch-up batches may still be in
                # flight — per-worker FCFS guarantees they apply before
                # anything the new shape is sent after the swap.
                self._cutover(now)
            elif now >= transition.warm_deadline:
                self._transition_failed(
                    "warm phase timed out before every probe was acked"
                )
        self._check_retiring(now)

    def _cutover(self, now: float) -> None:
        """Swap the new shape in — atomic from the router's perspective.

        Both batchers are flushed first so every buffered op is
        dispatched under the shape that routed it; then the
        router/batcher/worker-map references swap in one supervisor
        step (no query can be routed to a retiring cell afterwards),
        the generation counter bumps, and the old fleet moves to the
        retiring list to finish its in-flight work.
        """
        transition = self._transition
        event = transition.event
        with self.metrics.timed("dispatch", events=0):
            old_ready = self._batcher.flush()
        self._send_batches(old_ready)
        for worker_id, ops in transition.batcher.flush():
            transition.workers[worker_id].send(ops)
        event.inflight_at_cutover = self._outstanding()
        old_states = list(self._workers.values())
        for state in old_states:
            state.group = "retiring"
            # Quarantined batches die with the shape: their queries
            # resolve via the stale-generation degrade path, their
            # updates are already in the ledger the new cells loaded.
            state.quarantined.clear()
        self._retiring.extend(old_states)
        self._retire_deadline = now + transition.retire_timeout
        self._retire_started = now
        self._retire_event = event
        for state in transition.workers.values():
            state.group = "current"
        self._workers = transition.workers
        transition.router.adopt_telemetry(self._telemetry)
        transition.batcher.adopt_telemetry(self._telemetry)
        self._router = transition.router
        self._batcher = transition.batcher
        self._config = transition.new_config
        self._layer_columns.clear()
        self._generation += 1
        # Worker ids are reused by the new shape: breaker state and
        # admission debt earned by the old fleet must not bleed onto
        # same-id successors.  Retiring acks skip both ledgers (gated
        # by group), so clearing cannot go negative.
        self._batcher.admission = self._resilience.admission
        self._resilience.clear_breakers()
        self._resilience.admission.outstanding.clear()
        self._transition = None
        self._reconfig_breaker.record_success()
        event.outcome = "completed"
        event.finished_at = time.time()
        event.generation = self._generation
        event.phases["warm"] = now - transition.started
        self.metrics.reconfigurations += 1
        self._telemetry.count("reconfig.completed")
        if event.catchup_ops:
            self._telemetry.count("reconfig.catchup_ops", event.catchup_ops)
        self._telemetry.record(
            "reconfig.warm", now - transition.started,
            start=transition.started,
        )

    def _transition_failed(
        self, reason: str, *, feed_breaker: bool = True
    ) -> None:
        """Roll back: discard the half-built shape, keep the old one.

        The serving shape was never touched — no router swap happened,
        no old worker was stopped — so rollback is a pure discard of
        the warming fleet.  Feeds the reconfiguration circuit breaker
        (unless the rollback is administrative, e.g. pool close).
        """
        transition = self._transition
        if transition is None:
            return
        self._transition = None
        for state in transition.workers.values():
            process = state.process
            if process is not None and process.is_alive():
                process.kill()
        for state in transition.workers.values():
            if state.process is not None:
                state.process.join(timeout=1.0)
            self._retire_pipes(state)
        event = transition.event
        event.outcome = "rolled_back"
        event.reason = reason
        event.finished_at = time.time()
        event.phases["warm"] = time.monotonic() - transition.started
        self.metrics.reconfig_rollbacks += 1
        self._telemetry.count("reconfig.rollbacks")
        if feed_breaker and self._reconfig_breaker.record_failure(
            time.monotonic()
        ):
            self._telemetry.count("reconfig.breaker_open")

    def _check_retiring(self, now: float) -> None:
        """Progress the retiring fleet toward zero.

        A retiring worker that still owes pre-cutover answers is kept
        (and respawned breaker-free if it dies, stall-killed if it goes
        silent) until its unacked log drains; a drained worker gets one
        graceful stop, then SIGKILL past the retire deadline.  When the
        last one exits, the retire phase duration is recorded on the
        owning event.
        """
        if not self._retiring:
            return
        finished: list[_WorkerState] = []
        for state in self._retiring:
            process = state.process
            alive = process is not None and process.is_alive()
            if state.unacked:
                # Breaker-free and budget-free by design: after the
                # cutover the breaker and admission keys belong to the
                # new shape's same-id workers.
                if not alive:
                    self._respawn(state)
                elif self._stalled(state, now):
                    self._kill_stalled(state)
                    self._respawn(state)
                continue
            if alive:
                if not state.stop_sent:
                    state.inbox.put(_STOP)
                    state.stop_sent = True
                elif now >= self._retire_deadline:
                    process.kill()
                    process.join(timeout=1.0)
            else:
                if process is not None:
                    process.join(timeout=1.0)
                self._retire_pipes(state)
                finished.append(state)
        if finished:
            for state in finished:
                self._retiring.remove(state)
            if not self._retiring:
                event = self._retire_event
                if event is not None:
                    event.phases["retire"] = now - self._retire_started
                    self._retire_event = None
                self._telemetry.record(
                    "reconfig.retire", now - self._retire_started,
                    start=self._retire_started,
                )

    def _reap_retiring(self, now: float) -> None:
        """Stop and reap a drained retiring fleet before a new transition.

        Retirement otherwise progresses only from submit and drain, so
        workers that owe nothing may not have been told to stop yet, or
        not have exited (a thread worker needs the GIL to).  Workers
        still owing pre-cutover answers are left alone.
        """
        self._check_retiring(now)  # stop the drained, reap the exited
        for state in self._retiring:
            if state.stop_sent and not state.unacked:
                state.process.join(timeout=1.0)
        self._check_retiring(now)

    def _spawn(self, state: _WorkerState) -> None:
        """Start ``state``'s worker — the one place its kind is decided."""
        threaded = self._thread_workers
        if threaded:
            inbox = state.inbox = queue.SimpleQueue()
        else:
            inbox, inbox_writer = self._context.Pipe(duplex=False)
            state.inbox = _PipeInbox(inbox_writer, self._selector)
        reader, writer = self._context.Pipe(duplex=False)
        state.reader = reader
        self._selector.register(reader, selectors.EVENT_READ, state)
        main_args = (
            self._solution.spawn(dict(state.cell)),
            state.worker_id,
            inbox,
            writer,
            self._telemetry.enabled,
        )
        if threaded:
            state.process = _ThreadWorker(main_args)
        else:
            state.process = self._context.Process(
                target=_worker_main, args=main_args, daemon=True
            )
        state.process.start()
        if not threaded:
            # Drop the parent's copies of the worker's ends *before* any
            # later fork: the worker must be the result pipe's only
            # writer so its death raises EOF on our end, and the inbox's
            # only reader so a write after its death raises EPIPE (and
            # no sibling inherits a stray fd).  A thread worker holds
            # the only copy of its writer and closes it on exit.
            writer.close()
            inbox.close()

    def _respawn(self, state: _WorkerState) -> None:
        """Rebuild a dead worker from its replica cell; replay its log.

        A death can race with its last ack (the ack may be sitting in
        its result pipe), so its pending acks are consumed first —
        replays of batches whose ack did survive are then skipped or,
        if already re-sent, deduplicated downstream.  Only *its* pipe
        is read: this runs inside a pump step when a worker reports
        poison, and that step still holds siblings it found ready — a
        message consumed from under it would leave it blocked in
        ``recv`` on an empty pipe.  Batches quarantined while the
        breaker was open rejoin the log (and the admission ledger)
        before the replay.
        """
        process = state.process
        if process is not None:
            # A cleanly-exited worker (poison task) flushes its error
            # report on exit; joining first makes it visible below, so
            # poison reaches the error fault point instead of a replay
            # loop.
            process.join(timeout=1.0)
        while state.reader is not None and state.reader.poll():
            message = self._receive(state)  # EOF retires the reader
            if message is not None:
                self._handle(message, state)
        if state.process is not process:
            return  # that error report was in the residue: respawned
        self._retire_pipes(state)  # residual acks were drained above
        if state.quarantined:
            admission = self._resilience.admission
            for seq, ops in state.quarantined.items():
                state.unacked[seq] = ops
                admission.dispatched((state.worker_id,), len(ops))
            state.quarantined.clear()
        if state.group == "retiring" and not state.unacked:
            return  # the racing acks just drained it: nothing to replay
        state.respawns += 1
        self.metrics.respawns += 1
        self.metrics.batches_replayed += len(state.unacked)
        self.metrics.messages_sent += len(state.unacked)
        self._telemetry.count("pool.respawns")
        self._spawn(state)
        state.down = False
        state.replay()
