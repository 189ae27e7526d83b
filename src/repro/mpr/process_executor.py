"""The MPR executor: one data plane over a transport.

:class:`ProcessPoolService` realizes a core matrix over persistent
w-cores and is the only executor there is.  What a w-core *is* — an OS
process (``mode="process"``) or a thread (``mode="thread"``), the pipes
that carry its FCFS queue, the wait set, the clock — is
:mod:`repro.mpr.transport`'s business and is read nowhere here; what
this module owns is everything the paper's correctness argument is
about:

* **persistent workers** — workers start once (``start()`` or the
  context manager) and serve any number of ``run()``/``submit()``
  calls; the road network and each worker's object partition reach the
  worker once, mirroring MPR's one-time replica construction;
* **batched dispatch** — one transport message carries up to
  ``batch_size`` *queries* (one kernel sweep's worth) plus the updates
  that ride along, amortizing the kernel's per-sweep cost — the
  dominant term — and with it the per-message pickle and pipe cost
  (the τ' the paper models); ``flush()`` releases partial batches for
  latency-sensitive streams;
* **supervision** — the parent polls worker liveness while waiting on
  results; a dead worker (crash, SIGKILL) is respawned from its
  replica's object cell and the in-flight batches are replayed, so
  final answers are indistinguishable from a fault-free run.

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

There is one data plane: route and send, then book
(:meth:`ProcessPoolService._dispatch`) → pump → ack → settle.  What a pool does when
something breaks is decided by its
:class:`~repro.mpr.resilience.ResiliencePolicy` at the fault points (a
worker died, a worker reported an error, a deadline is armed), not by
a second copy of that path; what it does when its shape changes is
:class:`repro.mpr.reconfig._Reconfigurer`'s, which rotates the pool's
:class:`~repro.mpr.reconfig._Fleet` objects.

Per-stage timings and counters stream into a
:class:`repro.harness.PoolMetrics`, which mprbench's per-layer metrics
consume; the model is calibrated from the telemetry handle instead
(:func:`repro.sim.measurement.machine_spec_from_telemetry`).

Construction goes through :func:`repro.mpr.api.build_executor`, the
one public construction path.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Mapping, Sequence

from ..graph.kernels import QUERIES_PER_SWEEP
from ..harness.metrics import PoolMetrics
from ..knn.base import KNNSolution, Neighbor, merge_partial_results
from ..objects.tasks import Task, TaskKind
from ..obs import NULL_TELEMETRY, Telemetry
from .config import MPRConfig
from .core_matrix import (
    QueryRoute,
    WorkerBatch,
    WorkerId,
    check_matrix_invariants,
    encode_op,
)
from .executor import QuiesceTimeout, record_batch_stamps
from .reconfig import (
    DEFAULT_RETIRE_TIMEOUT,
    DEFAULT_SETTLE_TIMEOUT,
    DEFAULT_TRIGGER,
    DEFAULT_WAIT_RETIRE,
    DEFAULT_WARM_TIMEOUT,
    ReconfigEvent,
    _Fleet,
    _Reconfigurer,
    _Role,
    _WorkerState,
)
from .resilience import CircuitBreaker, ResilienceConfig, ResiliencePolicy
from .results import QueryResult, ResultStatus
from .transport import _STOP, EOF, Transport, _network_of, make_transport

_SERVING, _WARMING, _RETIRING = _Role.SERVING, _Role.WARMING, _Role.RETIRING
_PARTIAL, _OVERLOADED = ResultStatus.PARTIAL, ResultStatus.OVERLOADED


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


class _QueryLedger:
    """What the pool owes its callers: every query admitted since the
    last drain, and the rules each is settled by.

    First answer per ``(layer, column)`` wins (:meth:`accept`); a query
    past its deadline, or stranded with nothing in flight, has each
    unanswered column hedged to a sibling replica row or degraded
    (:meth:`enforce_deadlines`, :meth:`force_resolve`); :meth:`finish`
    merges what was accepted and names each outcome, once, as a
    :class:`~repro.mpr.results.QueryResult`.  Deciding a hedge is this
    ledger's; putting it on the wire is the pool's (``send_batches``),
    through the same seq/unacked machinery as every other batch.
    """

    def __init__(
        self, shapes, resilience, metrics, telemetry, now, send_batches
    ) -> None:
        self._shapes, self._resilience = shapes, resilience
        self._metrics, self._telemetry = metrics, telemetry
        self._now, self._send_batches = now, send_batches
        #: Admitted queries since the last drain, by query id.
        self.queries: dict[int, _PendingQuery] = {}
        self.shed: dict[int, QueryResult] = {}
        #: ``(due, query_id)`` heap of armed deadlines.
        self.deadlines: list[tuple[float, int]] = []

    def admit(self, task: Task, route: QueryRoute, now: float) -> None:
        """Open a routed query's ledger entry; arm its deadline from ``now``."""
        fleet = self._shapes.current
        layer = route.workers[0][0]
        columns = fleet.layer_columns.get(layer)
        if columns is None:
            columns = fleet.layer_columns[layer] = tuple(
                (worker[0], worker[2]) for worker in route.workers
            )
        query_id = task.query_id
        self.queries[query_id] = _PendingQuery(
            task, columns, route.row, fleet.generation
        )
        # Fault point: deadline arming (a disabled policy resolves
        # every SLO to None).
        slo = self._resilience.deadline_for(task.deadline)
        if slo is not None:
            heapq.heappush(self.deadlines, (now + slo, query_id))

    def refuse(self, query_id: int, backlog: int) -> None:
        """Shed a query routed at a backlog at the policy's bound:
        rejected with the numbers that rejected it, not silently
        dropped."""
        self._metrics.shed += 1
        self.shed[query_id] = QueryResult(
            query_id, _OVERLOADED, outstanding=backlog,
            bound=self._resilience.config.max_outstanding,
        )
        self._telemetry.count("resilience.shed")

    def accept(
        self, worker_id: WorkerId, partials: list, stamping: bool
    ) -> set[int] | None:
        """An ack's partials: per-column first-answer-wins dedup.

        A hedge means the same query may be answered by two rows of one
        column; the first partial per ``(layer, column)`` is accepted,
        later ones from a *different* worker are dropped as duplicates
        (their telemetry spans are skipped too, so a traced query keeps
        exactly one ``execute`` span — the returned set names them, or
        is None when nobody is stamping).  Replays from the *same*
        worker overwrite idempotently.
        """
        column = (worker_id[0], worker_id[2])
        # Only needed as the span-skip set; None skips the allocation.
        duplicates: set[int] | None = set() if stamping else None
        metrics = self._metrics
        queries = self.queries
        if partials:
            metrics.sweeps_acked += 1
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
        return duplicates

    def finish(self, answered_only: bool = False) -> dict[int, QueryResult]:
        """Merge accepted columns; name every outcome; forget the query.

        A query whose columns all answered is ``OK`` with the merged
        canonical top-k.  A query with degraded columns is ``PARTIAL``:
        the survivors' top-k plus the missing ``(layer, column)``
        cells; a shed query is the ``OVERLOADED`` verdict
        :meth:`refuse` recorded.  ``answered_only`` is the pass a
        :meth:`ProcessPoolService.step` makes before the pool is
        quiescent: only queries answered on every column (final — the
        first answer per column wins) and shed ones; a degrade decision
        stays provisional, since a late answer still beats it.
        """
        telemetry = self._telemetry
        stamping = telemetry.enabled
        queries = self.queries
        if answered_only:
            settled = [
                (query_id, query) for query_id, query in queries.items()
                if len(query.accepted) == len(query.columns)
            ]
            if not settled and not self.shed:
                return {}
        else:
            settled = list(queries.items())
        started = perf_counter()
        t0 = self._now() if stamping else 0.0
        results: dict[int, QueryResult] = {}
        for query_id, query in settled:
            accepted = query.accepted
            missing: tuple[tuple[int, int], ...] = ()
            if len(accepted) != len(query.columns):
                missing = tuple(sorted(
                    column for column in query.columns
                    if column not in accepted
                ))
            if len(accepted) == 1 and not missing:
                # One column, answered (every x = 1 shape): its partial
                # already is the canonical top-k.
                ((_worker, neighbors),) = accepted.values()
            else:
                neighbors = merge_partial_results(
                    [partial for _worker, partial in accepted.values()],
                    query.task.k,
                )
            if missing:
                self._metrics.degraded += 1
                telemetry.count("resilience.degraded")
                results[query_id] = QueryResult(
                    query_id, _PARTIAL, tuple(neighbors), missing
                )
            else:
                results[query_id] = QueryResult.from_answer(
                    query_id, neighbors
                )
        results.update(self.shed)
        self._metrics.aggregate.add(
            perf_counter() - started, len(settled) + len(self.shed)
        )
        if stamping and settled:
            # Each query's merge span is its share of the pass.
            share = (self._now() - t0) / len(settled)
            ids = [query_id for query_id, _query in settled]
            telemetry.record_shared("merge", share, ids, start=t0, step=share)
            telemetry.record_responses(ids)
        if answered_only:
            # Their deadline entries stay in the heap: enforce_deadlines
            # skips an id the ledger no longer holds.
            for query_id, _query in settled:
                del queries[query_id]
        else:
            queries.clear()
            self.deadlines.clear()
        self.shed.clear()
        return results

    # -- deadlines, hedges, and degraded answers -----------------------
    def unresolved(self) -> list[int]:
        """Ids of admitted queries with a column still unanswered."""
        return [
            query_id for query_id, query in self.queries.items()
            if not query.resolved
        ]

    def enforce_deadlines(self, now: float) -> None:
        """Pop due deadlines; hedge (or degrade) the late queries.

        A query still unresolved at its deadline counts one miss and
        re-arms for another SLO window, so a hedge that itself lands on
        a dying worker gets hedged again until the rows are exhausted.
        An empty heap — no deadline was ever armed — is the whole cost
        of a policy without deadlines.  Re-armed entries join the heap
        only after the sweep, so it ends whatever the SLO.
        """
        heap = self.deadlines
        rearmed: list[tuple[float, int]] = []
        while heap and heap[0][0] <= now:
            _due, query_id = heapq.heappop(heap)
            query = self.queries.get(query_id)
            if query is None or query.resolved:
                continue
            self._metrics.deadline_misses += 1
            self._telemetry.count("resilience.deadline_misses")
            self._resolve_query(query, now, force=False)
            if not query.resolved:
                slo = self._resilience.deadline_for(query.task.deadline)
                rearmed.append((now + slo, query_id))
        for entry in rearmed:
            heapq.heappush(heap, entry)

    def force_resolve(self, now: float) -> None:
        """Nothing in flight: settle every still-unresolved query.

        With zero outstanding batches no answer can arrive on its own,
        so each unanswered column either gets a hedge to an untried row
        (re-entering the drain loop) or is degraded.  Attempted-row
        sets grow monotonically, so this terminates within ``y`` rounds
        per column.
        """
        for query in self.queries.values():
            if not query.resolved:
                self._resolve_query(query, now, force=True)

    def _resolve_query(
        self, query: _PendingQuery, now: float, *, force: bool
    ) -> None:
        """Hedge or degrade every unanswered column of one query."""
        accepted = query.accepted
        missing = query.missing
        if query.generation != self._shapes.current.generation:
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
        for row in range(self._shapes.current.config.y):
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
        for row in range(self._shapes.current.config.y):
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
        self._metrics.hedges += 1
        self._telemetry.count("resilience.hedges")
        self._send_batches([(target, (encode_op(query.task),))])


class ProcessPoolService:
    """A persistent worker pool realizing one MPR core matrix.

    The contract, pinned by ``tests/test_executor_equivalence.py`` for
    both worker kinds, has two halves: *serial equivalence* —
    ``run(tasks)`` returns exactly the answers of a single-threaded
    execution in arrival order (Section III), each as an ``OK``
    :class:`~repro.mpr.results.QueryResult` — and *one lifecycle*,
    below.

    Parameters
    ----------
    solution:
        Prototype solution; each worker gets ``solution.spawn(cell)``.
    config:
        The ``(x, y, z)`` arrangement to realize.
    objects:
        Initial object placements (partitioned round-robin by column).
    batch_size:
        Queries per transport message — one kernel sweep's worth;
        updates ride along (:class:`~repro.mpr.core_matrix.RouteBatcher`).
        1 is per-query dispatch; mprbench's ``mean_batch_size`` /
        ``messages_per_op`` / ``graph.kernels.calls_per_query`` show the
        trade-off on the live workloads.
    start_method:
        The worker kind — a ``multiprocessing`` start method, or
        ``"thread"`` (what ``build_executor(mode="thread")`` passes);
        :func:`repro.mpr.transport.make_transport` resolves it (see
        :class:`~repro.mpr.transport.ProcessTransport` for when the road
        network goes to shared memory).  A ready
        :class:`~repro.mpr.transport.Transport` instance in
        ``start_method``'s place is used as is: how the tests run the
        whole protocol on a fake.
    health_check_interval:
        How long one transport wait may block before the supervisor
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
        batch, queries past their deadline (task > config) are hedged
        to a sibling replica row, a query that would land on a backlog
        at ``max_outstanding`` is answered ``OVERLOADED``, the stall
        watchdog SIGKILLs silent workers, and a column with no live
        replica yields a degraded ``PARTIAL`` answer.
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
        batch_size: int = QUERIES_PER_SWEEP,
        start_method: str | Transport = "fork",
        health_check_interval: float = 0.05,
        max_respawns: int = 3,
        telemetry: Telemetry | None = None,
        resilience: ResilienceConfig | None = None,
        check_invariants: bool = False,
    ) -> None:
        if health_check_interval <= 0:
            raise ValueError("health_check_interval must be positive")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        self._solution = solution
        network = _network_of(solution)
        #: Valid locations are ``range(_num_nodes)`` (None: unknown, so
        #: only a negative location is refused).
        self._num_nodes = None if network is None else network.num_nodes
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Owned, never shared: the admission ledger and breaker map
        #: inside are fed on every path, whatever the setting.
        self._resilience = ResiliencePolicy(resilience)
        #: Carries every w-core of every fleet, and is the pool's clock.
        self._transport = (
            make_transport(start_method)
            if isinstance(start_method, str) else start_method
        )
        self._now = self._transport.now
        self._check_invariants = check_invariants
        self._health_check_interval = health_check_interval
        #: When a step() next checks worker health.
        self._health_due = 0.0
        self._max_respawns = max_respawns
        self.metrics = PoolMetrics()
        #: Submit-time object ledger: the authoritative ``object ->
        #: node`` map in FCFS submit order.  Per-worker acked cells lag
        #: behind dispatch, and per-worker seqs are not globally
        #: ordered, so this — not a merge of the cells — is the exact
        #: snapshot a reconfiguration hands to the new shape.
        self._objects: dict[int, int] = dict(objects)
        #: The fleets — ``current`` serves; ``warming`` and ``retiring``
        #: exist while a shape change is in flight — and the machine
        #: that rotates them.
        self._shapes = _Reconfigurer(
            self._transport,
            _Fleet(
                config, objects, batch_size, _SERVING,
                telemetry=self._telemetry,
                admission=self._resilience.admission,
            ),
            self._objects,
            spawn=self._spawn, send=self._send, respawn=self._respawn,
            flush=self.flush, reap_stalled=self._reap_stalled,
            resilience=self._resilience, metrics=self.metrics,
            telemetry=self._telemetry,
        )
        #: Audit log of every reconfiguration attempt (completed,
        #: rolled back, and rejected alike), oldest first.
        self.reconfig_history: list[ReconfigEvent] = self._shapes.history
        self._ledger = _QueryLedger(
            self._shapes, self._resilience, self.metrics, self._telemetry,
            self._now, self._send_batches,
        )
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def config(self) -> MPRConfig:
        """The realized core-matrix arrangement."""
        return self._shapes.current.config

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry handle (``NULL_TELEMETRY`` when disabled)."""
        return self._telemetry

    @property
    def generation(self) -> int:
        """Shape generation: 0 at start, +1 per completed cutover."""
        return self._shapes.current.generation

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    @property
    def num_nodes(self) -> int | None:
        """Nodes of the served road network — a valid location is in
        ``range(num_nodes)`` — or None if the solution hides its network."""
        return self._num_nodes

    def start(self) -> "ProcessPoolService":
        """Bring every worker up (no-op if already running)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if not self._started:
            for state in self._shapes.current.workers.values():
                self._spawn(state)
            self._started = True
        return self

    def __enter__(self) -> "ProcessPoolService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop messages, bounded wait, then force.

        Workers that act on the stop within ``timeout`` seconds exit
        cleanly; the transport's ``close`` waits for them, escalates
        stragglers (join → SIGTERM → SIGKILL for processes) and releases
        every descriptor and the shared-memory segment in a ``finally``,
        so neither is leaked whatever state the workers are in.  Safe to
        call twice and safe to call without ``start()``.
        """
        if self._closed:
            return
        self._closed = True
        transport = self._transport
        try:
            # A half-built shape dies with the pool; this is not a
            # transition *failure*, so the reconfig breaker is not fed.
            self._shapes.rollback("pool closed mid-transition",
                                  feed_breaker=False)
            for state in self._shapes.owing():
                if state.alive(transport) and not state.stop_sent:
                    transport.send(state.handle, _STOP)
        finally:
            transport.close(timeout)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Route one task; full sweeps are dispatched immediately.

        Submission is admission-controlled: a query routed at a worker
        whose backlog is at the policy's bound is *shed* — the next
        :meth:`drain` answers it ``OVERLOADED`` instead of it joining
        the queue (no bound, the default, never sheds) — and an
        admitted query arms the deadline the policy resolves for it
        (none by default).  A query or insert whose location is not a
        node of the served network, or a query whose deadline is not a
        finite positive number of seconds, raises :class:`ValueError`
        before it is routed, so no worker and no deadline heap ever
        sees it.
        """
        self._dispatch((task,), False)

    def _dispatch(self, tasks, cycle, refused=None) -> None:
        """The one submit path — :meth:`submit`, :meth:`run`, the pump's
        ``cycle`` (planned, then flushed): check every task, route them
        and put every batch on the wire, and only then, while the
        workers compute, account for them (:meth:`_account`).  A routing
        error accounts the prefix routed, then raises — or, given
        ``refused`` (the pump's), a task failing its check or route is
        entered there by position and skipped.  While a shape change is
        in flight it may cut over between two tasks: each goes alone."""
        queries = 0
        for index, task in enumerate(tasks):
            try:
                self._check(task)
            except ValueError as exc:
                if refused is None:
                    raise
                refused[index] = exc
            else:
                queries += task.kind is TaskKind.QUERY
        self.start()
        shapes = self._shapes
        if cycle:
            shapes.current.router.plan(queries, self.batch_size)
        if shapes.warming is None and shapes.retiring is None:
            self._send_then_account(tasks, cycle, refused)
            return
        for index, task in enumerate(tasks):
            if refused and index in refused:
                continue
            shapes.advance(self._now())
            try:
                self._send_then_account((task,), False, None)
            except Exception as exc:
                if refused is None:
                    raise
                refused[index] = exc
        if cycle:
            self.flush()

    def _send_then_account(self, tasks, cycle, refused) -> None:
        """:meth:`_dispatch`'s two passes over the serving shape.  A
        batch whose worker is found dead waits in ``held`` until the
        second ends: handling the death may read the worker's acks."""
        now, started = self._now(), perf_counter()
        batcher = self._shapes.current.batcher
        offer, send_batches = batcher.offer, self._send_batches
        #: Per task: its route, its shed verdict (the backlog), or None.
        routes: list = []
        held: list[WorkerBatch] = []
        ready = None
        try:
            for index, task in enumerate(tasks):
                if refused and index in refused:
                    route = ready = backlog = None
                else:
                    try:
                        route, ready, backlog = offer(task)
                    except KeyError as exc:  # a live insert, an unknown delete
                        if refused is None:
                            raise
                        refused[index] = exc
                        route = ready = backlog = None
                routes.append(route if backlog is None else backlog)
                if ready:
                    send_batches(ready, held)
            if cycle:
                send_batches(batcher.flush(), held)
        finally:
            self.metrics.dispatch.add(perf_counter() - started, 0)
            self._account(tasks, routes, now)
        if held:
            send_batches(held)
        if not cycle:  # a lone submit is a cycle of its own
            self._shapes.current.router.fold()
            if ready:  # drain acks so the result channels stay short
                self._collect_ready()

    def _account(self, tasks: Sequence[Task], routes: list, now: float) -> None:
        """Book the routed tasks (deadlines armed from ``now``, the
        pass's start) — traced, with one ``dispatch`` record whose
        samples are each op's share of the parent's time."""
        ledger, metrics, telemetry = self._ledger, self.metrics, self._telemetry
        traced: list | None = [] if telemetry.enabled else None
        queries = updates = 0
        for task, route in zip(tasks, routes):
            if route is None:
                continue
            if task.kind is TaskKind.QUERY:
                queries += 1
                if route.__class__ is int:
                    ledger.refuse(task.query_id, route)
                    continue
                ledger.admit(task, route, now)
                if traced is not None:
                    traced.append((task.query_id, route.workers))
            else:
                updates += 1
                self._record_update(task)
        routed = queries + updates
        metrics.tasks_submitted += routed
        metrics.queries_submitted += queries
        metrics.updates_submitted += updates
        if traced is not None and routed:
            telemetry.begin_traces(traced)
            share = (self._now() - now) / routed
            telemetry.record_shared(
                "dispatch", share, [query_id for query_id, _ in traced],
                start=now, step=share, count=routed,
            )

    def _check(self, task: Task) -> None:
        kind = task.kind
        if kind is TaskKind.DELETE:
            return
        if kind is TaskKind.QUERY and task.deadline is not None:
            deadline = task.deadline
            if not (math.isfinite(deadline) and deadline > 0):
                raise ValueError(
                    f"query deadline {deadline!r} is not a finite positive "
                    "number of seconds"
                )
        location, nodes = task.location, self._num_nodes
        if location < 0 or (nodes is not None and location >= nodes):
            raise ValueError(
                f"{task.kind.value} location {location} is not a node of "
                f"the served network (0 <= location < {nodes})"
            )

    def _record_update(self, task: Task) -> None:
        """Advance the submit-time object ledger; dual-feed a warming
        shape.  Runs *after* the serving router validated the update,
        so the transition feed can never see an invalid op."""
        if task.kind is TaskKind.INSERT:
            self._objects[task.object_id] = task.location
        else:
            self._objects.pop(task.object_id, None)
        if self._shapes.warming is not None:
            self._shapes.feed(task)

    def flush(self) -> None:
        """Dispatch every partial batch (latency over amortization)."""
        if not self._started or self._closed:
            return
        started = perf_counter()
        self._send_batches(self._shapes.current.batcher.flush())
        self.metrics.dispatch.add(perf_counter() - started, 0)

    @property
    def batch_size(self) -> int:
        return self._shapes.current.batcher.batch_size

    def _send_batches(self, batches, held=None) -> None:
        """Log and send each batch, handling a dead target's death
        first — or, given ``held``, holding its batch back there."""
        workers, transport = self._shapes.current.workers, self._transport
        send = self._send
        messages = ops = 0
        for worker_id, batch in batches:
            state = workers[worker_id]
            if not state.alive(transport):
                if held is not None:
                    held.append((worker_id, batch))
                    continue
                self._on_death(state, self._now())
            send(state, batch)
            messages += 1
            ops += len(batch)
        metrics = self.metrics
        metrics.dispatch.events += messages
        metrics.batches_sent += messages
        metrics.messages_sent += messages
        metrics.ops_dispatched += ops

    def _send(self, state: _WorkerState, ops: tuple) -> None:
        """Log ``ops`` as ``state``'s next batch and put it on the wire."""
        seq = state.next_seq
        state.next_seq += 1
        state.unacked[seq] = ops
        state.sent_at[seq] = self._now()
        self._transport.send(state.handle, ("batch", seq, ops))

    # ------------------------------------------------------------------
    # Collection and supervision
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> dict[int, QueryResult]:
        """Flush, wait until the pool quiesces, return finished answers.

        Returns one :class:`~repro.mpr.results.QueryResult` for every
        query submitted since the previous drain (less those a
        :meth:`step` already returned): ``OK`` with the aggregated
        top-k, ``PARTIAL`` with the surviving columns' top-k and the
        missing cells, or ``OVERLOADED`` for a shed one.  ``timeout``
        bounds the total wait (``None`` = wait as long as workers keep
        making progress); on expiry the raised :class:`TimeoutError`
        lists every outstanding ``(worker_id, seq)`` batch so the caller
        can see exactly which cells never acknowledged.

        Flush; then, until the pool is quiescent — every batch
        acknowledged (or quarantined) *and* every admitted query
        resolved, answered on all its columns or explicitly degraded —
        wait on the transport, handle what came, and settle as
        :meth:`step` does.  Worker death during the wait goes to
        the policy (respawn + replay, or breaker + quarantine); queries
        past an armed deadline are hedged to a sibling replica row.
        Once nothing is in flight, any still-unresolved query is
        force-resolved: hedged to an untried replica row when one
        exists, degraded (``PARTIAL``) otherwise — the loop can
        therefore never hang on a dead column.
        """
        self.flush()
        wall = None if timeout is None else self._now() + timeout
        while True:
            self._supervise()
            if self._quiesce():
                return self._ledger.finish()
            if wall is not None and self._now() >= wall:
                raise self.timeout_error(timeout)
            if not self._pump(self.step_within()):
                self._check_health(self._now())

    def step(self) -> dict[int, QueryResult]:
        """One non-blocking step of :meth:`drain`, for a caller that
        waits on :meth:`fileno` itself.

        Advances an in-flight shape change, enforces armed deadlines,
        handles every message already waiting, checks worker health
        once per health-check interval (a caller's timer step, as a
        drain's idle wait does) and force-resolves when nothing is in
        flight.  Returns the queries resolved so far, removed from the
        pool's ledger: each query answered on every column, and every
        shed one; once the pool is :attr:`quiescent`, every query still
        owed.  Never waits, and never raises a timeout — bounding the
        wait is the caller's (:meth:`step_within`,
        :meth:`timeout_error`).
        """
        self._supervise()
        self._collect_ready()
        now = self._now()
        if now >= self._health_due:
            self._health_due = now + self._health_check_interval
            self._check_health(now)
        if self._quiesce():
            return self._ledger.finish()
        return self._ledger.finish(answered_only=True)

    def _supervise(self) -> None:
        """Advance an in-flight shape change; enforce armed deadlines."""
        shapes = self._shapes
        now = self._now()
        if shapes.warming is not None or shapes.retiring is not None:
            shapes.advance(now)
        self._ledger.enforce_deadlines(now)

    def _quiesce(self) -> bool:
        """Force-resolve while nothing is in flight; say whether the
        pool is quiescent (the shape machine advanced once more then)."""
        shapes, ledger = self._shapes, self._ledger
        while not self._outstanding():
            if not ledger.unresolved():
                if shapes.warming is not None or shapes.retiring is not None:
                    shapes.advance(self._now())
                return True
            ledger.force_resolve(self._now())
        return False

    @property
    def quiescent(self) -> bool:
        """Nothing in flight and no answer owed: where :meth:`drain`
        returns (and a :meth:`step` returned every answer)."""
        ledger = self._ledger
        return (
            not ledger.queries and not ledger.shed
            and not self._outstanding()
        )

    def step_within(self) -> float:
        """Seconds a caller may wait on :meth:`fileno` before the pool
        needs a :meth:`step` anyway: the health-check interval, or the
        nearest armed deadline when that comes first."""
        wait_for = self._health_check_interval
        deadlines = self._ledger.deadlines
        if deadlines:
            wait_for = min(
                wait_for, max(deadlines[0][0] - self._now(), 0.001)
            )
        return wait_for

    def timeout_error(self, timeout: float) -> QuiesceTimeout:
        """The diagnostic of a wait that gave up after ``timeout``
        seconds: every outstanding ``(worker_id, seq)`` batch and every
        query they (or an unresolved deadline) strand."""
        return QuiesceTimeout.naming(
            timeout, self._shapes.owing(), self._ledger.unresolved()
        )

    def fileno(self) -> int:
        """The wait set's descriptor (:meth:`repro.mpr.transport.
        Transport.fileno`): readable whenever :meth:`step` has a message
        to handle."""
        return self._transport.fileno()

    def run(self, tasks: Sequence[Task]) -> dict[int, QueryResult]:
        """Execute a task stream as one planned cycle: a layer whose
        share fits in fewer sweeps than it has replica rows uses only
        that many rows (:meth:`repro.mpr.core_matrix.MPRRouter.plan`);
        return ``query_id -> QueryResult`` (as :meth:`drain`).  Workers
        stay alive for the next one.  A bad location anywhere in
        ``tasks`` — or a bad deadline — raises before any of them is
        submitted; a routing error (an insert of a live object, a
        delete of an unknown one) raises once the tasks before it are
        sent and accounted, and the next :meth:`drain` answers those."""
        self._dispatch(tasks, True)
        answers = self.drain()
        if self._check_invariants:
            check_matrix_invariants(self.worker_contents(), self.config)
        return answers

    def worker_contents(self) -> dict[WorkerId, dict[int, int]]:
        """Object placements per serving worker: the acknowledged cells
        (each worker's exact state once a drain has returned)."""
        return {
            worker_id: dict(state.cell)
            for worker_id, state in self._shapes.current.workers.items()
        }

    def worker_pids(self) -> dict[WorkerId, int]:
        """Live worker process ids (fault-injection hooks; thread
        workers have none)."""
        return self._pids(self._shapes.current)

    def transition_pids(self) -> dict[WorkerId, int]:
        """Warming-worker pids of the in-flight transition (fault-injection
        hooks; thread workers have none)."""
        warming = self._shapes.warming
        return self._pids(warming) if warming is not None else {}

    def _pids(self, fleet: _Fleet) -> dict[WorkerId, int]:
        pid = self._transport.pid
        return {
            worker_id: pid(state.handle)
            for worker_id, state in fleet.workers.items()
            if state.handle is not None and pid(state.handle) is not None
        }

    def _outstanding(self) -> int:
        return sum(len(state.unacked) for state in self._shapes.owing())

    def _pump(self, timeout: float) -> bool:
        """One pump step: wait up to ``timeout`` seconds on the
        transport, then handle one message from each w-core that had
        one ready (the transport flushes clogged inboxes meanwhile).

        The only place the data plane blocks; a blocking step counts as
        the ``wait`` stage, a poll (``timeout=0``) does not.  Returns
        whether any message was handled — a step that handled nothing
        is the supervisor's cue to check worker health.  (With every
        worker dead the wait set is empty and the step waits out the
        interval.)  ``handle.owner`` is the dispatch key: after a
        cutover the retiring fleet shares worker ids with the current
        one, so messages route by channel identity, never by id.
        """
        blocking = timeout > 0
        started = perf_counter() if blocking else 0.0
        ready = self._transport.poll(timeout)
        if blocking:
            self.metrics.wait.add(perf_counter() - started, events=0)
        handled = False
        for handle, message in ready:
            state = handle.owner
            if message is EOF:
                # The w-core is gone; a respawn replaces the handle.  A
                # warming worker's EOF marks its shape change faulted —
                # processed (as a rollback) by the next ``advance``.
                fleet = state.fleet
                if fleet.role is _WARMING and fleet.fault is None:
                    fleet.fault = f"worker {state.worker_id} died while warming"
            else:
                handled = True
                self._handle(message, state)
        return handled

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
        fleet = state.fleet
        if kind == "done":
            seq, partials = message[2], message[3]
            if fleet.role is _WARMING:
                # Probe or catch-up ack: no queries, no stamps recorded
                # (dual-fed updates must not double-count histograms).
                state.acknowledge(seq)
                return
            self._handle_done(
                state, seq, partials, message[4] if len(message) == 5 else None
            )
        elif kind == "error":
            _, worker_id, seq, detail = message
            if fleet.role is _WARMING:
                if fleet.fault is None:
                    fleet.fault = (
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
        """An ack: the ledger takes the partials, the worker's log and
        cell advance, and the fault ledgers are released."""
        worker_id = state.worker_id
        stamping = stamps is not None and self._telemetry.enabled
        duplicates = self._ledger.accept(worker_id, partials, stamping)
        if stamping:
            record_batch_stamps(
                self._telemetry, worker_id, state.sent_at.get(seq), stamps,
                skip=duplicates,
            )
        ops = state.unacked.get(seq)
        if state.acknowledge(seq) and state.fleet.role is _SERVING:
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
            if state.fleet.role is _SERVING:
                # As in _handle_done: after a cutover the ledger's keys
                # belong to the new shape's same-id workers.
                self._resilience.admission.acked(state.worker_id, len(ops))
            self.metrics.batches_quarantined += 1
            self._telemetry.count("resilience.quarantined")
        state.down = True  # exit is expected: skip the breaker
        self._respawn(state)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _check_health(self, now: float) -> None:
        """Liveness sweep: stalls, deaths, and half-open breaker trials.

        Visits workers with *no* unacked work too — a quarantined
        (breaker-open) worker holds its batches outside ``unacked``,
        and its half-open retry can only fire from here.
        """
        for state in self._shapes.current.workers.values():
            if state.alive(self._transport):
                if self._reap_stalled(state, now):
                    self._on_death(state, now)
            elif state.unacked or state.quarantined:
                self._on_death(state, now)

    def _reap_stalled(self, state: _WorkerState, now: float) -> bool:
        """Kill ``state``'s w-core if it is live but silent past the
        policy's watchdog (SIGSTOPped or wedged in a syscall), turning a
        stall into the well-understood crash/replay path; say whether
        it did.  Never, when the policy has no watchdog — or the
        transport's w-cores cannot be killed (threads)."""
        stall_timeout = self._resilience.config.stall_timeout
        transport = self._transport
        if (
            stall_timeout is None
            or not transport.killable
            or not state.sent_at
            or now - min(state.sent_at.values()) <= stall_timeout
        ):
            return False
        transport.kill(state.handle)
        transport.join(state.handle, 1.0)
        self.metrics.stall_kills += 1
        self._telemetry.count("resilience.stall_kills")
        return True

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
    # Live reconfiguration (the mechanism is repro.mpr.reconfig's)
    # ------------------------------------------------------------------
    def begin_reconfigure(
        self,
        new_config: MPRConfig,
        *,
        trigger: str = DEFAULT_TRIGGER,
        warm_timeout: float = DEFAULT_WARM_TIMEOUT,
        retire_timeout: float = DEFAULT_RETIRE_TIMEOUT,
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
        loop): once every probe is acked the fleets rotate atomically;
        any warming fault or the ``warm_timeout`` expiring rolls back
        to the old shape instead.

        Raises :class:`~repro.mpr.reconfig.ReconfigRejected` (recording a rejected event)
        when the target equals the current shape, a transition is
        already in flight, the previous shape still owes pre-cutover
        answers (a drained one is stopped and reaped here first), or
        the reconfiguration circuit breaker is open.
        """
        self.start()
        return self._shapes.begin(
            new_config, trigger, warm_timeout, retire_timeout
        )

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
        """Transition to ``new_config`` and wait for the outcome.

        Blocks until the transition completes (cutover done) or rolls
        back; with ``wait_retire`` also until the old shape has fully
        retired.  In-flight and newly arriving acks from the serving
        shape keep being collected while waiting, so calling this with
        queries outstanding is safe.  Returns the terminal
        :class:`ReconfigEvent`; raises ``ReconfigRejected`` as
        :meth:`begin_reconfigure` does, or ``TimeoutError`` if the
        transition does not settle within ``timeout`` seconds.
        """
        event = self.begin_reconfigure(
            new_config, trigger=trigger,
            warm_timeout=warm_timeout, retire_timeout=retire_timeout,
        )
        shapes = self._shapes
        deadline = self._now() + timeout
        while True:
            now = self._now()
            shapes.advance(now)
            if event.outcome != "pending" and not (
                wait_retire and shapes.retiring is not None
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

    # ------------------------------------------------------------------
    # Spawn, respawn, replay
    # ------------------------------------------------------------------
    def _spawn(self, state: _WorkerState) -> None:
        """Start a w-core on ``state``'s replica cell."""
        handle = state.handle = self._transport.start(
            self._solution.spawn(dict(state.cell)), state.worker_id,
            self._telemetry.enabled,
        )
        handle.owner = state

    def _respawn(self, state: _WorkerState) -> None:
        """Rebuild a dead worker from its replica cell; replay its log.

        A death can race with its last ack (the ack may be sitting in
        its result channel), so its residue is consumed first — replays
        of batches whose ack did survive are then skipped or, if
        already re-sent, deduplicated downstream.  Only *its* channel
        is read: this runs inside a pump step when a worker reports
        poison, and that step still holds siblings it found ready — a
        message consumed from under it would leave it waiting on an
        empty channel.  Batches quarantined while the breaker was open
        rejoin the log (and the admission ledger) before the replay,
        which re-sends the whole unacknowledged log in seq order and
        restamps ``sent_at`` — so a stitched trace reflects the run
        that produced the surviving ack, and the stall watchdog times
        the new w-core, not the dead one.
        """
        transport, handle = self._transport, state.handle
        if handle is not None:
            # A cleanly-exited worker (poison task) flushes its error
            # report on exit; joining first makes it visible below, so
            # poison reaches the error fault point instead of a replay
            # loop.
            transport.join(handle, 1.0)
            for message in transport.residue(handle):
                if message is not EOF:
                    self._handle(message, state)
            if state.handle is not handle:
                return  # that error report was in the residue: respawned
            transport.retire(handle)  # residual acks were drained above
        if state.quarantined:
            admission = self._resilience.admission
            for seq, ops in state.quarantined.items():
                state.unacked[seq] = ops
                admission.dispatched((state.worker_id,), len(ops))
            state.quarantined.clear()
        if state.fleet.role is _RETIRING and not state.unacked:
            return  # the racing acks just drained it: nothing to replay
        state.respawns += 1
        self.metrics.respawns += 1
        self.metrics.batches_replayed += len(state.unacked)
        self.metrics.messages_sent += len(state.unacked)
        self._telemetry.count("pool.respawns")
        self._spawn(state)
        state.down = False
        for seq in sorted(state.unacked):
            state.sent_at[seq] = self._now()
            transport.send(state.handle, ("batch", seq, state.unacked[seq]))
