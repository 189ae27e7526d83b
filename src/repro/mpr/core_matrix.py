"""Core-matrix routing: the pure scheduling logic of Algorithms 1–3.

This module contains no threads and no timing — only the deterministic
decisions the s-cores and d-core make: which row serves a query, which
column holds an object, which w-queues receive which task.  Both the
live worker pool (:mod:`repro.mpr.process_executor`) and the discrete-
event simulator (:mod:`repro.sim.system`) drive this logic, so their
behaviours coincide by construction.

Coordinates: a worker is addressed ``(layer, row, column)`` with
``0 <= layer < z``, ``0 <= row < y``, ``0 <= column < x``.

Replica rows are interchangeable, so a caller that holds a whole cycle
before routing it may *plan* it (:meth:`MPRRouter.plan`): a layer whose
share of the cycle is ``q_l`` queries spreads them round-robin over only
``rows_l = min(y, ceil(q_l / batch_size))`` consecutive rows from its
current row — a cycle fills a kernel sweep before it spreads over rows —
and the flush that closes the cycle (:meth:`RouteBatcher.flush`)
advances the current row by ``rows_l``.  A layer with ``rows_l = y`` and
a caller that never plans get Algorithm 1's per-query round robin
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..objects.tasks import DeleteTask, InsertTask, QueryTask, Task, TaskKind
from ..obs import NULL_TELEMETRY, Telemetry
from .config import MPRConfig

WorkerId = tuple[int, int, int]  # (layer, row, column)


@dataclass(frozen=True)
class QueryRoute:
    """Outcome of scheduling a query: one row of one layer."""

    layer: int
    row: int
    workers: tuple[WorkerId, ...]


@dataclass(frozen=True)
class UpdateRoute:
    """Outcome of scheduling an update: one column of every layer."""

    columns: tuple[int, ...]  # column per layer
    workers: tuple[WorkerId, ...]


class LayerScheduler:
    """One s-core's state (Algorithm 1): round-robin counters + object hash."""

    def __init__(self, config: MPRConfig, layer: int) -> None:
        self._config = config
        self._layer = layer
        self._next_row = 0
        self._next_column = 0
        self._column_of: dict[int, int] = {}
        #: Rows the open planned cycle spreads its queries over, or
        #: None: per-query round robin (Algorithm 1).
        self._span: int | None = None
        #: Queries the open planned cycle has routed so far.
        self._routed = 0

    def plan(self, rows: int) -> None:
        """Open a cycle over ``rows`` rows from the current one (a
        plan of ``y`` or more rows, or of none, is no plan)."""
        self.end_cycle()
        if 0 < rows < self._config.y:
            self._span = rows
            self._routed = 0

    def end_cycle(self) -> None:
        """Close the open planned cycle: the next starts past its rows."""
        if self._span is not None:
            self._next_row = (self._next_row + self._span) % self._config.y
            self._span = None

    def route_query(self, task: QueryTask) -> QueryRoute:
        y = self._config.y
        if self._span is None:
            row = self._next_row
            self._next_row = (row + 1) % y
        else:
            row = (self._next_row + self._routed % self._span) % y
            self._routed += 1
        workers = tuple(
            (self._layer, row, column) for column in range(self._config.x)
        )
        return QueryRoute(self._layer, row, workers)

    def route_insert(self, task: InsertTask) -> int:
        if task.object_id in self._column_of:
            raise KeyError(
                f"insert of live object {task.object_id} at layer {self._layer}"
            )
        column = self._next_column
        self._next_column = (self._next_column + 1) % self._config.x
        self._column_of[task.object_id] = column
        return column

    def route_delete(self, task: DeleteTask) -> int:
        try:
            return self._column_of.pop(task.object_id)
        except KeyError:
            raise KeyError(
                f"delete of unknown object {task.object_id} at layer {self._layer}"
            ) from None

    def preload(self, column_of: Mapping[int, int]) -> None:
        """Install the hash-table entries for pre-placed objects."""
        for object_id, column in column_of.items():
            if not 0 <= column < self._config.x:
                raise ValueError(f"column {column} out of range")
            self._column_of[object_id] = column

    def column_workers(self, column: int) -> tuple[WorkerId, ...]:
        return tuple(
            (self._layer, row, column) for row in range(self._config.y)
        )


class MPRRouter:
    """The d-core plus all layer s-cores as one deterministic router.

    ``route(task)`` returns either a :class:`QueryRoute` (queries go to
    one layer, chosen round-robin by the d-core, then to one row) or an
    :class:`UpdateRoute` (updates go to every layer; each layer's s-core
    picks/looks up the column independently).
    """

    def __init__(
        self, config: MPRConfig, *, telemetry: Telemetry | None = None
    ) -> None:
        self._config = config
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._schedulers = [LayerScheduler(config, layer) for layer in range(config.z)]
        self._next_layer = 0

    @property
    def config(self) -> MPRConfig:
        return self._config

    def adopt_telemetry(self, telemetry: Telemetry) -> None:
        """Swap the telemetry handle this router counts into.

        A reconfiguration warms its replacement router against
        ``NULL_TELEMETRY`` (dual-fed updates must not double-count
        ``router.updates``); at cutover the new router inherits the live
        handle in the same supervisor step that swaps it in.
        """
        self._telemetry = telemetry

    def preload_objects(
        self,
        objects: Mapping[int, int],
        column_of: Mapping[int, int] | None = None,
    ) -> dict[WorkerId, dict[int, int]]:
        """Partition pre-placed objects over columns.

        Returns the initial contents per worker: ``worker -> {object:
        node}``.  All layers use the same initial column assignment (a
        fresh system would reach the same state by replaying the inserts
        through each layer's scheduler).

        ``column_of`` overrides the default round-robin placement with
        a custom strategy (see :mod:`repro.mpr.balancing`); it must
        cover every object.
        """
        if column_of is None:
            column_of = {
                object_id: position % self._config.x
                for position, object_id in enumerate(sorted(objects))
            }
        else:
            missing = set(objects) - set(column_of)
            if missing:
                raise ValueError(
                    f"column_of misses objects {sorted(missing)[:5]}"
                )
            column_of = dict(column_of)
        for scheduler in self._schedulers:
            scheduler.preload(column_of)
        contents: dict[WorkerId, dict[int, int]] = {
            worker: {} for worker in self.all_workers()
        }
        for object_id, node in objects.items():
            column = column_of[object_id]
            for layer in range(self._config.z):
                for row in range(self._config.y):
                    contents[(layer, row, column)][object_id] = node
        return contents

    def route(self, task: Task) -> QueryRoute | UpdateRoute:
        if task.kind is TaskKind.QUERY:
            layer = self._next_layer
            self._next_layer = (self._next_layer + 1) % self._config.z
            if self._telemetry.enabled:
                self._telemetry.count("router.queries")
                self._telemetry.count(f"router.queries.layer{layer}")
            return self._schedulers[layer].route_query(task)
        columns = []
        workers: list[WorkerId] = []
        for layer, scheduler in enumerate(self._schedulers):
            if task.kind is TaskKind.INSERT:
                column = scheduler.route_insert(task)
            else:
                column = scheduler.route_delete(task)
            columns.append(column)
            workers.extend(scheduler.column_workers(column))
        if self._telemetry.enabled:
            self._telemetry.count("router.updates")
        return UpdateRoute(tuple(columns), tuple(workers))

    def plan(self, queries: int, batch_size: int) -> None:
        """Plan a cycle of ``queries`` queries (see the module docstring).

        The d-core's round robin decides each layer's share ``q_l``;
        the layer's s-core then uses ``ceil(q_l / batch_size)`` rows,
        at most ``y``.
        """
        z = self._config.z
        narrowed = 0
        for offset in range(z):
            share = (queries - offset + z - 1) // z  # i < queries, i ≡ offset
            rows = -(-share // batch_size)
            self._schedulers[(self._next_layer + offset) % z].plan(rows)
            narrowed += 0 < rows < self._config.y
        if self._telemetry.enabled:
            self._telemetry.count("router.planned_layers", z)
            self._telemetry.count("router.narrowed_layers", narrowed)

    def end_cycle(self) -> None:
        """Close the planned cycle on every layer (no-op unplanned)."""
        for scheduler in self._schedulers:
            scheduler.end_cycle()

    def all_workers(self) -> list[WorkerId]:
        return [
            (layer, row, column)
            for layer in range(self._config.z)
            for row in range(self._config.y)
            for column in range(self._config.x)
        ]


#: Wire encoding of one task for a worker queue.  Kept as plain tuples
#: so a batch pickles as one small flat structure:
#: ``("query", query_id, location, k)`` | ``("insert", object_id,
#: location)`` | ``("delete", object_id)``.
WorkerOp = tuple

#: A batch addressed to one worker: ``(worker_id, (op, op, ...))``.
WorkerBatch = tuple[WorkerId, tuple[WorkerOp, ...]]


def encode_op(task: Task) -> WorkerOp:
    """Flatten a task into its worker-queue wire form."""
    if task.kind is TaskKind.QUERY:
        return ("query", task.query_id, task.location, task.k)
    if task.kind is TaskKind.INSERT:
        return ("insert", task.object_id, task.location)
    return ("delete", task.object_id)


#: Updates ride along with a worker's queries free, up to this many ops
#: per query slot — the cap that bounds a message's bytes.
MAX_OPS_PER_QUERY_SLOT = 16


class RouteBatcher:
    """Group routed tasks into per-worker batches (pure logic, no queues).

    A worker executes one message as one ``run_ops`` call whose queries
    share one kernel sweep, and that sweep — not the message's pickle
    and pipe transit — is the dominant cost, strongly sub-additive in
    queries per sweep.  So a worker's consecutive ops are released when
    they hold ``batch_size`` *queries* (one sweep's worth) or at
    :meth:`flush`; updates ride along, up to ``MAX_OPS_PER_QUERY_SLOT *
    batch_size`` ops per message.  A cycle whose per-worker share is at
    most one sweep is thus one message, one sweep and one ack per
    worker, and a query-dense stream still releases sweep by sweep.
    Per-worker FCFS order, which the serial-equivalence argument rests
    on, is preserved (updates keep their arrival position; batches are
    released in order).  ``batch_size=1`` is per-query dispatch.

    Each *maximal run of consecutive queries* in a released batch is
    sorted by ``(location, query_id)``.  Queries never mutate worker
    state, so reordering a query run is equivalence-preserving —
    answers are keyed by query id and re-associated by the parent —
    while nearby sources land adjacent, which is exactly the grouping
    the batched kNN kernel
    (:meth:`repro.graph.kernels.CSRKernels.knn_batch`) exploits:
    duplicate and near sources share one delta-stepping sweep.
    Updates are barriers for the reorder; their relative order, and
    their order relative to the queries around them, never changes.
    """

    def __init__(
        self,
        router: MPRRouter,
        batch_size: int,
        *,
        telemetry: Telemetry | None = None,
        admission=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._router = router
        self._batch_size = batch_size
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Optional :class:`repro.mpr.resilience.AdmissionController`
        #: consulted by :meth:`offer`.
        self.admission = admission
        self._pending: dict[WorkerId, list[WorkerOp]] = {
            worker: [] for worker in router.all_workers()
        }
        #: Queries among each worker's pending ops; zeroed on release.
        self._queries: dict[WorkerId, int] = dict.fromkeys(self._pending, 0)

    @property
    def batch_size(self) -> int:
        return self._batch_size

    def adopt_telemetry(self, telemetry: Telemetry) -> None:
        """Swap the telemetry handle (see :meth:`MPRRouter.adopt_telemetry`)."""
        self._telemetry = telemetry

    @property
    def pending_ops(self) -> int:
        """Ops routed but not yet released in a batch."""
        return sum(len(ops) for ops in self._pending.values())

    def _release(self, worker_id: WorkerId) -> WorkerBatch:
        """Seal one batch, locality-sorting each consecutive query run."""
        pending = self._pending[worker_id]
        self._queries[worker_id] = 0
        if len(pending) > 1:
            index = 0
            total = len(pending)
            while index < total:
                if pending[index][0] != "query":
                    index += 1
                    continue
                end = index + 1
                while end < total and pending[end][0] == "query":
                    end += 1
                if end - index > 1:
                    # op = ("query", query_id, location, k): sort the
                    # run by (location, query_id) for kernel locality.
                    pending[index:end] = sorted(
                        pending[index:end], key=lambda op: (op[2], op[1])
                    )
                index = end
        batch = tuple(pending)
        pending.clear()
        return worker_id, batch

    def add(
        self, task: Task
    ) -> tuple[QueryRoute | UpdateRoute, list[WorkerBatch]]:
        """Route ``task``; return the route plus any now-full batches.

        :meth:`offer` without the verdict, for batchers that have no
        admission controller attached (nothing can be shed).
        """
        route, ready, _backlog = self.offer(task)
        return route, ready

    def offer(
        self, task: Task
    ) -> tuple[QueryRoute | UpdateRoute, list[WorkerBatch], int | None]:
        """Route ``task`` under admission control.

        Consults the attached admission controller, if any: a query
        whose route would land on a worker already at the
        outstanding-work bound is *shed* — nothing is buffered or
        dispatched, and the triggering backlog is returned as the third
        element (``None`` means admitted).  Updates are never shed:
        dropping one would silently fork a replica cell's state away
        from its row siblings.  Admitted ops are counted against every
        target worker; the executor releases them on acknowledgement.
        """
        route = self._router.route(task)
        admission = self.admission
        if admission is not None and task.kind is TaskKind.QUERY:
            backlog = admission.should_shed(route.workers)
            if backlog is not None:
                return route, [], backlog
        op = encode_op(task)
        ready: list[WorkerBatch] = []
        queries, batch_size = self._queries, self._batch_size
        cap = MAX_OPS_PER_QUERY_SLOT * batch_size
        is_query = task.kind is TaskKind.QUERY
        for worker_id in route.workers:
            pending = self._pending[worker_id]
            pending.append(op)
            if is_query:
                queries[worker_id] += 1
            if queries[worker_id] >= batch_size or len(pending) >= cap:
                ready.append(self._release(worker_id))
        if admission is not None:
            admission.dispatched(route.workers)
        if ready and self._telemetry.enabled:
            self._telemetry.count("batcher.full_batches", len(ready))
        return route, ready, None

    def flush(self) -> list[WorkerBatch]:
        """Release every partial batch (deterministic worker order) and
        close the planned cycle, if any."""
        self._router.end_cycle()
        ready: list[WorkerBatch] = []
        for worker_id in sorted(self._pending):
            if self._pending[worker_id]:
                ready.append(self._release(worker_id))
        if ready and self._telemetry.enabled:
            self._telemetry.count("batcher.partial_batches", len(ready))
        return ready


def check_matrix_invariants(
    contents: Mapping[WorkerId, Mapping[int, int]], config: MPRConfig
) -> None:
    """Verify the partition/replication invariants of Section IV-A.

    * within a (layer, row): the cells partition the union (disjoint);
    * within a (layer, column): every cell holds the same object set;
    * every (layer, row) union equals every other's (full replication
      across rows and layers).

    Raises ``AssertionError`` with a diagnostic on violation.  Used by
    tests and by the executor's debug mode.
    """
    reference: set[int] | None = None
    for layer in range(config.z):
        for row in range(config.y):
            union: set[int] = set()
            for column in range(config.x):
                cell = set(contents[(layer, row, column)])
                overlap = union & cell
                assert not overlap, (
                    f"row ({layer},{row}) cells overlap on objects {sorted(overlap)[:5]}"
                )
                union |= cell
            if reference is None:
                reference = union
            else:
                assert union == reference, (
                    f"row ({layer},{row}) union differs from reference: "
                    f"missing {sorted(reference - union)[:5]}, "
                    f"extra {sorted(union - reference)[:5]}"
                )
        for column in range(config.x):
            first = dict(contents[(layer, 0, column)])
            for row in range(1, config.y):
                cell = dict(contents[(layer, row, column)])
                assert cell == first, (
                    f"column ({layer},{column}) differs between rows 0 and {row}"
                )
