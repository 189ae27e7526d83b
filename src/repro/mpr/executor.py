"""What sits beside the executor: its timeout, its span stitcher, its
oracle.

:class:`QuiesceTimeout` is how a bounded ``drain`` reports what is
stuck; :func:`record_batch_stamps` stitches a worker batch's timing
report into spans; :func:`run_serial_reference` is the single-threaded
oracle every test compares against.  The executor itself is
:class:`repro.mpr.process_executor.ProcessPoolService` (over process or
thread workers), built by :func:`repro.mpr.api.build_executor`; its
docstring states the lifecycle and serial-equivalence contract.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from ..graph.kernels import KERNEL_CALLS
from ..knn.base import KNNSolution, Neighbor
from ..objects.tasks import Task, TaskKind
from ..obs import Telemetry
from .core_matrix import WorkerId


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
        #: Unacknowledged ``(worker_id, seq)`` batches at expiry.
        self.pending: tuple[tuple[WorkerId, int], ...] = tuple(pending)
        #: Every query implicated in those batches, plus queries still
        #: unresolved at expiry.
        self.query_ids: tuple[int, ...] = tuple(query_ids)

    @classmethod
    def naming(cls, timeout, states, unresolved) -> "QuiesceTimeout":
        """The diagnostic for a drain that timed out: name every
        unacked batch of the worker ledgers ``states`` and every query
        id those batches (or the ``unresolved`` ids) strand."""
        states = list(states)
        pending = sorted(
            (state.worker_id, seq) for state in states for seq in state.unacked
        )
        query_ids = {
            op[1]
            for state in states
            for ops in state.unacked.values()
            for op in ops
            if op[0] == "query"
        }
        affected = sorted(query_ids.union(unresolved))
        return cls(
            f"pool did not quiesce within {timeout} s; "
            f"{len(pending)} batches outstanding (worker, seq): {pending}; "
            f"affected query ids: {affected}",
            pending=pending,
            query_ids=affected,
        )


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
    increments into this process's counters (thread workers share them
    and report none).  Replayed batches restamp the same ``(stage,
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
