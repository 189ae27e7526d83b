"""Per-query distributed tracing and per-stage metrics.

The paper's optimizer picks ``(x, y, z)`` from a measured profile, but
an operator of the running system needs to see where one query's
latency actually goes: routing in the parent (``dispatch``), sitting in
a w-queue (``queue_wait``), executing ``A.Q`` on a worker
(``execute``), the a-core's merge (``merge``), and the result's trip
back to the parent (``ack``).  This module is that visibility layer:

* :class:`Span` — one timed stage, optionally attributed to a worker;
* :class:`QueryTrace` — the stitched span tree of one query across
  every worker that served it (workers stamp monotonic timings into
  their result pipes; the parent assembles them here);
* :class:`Telemetry` — the handle executors record into: a fixed-bucket
  log-scale :class:`~repro.obs.histogram.LogHistogram` per stage,
  named counters, and a bounded trace store.

Cross-process clocks: spans are stamped with ``time.monotonic()``,
which on the platforms the pool supports reads a system-wide clock
(``CLOCK_MONOTONIC``), so parent and worker timestamps are directly
comparable without calibration.

Cost when disabled: executors hold :data:`NULL_TELEMETRY` (or any
``Telemetry`` with ``enabled=False``) and guard every stamp with a
single ``if telemetry.enabled`` branch; no span objects, no locks, no
timestamps are taken on that path.  mprbench's
``bench.trace_overhead_ratio`` measures what enabling it costs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .histogram import LogHistogram

__all__ = [
    "NULL_TELEMETRY",
    "QueryTrace",
    "Span",
    "Telemetry",
    "TRACE_STAGES",
]

#: The canonical per-query pipeline stages, in causal order.
TRACE_STAGES = ("dispatch", "queue_wait", "execute", "merge", "ack")

#: Stages recorded per worker (a query fans out to ``x`` workers; each
#: contributes one of these).  ``dispatch`` and ``merge`` happen once
#: per query in the parent.
_PER_WORKER_STAGES = frozenset({"queue_wait", "execute", "ack"})


@dataclass(frozen=True)
class Span:
    """One timed stage of one task's journey.

    ``start`` is a ``time.monotonic()`` timestamp (seconds); ``worker``
    is the serving ``(layer, row, column)`` worker id for the stages
    that happen on a worker, ``None`` for parent-side stages.
    """

    stage: str
    start: float
    duration: float
    worker: tuple[int, int, int] | None = None

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class QueryTrace:
    """The stitched span tree of one query.

    A query routed to ``x`` workers is complete when the parent holds
    its ``dispatch`` and ``merge`` spans plus ``queue_wait``/
    ``execute``/``ack`` from every expected worker.  Replayed batches
    (worker respawn) re-report spans for the same ``(stage, worker)``
    slot; the last report wins, so traces stay complete and
    duplicate-free across faults.
    """

    query_id: int
    expected_workers: tuple[tuple[int, int, int], ...] = ()
    spans: list[Span] = field(default_factory=list)

    def add(self, span: Span) -> None:
        """Insert a span, replacing a prior span of the same slot."""
        for index, existing in enumerate(self.spans):
            if existing.stage == span.stage and existing.worker == span.worker:
                self.spans[index] = span
                return
        self.spans.append(span)

    def stage_spans(self, stage: str) -> list[Span]:
        return [span for span in self.spans if span.stage == stage]

    def stage_seconds(self, stage: str) -> float:
        return sum(span.duration for span in self.stage_spans(stage))

    def is_complete(self) -> bool:
        """Does the trace cover the whole pipeline for every worker?"""
        have = {(span.stage, span.worker) for span in self.spans}
        if ("dispatch", None) not in have or ("merge", None) not in have:
            return False
        return all(
            (stage, worker) in have
            for worker in self.expected_workers
            for stage in _PER_WORKER_STAGES
        )

    @property
    def response_time(self) -> float:
        """End-to-end latency spanned by the recorded spans."""
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.start for s in self.spans)

    def to_dict(self) -> dict[str, Any]:
        return {
            "query_id": self.query_id,
            "complete": self.is_complete(),
            "response_time": self.response_time,
            "spans": [
                {
                    "stage": span.stage,
                    "start": span.start,
                    "duration": span.duration,
                    "worker": list(span.worker) if span.worker else None,
                }
                for span in sorted(self.spans, key=lambda s: s.start)
            ],
        }


class _ActiveSpan:
    """Context manager that records its wall time on exit."""

    __slots__ = ("_telemetry", "_stage", "_query_id", "_worker", "_start")

    def __init__(self, telemetry, stage, query_id, worker):
        self._telemetry = telemetry
        self._stage = stage
        self._query_id = query_id
        self._worker = worker

    def __enter__(self) -> "_ActiveSpan":
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc_info) -> None:
        self._telemetry.record(
            self._stage,
            time.monotonic() - self._start,
            start=self._start,
            query_id=self._query_id,
            worker=self._worker,
        )


class _NullSpan:
    """The do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """The recording handle executors carry.

    One instance aggregates any number of runs: per-stage latency
    histograms (fixed log-scale buckets, p50/p95/p99 export), named
    counters, and up to ``max_traces`` per-query span trees (later
    queries still feed the histograms; only the trace store is
    bounded).  Only the thread that owns the pool records; readers
    such as ``stats()`` may be on other threads, so each call takes
    the lock once — and the pool records a batch's or a cycle's samples
    in one count-weighted call (:meth:`record_shared`).

    The disabled form (``Telemetry(enabled=False)``, or the shared
    :data:`NULL_TELEMETRY`) accepts every call as a no-op so call sites
    need exactly one branch, on :attr:`enabled`, to stay off the hot
    path entirely.
    """

    def __init__(self, enabled: bool = True, max_traces: int = 2048) -> None:
        if max_traces < 0:
            raise ValueError("max_traces must be >= 0")
        self.enabled = enabled
        self._max_traces = max_traces
        self._lock = threading.Lock()
        self._stages: dict[str, LogHistogram] = {}
        self._counters: dict[str, int] = {}
        self._traces: dict[int, QueryTrace] = {}
        self._traces_dropped = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(
        self,
        stage: str,
        *,
        query_id: int | None = None,
        worker: tuple[int, int, int] | None = None,
    ):
        """A context manager timing a block into ``stage``."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, stage, query_id, worker)

    def record(
        self,
        stage: str,
        duration: float,
        *,
        start: float | None = None,
        query_id: int | None = None,
        worker: tuple[int, int, int] | None = None,
        count: int = 1,
    ) -> None:
        """Record a finished stage; attach it to a trace if one exists."""
        self.record_shared(
            stage, duration, () if query_id is None else (query_id,),
            start=start or 0.0, worker=worker, count=count,
        )

    def record_shared(
        self, stage: str, duration: float, query_ids: Sequence[int], *,
        start: float = 0.0, step: float = 0.0, worker=None, count=None,
    ) -> None:
        """One locked, count-weighted record: ``count`` samples of
        ``duration`` (one per id by default), and a span in the open
        trace of each id, the ``i``-th starting at ``start + i * step``
        — what one :meth:`record` per id leaves, for one lock."""
        weight = len(query_ids) if count is None else count
        if not self.enabled or not weight:
            return
        with self._lock:
            self._histogram(stage).record(duration, weight)
            traces = self._traces
            if traces:
                for position, query_id in enumerate(query_ids):
                    trace = traces.get(query_id)
                    if trace is not None:
                        trace.add(Span(
                            stage, start + position * step, duration, worker
                        ))

    def record_samples(self, stage: str, durations: Sequence[float]) -> None:
        """One sample per duration, under one lock (no spans)."""
        if self.enabled and durations:
            with self._lock:
                self._histogram(stage).record_many(durations)

    def record_responses(self, query_ids: Iterable[int]) -> None:
        """Each traced query's end-to-end time, as a ``response`` sample."""
        if not self.enabled:
            return
        with self._lock:
            for query_id in query_ids:
                trace = self._traces.get(query_id)
                if trace is not None and trace.spans:
                    self._histogram("response").record(trace.response_time)

    def _histogram(self, stage: str) -> LogHistogram:
        histogram = self._stages.get(stage)
        if histogram is None:
            histogram = self._stages[stage] = LogHistogram()
        return histogram

    def count(self, name: str, value: int = 1) -> None:
        """Bump a named counter."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def begin_trace(
        self,
        query_id: int,
        expected_workers: Sequence[tuple[int, int, int]] = (),
    ) -> None:
        """Open the span tree for a query (called at submit time)."""
        self.begin_traces(((query_id, expected_workers),))

    def begin_traces(self, entries: Sequence[tuple[int, Sequence]]) -> None:
        """Open the span tree of each ``(query_id, expected_workers)``
        not open yet (a submit cycle's queries); no lock once the store
        is full — only the recording thread adds traces."""
        if not self.enabled:
            return
        traces = self._traces
        if len(traces) >= self._max_traces:
            self._traces_dropped += sum(
                query_id not in traces for query_id, _workers in entries
            )
            return
        with self._lock:
            for query_id, workers in entries:
                if query_id in traces:
                    continue
                if len(traces) >= self._max_traces:
                    self._traces_dropped += 1
                    continue
                traces[query_id] = QueryTrace(
                    query_id, tuple(tuple(w) for w in workers)
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stage_names(self) -> list[str]:
        """Recorded stages, canonical pipeline order first."""
        with self._lock:
            seen = list(self._stages)
        ordered = [s for s in TRACE_STAGES if s in seen]
        ordered.extend(sorted(s for s in seen if s not in TRACE_STAGES))
        return ordered

    def histogram(self, stage: str) -> LogHistogram | None:
        with self._lock:
            return self._stages.get(stage)

    def stage_stats(self, stage: str) -> dict[str, float | int]:
        """Count/mean/percentile summary of one stage ({} if unseen)."""
        histogram = self.histogram(stage)
        return histogram.to_dict() if histogram is not None else {}

    @property
    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def trace(self, query_id: int) -> QueryTrace | None:
        with self._lock:
            return self._traces.get(query_id)

    def traces(self) -> list[QueryTrace]:
        """All retained traces, by query id."""
        with self._lock:
            return [self._traces[qid] for qid in sorted(self._traces)]

    @property
    def traces_dropped(self) -> int:
        return self._traces_dropped

    def summary(self) -> dict[str, Any]:
        """JSON-ready snapshot of stages, counters, and trace health."""
        traces = self.traces()
        return {
            "stages": {
                stage: self.stage_stats(stage) for stage in self.stage_names()
            },
            "counters": self.counters,
            "traces": {
                "retained": len(traces),
                "complete": sum(t.is_complete() for t in traces),
                "dropped": self._traces_dropped,
            },
        }

    def iter_stage_rows(self) -> Iterator[tuple[str, Mapping[str, float | int]]]:
        """(stage, stats) rows for report renderers."""
        for stage in self.stage_names():
            yield stage, self.stage_stats(stage)

    def clear(self) -> None:
        """Drop all recorded data (the handle stays usable)."""
        with self._lock:
            self._stages.clear()
            self._counters.clear()
            self._traces.clear()
            self._traces_dropped = 0


#: Shared disabled handle: the default for every executor, so the
#: no-telemetry hot path is one attribute load and one branch.
NULL_TELEMETRY = Telemetry(enabled=False, max_traces=0)
