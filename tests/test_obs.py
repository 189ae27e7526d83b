"""Unit tests for the telemetry layer (repro.obs).

Covers the three building blocks in isolation — the fixed-bucket
log-scale histogram, the span/trace model, and the ``Telemetry``
recording handle — plus the disabled-path contract that keeps
executors' hot paths a single branch.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    NULL_TELEMETRY,
    LogHistogram,
    QueryTrace,
    Span,
    Telemetry,
    TRACE_STAGES,
)


# ----------------------------------------------------------------------
# LogHistogram
# ----------------------------------------------------------------------
def test_histogram_moments_are_exact() -> None:
    samples = [1e-5, 2e-5, 3e-5, 4e-4, 7e-3]
    hist = LogHistogram()
    hist.record_many(samples)
    assert hist.count == len(samples)
    assert hist.mean == pytest.approx(sum(samples) / len(samples))
    mean = hist.mean
    expected_var = sum((s - mean) ** 2 for s in samples) / len(samples)
    assert hist.variance == pytest.approx(expected_var)
    assert hist.min_value == min(samples)
    assert hist.max_value == max(samples)


def test_histogram_percentiles_bounded_by_bucket_width() -> None:
    """Approximate quantiles land within one bucket (~33% relative) of
    the exact order statistic for a log-uniform sample."""
    rng = random.Random(42)
    samples = sorted(10 ** rng.uniform(-6, 0) for _ in range(5000))
    hist = LogHistogram()
    hist.record_many(samples)
    for quantile in (0.50, 0.95, 0.99):
        exact = samples[int(quantile * len(samples)) - 1]
        approx = hist.percentile(quantile)
        assert exact / 1.5 <= approx <= exact * 1.5


def test_histogram_percentiles_clamped_to_observed_range() -> None:
    hist = LogHistogram()
    hist.record(3.7e-4)
    # One sample: every quantile must be exactly it, not a bucket edge.
    assert hist.percentile(0.0) == pytest.approx(3.7e-4)
    assert hist.percentile(0.5) == pytest.approx(3.7e-4)
    assert hist.percentile(1.0) == pytest.approx(3.7e-4)


def test_histogram_under_and_overflow_still_count() -> None:
    hist = LogHistogram(lo=1e-6, hi=1.0)
    hist.record(1e-9)   # underflow
    hist.record(100.0)  # overflow
    assert hist.count == 2
    assert hist.min_value == 1e-9
    assert hist.max_value == 100.0
    edges = [edge for edge, _ in hist.nonzero_buckets()]
    assert edges[0] == 1e-6          # underflow bucket reports lo
    assert math.isinf(edges[-1])     # overflow bucket reports inf


def test_histogram_merge_equals_single_pass() -> None:
    rng = random.Random(7)
    samples = [10 ** rng.uniform(-6, 1) for _ in range(400)]
    combined = LogHistogram()
    combined.record_many(samples)
    left, right = LogHistogram(), LogHistogram()
    left.record_many(samples[:150])
    right.record_many(samples[150:])
    left.merge(right)
    assert left.count == combined.count
    assert left.mean == pytest.approx(combined.mean)
    assert left.variance == pytest.approx(combined.variance)
    assert left.percentiles((0.5, 0.95, 0.99)) == combined.percentiles(
        (0.5, 0.95, 0.99)
    )


def test_histogram_merge_rejects_layout_mismatch() -> None:
    with pytest.raises(ValueError):
        LogHistogram().merge(LogHistogram(buckets_per_decade=4))


def test_histogram_to_dict_shape() -> None:
    hist = LogHistogram()
    hist.record(2e-4, count=3)
    summary = hist.to_dict()
    assert summary["count"] == 3
    assert set(summary) == {
        "count", "mean", "variance", "min", "max", "p50", "p95", "p99"
    }


def test_histogram_rejects_bad_layout() -> None:
    with pytest.raises(ValueError):
        LogHistogram(lo=0.0)
    with pytest.raises(ValueError):
        LogHistogram(lo=1.0, hi=0.5)
    with pytest.raises(ValueError):
        LogHistogram(buckets_per_decade=0)


# ----------------------------------------------------------------------
# Span / QueryTrace
# ----------------------------------------------------------------------
def test_trace_completeness_requires_every_worker() -> None:
    workers = ((0, 0, 0), (0, 0, 1))
    trace = QueryTrace(1, workers)
    trace.add(Span("dispatch", 0.0, 0.001))
    trace.add(Span("merge", 0.02, 0.0005))
    for worker in workers[:1]:
        for stage in ("queue_wait", "execute", "ack"):
            trace.add(Span(stage, 0.002, 0.001, worker))
    assert not trace.is_complete()  # second worker still missing
    for stage in ("queue_wait", "execute", "ack"):
        trace.add(Span(stage, 0.002, 0.001, workers[1]))
    assert trace.is_complete()


def test_trace_slot_replace_keeps_traces_duplicate_free() -> None:
    """Replayed batches (respawn) re-report the same (stage, worker)
    slot; the last report must win without growing the span list."""
    trace = QueryTrace(9, ((0, 0, 0),))
    trace.add(Span("execute", 1.0, 0.010, (0, 0, 0)))
    trace.add(Span("execute", 2.0, 0.020, (0, 0, 0)))
    spans = trace.stage_spans("execute")
    assert len(spans) == 1
    assert spans[0].duration == 0.020
    # A different worker is a different slot.
    trace.add(Span("execute", 2.0, 0.030, (0, 1, 0)))
    assert len(trace.stage_spans("execute")) == 2
    assert trace.stage_seconds("execute") == pytest.approx(0.050)


def test_trace_response_time_spans_first_to_last() -> None:
    trace = QueryTrace(3)
    trace.add(Span("dispatch", 10.0, 0.001))
    trace.add(Span("execute", 10.002, 0.005, (0, 0, 0)))
    trace.add(Span("merge", 10.008, 0.001))
    assert trace.response_time == pytest.approx(0.009)
    assert Span("merge", 10.008, 0.001).end == pytest.approx(10.009)


def test_trace_to_dict_sorted_by_start() -> None:
    trace = QueryTrace(5, ((0, 0, 0),))
    trace.add(Span("merge", 3.0, 0.1))
    trace.add(Span("dispatch", 1.0, 0.1))
    payload = trace.to_dict()
    assert payload["query_id"] == 5
    assert [s["stage"] for s in payload["spans"]] == ["dispatch", "merge"]
    assert payload["complete"] is False


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_telemetry_records_stages_counters_and_traces() -> None:
    telemetry = Telemetry()
    telemetry.begin_trace(1, [(0, 0, 0)])
    telemetry.record("dispatch", 0.001, start=0.0, query_id=1)
    for stage in ("queue_wait", "execute", "ack"):
        telemetry.record(stage, 0.002, start=0.001, query_id=1, worker=(0, 0, 0))
    telemetry.record("merge", 0.0005, start=0.004, query_id=1)
    telemetry.count("router.queries")
    telemetry.count("router.queries", 2)

    assert telemetry.trace(1).is_complete()
    assert telemetry.counters == {"router.queries": 3}
    assert telemetry.histogram("dispatch").count == 1
    summary = telemetry.summary()
    assert summary["traces"] == {"retained": 1, "complete": 1, "dropped": 0}
    assert set(TRACE_STAGES) <= set(summary["stages"])


def test_telemetry_stage_order_is_pipeline_first() -> None:
    telemetry = Telemetry()
    for stage in ("zeta", "merge", "dispatch", "alpha"):
        telemetry.record(stage, 1e-4)
    assert telemetry.stage_names() == ["dispatch", "merge", "alpha", "zeta"]


def test_telemetry_span_context_manager_feeds_trace() -> None:
    telemetry = Telemetry()
    telemetry.begin_trace(7, [(0, 0, 0)])
    with telemetry.span("merge", query_id=7):
        pass
    assert telemetry.histogram("merge").count == 1
    assert len(telemetry.trace(7).stage_spans("merge")) == 1


def test_telemetry_trace_store_is_bounded() -> None:
    telemetry = Telemetry(max_traces=2)
    for query_id in range(5):
        telemetry.begin_trace(query_id)
        telemetry.record("execute", 1e-4, query_id=query_id)
    assert len(telemetry.traces()) == 2
    assert telemetry.traces_dropped == 3
    # Overflow queries still feed the histograms.
    assert telemetry.histogram("execute").count == 5


def test_telemetry_begin_trace_is_idempotent() -> None:
    telemetry = Telemetry()
    telemetry.begin_trace(1, [(0, 0, 0)])
    telemetry.record("execute", 1e-4, query_id=1, worker=(0, 0, 0))
    telemetry.begin_trace(1, [(0, 0, 0)])  # replay: must not reset spans
    assert len(telemetry.trace(1).spans) == 1


def test_telemetry_clear_resets_but_stays_usable() -> None:
    telemetry = Telemetry(max_traces=1)
    telemetry.begin_trace(1)
    telemetry.begin_trace(2)  # dropped
    telemetry.record("execute", 1e-4)
    telemetry.count("n")
    telemetry.clear()
    assert telemetry.traces() == []
    assert telemetry.counters == {}
    assert telemetry.traces_dropped == 0
    assert telemetry.histogram("execute") is None
    telemetry.record("execute", 1e-4)
    assert telemetry.histogram("execute").count == 1


_WORKERS = st.one_of(
    st.none(), st.tuples(*[st.integers(0, 3)] * 3)
)


@given(
    duration=st.floats(0.0, 1e3, allow_nan=False),
    prior=st.lists(st.floats(0.0, 1e3, allow_nan=False), max_size=3),
    query_ids=st.lists(st.integers(0, 12), max_size=24),
    traced=st.lists(st.integers(0, 12), max_size=12),
    max_traces=st.integers(0, 8),
    start=st.floats(-1e3, 1e3, allow_nan=False),
    step=st.floats(0.0, 10.0, allow_nan=False),
    worker=_WORKERS,
)
def test_a_count_weighted_record_equals_one_record_per_id(
    duration, prior, query_ids, traced, max_traces, start, step, worker
) -> None:
    """``record_shared`` is the per-id loop in one locked call: the same
    histogram — count, min, max, every bucket exactly; total and sum of
    squares up to float summation order — and the same spans, whether
    an id is traced, untraced, repeated, or its trace was dropped by a
    full store."""
    shared, looped = (Telemetry(max_traces=max_traces) for _ in range(2))
    for telemetry in (shared, looped):
        for query_id in traced:
            telemetry.begin_trace(query_id, [(0, 0, 0)])
        for value in prior:
            telemetry.record("execute", value)
    shared.record_shared(
        "execute", duration, query_ids, start=start, step=step, worker=worker
    )
    for position, query_id in enumerate(query_ids):
        looped.record(
            "execute", duration, start=start + position * step,
            query_id=query_id, worker=worker,
        )
    got, want = shared.histogram("execute"), looped.histogram("execute")
    if want is None:
        assert got is None
        return
    assert got.count == want.count
    assert (got.min_value, got.max_value) == (want.min_value, want.max_value)
    assert got._counts == want._counts
    assert got.total == pytest.approx(want.total, rel=1e-12, abs=1e-300)
    assert got.sum_squares == pytest.approx(
        want.sum_squares, rel=1e-12, abs=1e-300
    )
    assert [t.spans for t in shared.traces()] == [
        t.spans for t in looped.traces()
    ]
    assert shared.traces_dropped == looped.traces_dropped


def test_a_count_weighted_record_may_weigh_more_than_its_ids() -> None:
    """``count`` weighs a cycle's untraced ops (updates) in too."""
    telemetry = Telemetry()
    telemetry.begin_trace(3)
    telemetry.record_shared(
        "dispatch", 2e-6, [3], start=1.0, step=2e-6, count=5
    )
    assert telemetry.histogram("dispatch").count == 5
    assert telemetry.trace(3).spans == [Span("dispatch", 1.0, 2e-6)]


def test_a_full_trace_store_opens_nothing_and_counts_the_drops() -> None:
    telemetry = Telemetry(max_traces=2)
    telemetry.begin_traces([(1, [(0, 0, 0)]), (2, [(0, 0, 0)])])
    telemetry.begin_traces([(1, [(0, 0, 0)]), (3, ()), (4, ())])
    assert [trace.query_id for trace in telemetry.traces()] == [1, 2]
    assert telemetry.traces_dropped == 2  # 1 is already open


def test_disabled_telemetry_is_inert() -> None:
    telemetry = Telemetry(enabled=False)
    telemetry.begin_trace(1, [(0, 0, 0)])
    telemetry.record("execute", 1e-4, query_id=1)
    telemetry.count("n")
    with telemetry.span("merge", query_id=1):
        pass
    assert telemetry.traces() == []
    assert telemetry.counters == {}
    assert telemetry.histogram("execute") is None
    assert telemetry.summary()["stages"] == {}


def test_null_telemetry_singleton_disabled() -> None:
    assert NULL_TELEMETRY.enabled is False
    NULL_TELEMETRY.record("execute", 1.0)
    assert NULL_TELEMETRY.histogram("execute") is None


def test_telemetry_rejects_negative_max_traces() -> None:
    with pytest.raises(ValueError):
        Telemetry(max_traces=-1)
