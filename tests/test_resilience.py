"""Unit tests for the resilience policy layer (no processes, no sleeps).

``repro.mpr.resilience`` is pure policy — every clocked method takes
``now`` explicitly — so the breaker state machine, the admission
ledger, the shed decision, and the deadline resolution are all testable
with hand-driven time.  The executor wiring is covered by
``tests/test_pool_resilience.py`` and ``tests/test_chaos.py``.
"""

from __future__ import annotations

import pytest

from repro.mpr import MPRConfig
from repro.mpr.core_matrix import MPRRouter, RouteBatcher
from repro.mpr.resilience import (
    RESILIENCE_COUNTERS,
    AdmissionController,
    CircuitBreaker,
    ResilienceConfig,
    ResiliencePolicy,
)
from repro.objects.tasks import InsertTask, QueryTask


# ----------------------------------------------------------------------
# ResilienceConfig validation
# ----------------------------------------------------------------------
def test_config_defaults_are_valid() -> None:
    config = ResilienceConfig()
    assert config.default_deadline is None
    assert config.max_outstanding is None
    assert config.hedge is True


@pytest.mark.parametrize(
    "kwargs",
    [
        {"default_deadline": 0.0},
        {"default_deadline": -1.0},
        {"max_outstanding": 0},
        {"breaker_failures": 0},
        {"backoff_base": 0.0},
        {"backoff_max": -2.0},
        {"backoff_factor": 0.5},
        {"stall_timeout": 0.0},
        {"default_deadline": float("nan")},
        {"default_deadline": float("inf")},
    ],
)
def test_config_rejects_bad_knobs(kwargs) -> None:
    with pytest.raises(ValueError):
        ResilienceConfig(**kwargs)


# ----------------------------------------------------------------------
# CircuitBreaker state machine (caller-driven clock)
# ----------------------------------------------------------------------
def test_breaker_opens_after_threshold_and_backs_off() -> None:
    config = ResilienceConfig(
        breaker_failures=3, backoff_base=0.1, backoff_factor=2.0,
        backoff_max=5.0,
    )
    breaker = CircuitBreaker(config)
    assert breaker.state == CircuitBreaker.CLOSED
    assert not breaker.record_failure(now=1.0)
    assert not breaker.record_failure(now=2.0)
    assert breaker.record_failure(now=3.0)  # third crash opens
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.retry_at == pytest.approx(3.1)

    # Before the backoff elapses respawns are suppressed...
    assert not breaker.allow(now=3.05)
    # ...after it, exactly one half-open trial is allowed.
    assert breaker.allow(now=3.2)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow(now=3.2)  # the in-flight trial stays allowed

    # Trial crash: re-open immediately with doubled backoff.
    assert breaker.record_failure(now=3.3)
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.retry_at == pytest.approx(3.3 + 0.2)

    # A successful trial closes and resets the failure streak.
    assert breaker.allow(now=4.0)
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.failures == 0
    assert breaker.allow(now=4.0)


def test_breaker_backoff_is_capped() -> None:
    config = ResilienceConfig(
        breaker_failures=1, backoff_base=1.0, backoff_factor=10.0,
        backoff_max=3.0,
    )
    breaker = CircuitBreaker(config)
    for attempt in range(4):
        breaker.allow(now=float(attempt))
        breaker.record_failure(now=float(attempt))
    assert breaker.backoff() == pytest.approx(3.0)


def test_breaker_failure_while_open_pushes_retry_horizon() -> None:
    config = ResilienceConfig(breaker_failures=1, backoff_base=0.5)
    breaker = CircuitBreaker(config)
    assert breaker.record_failure(now=0.0)
    opens = breaker.opens
    assert not breaker.record_failure(now=0.2)  # no new transition
    assert breaker.opens == opens
    assert breaker.retry_at == pytest.approx(0.7)


# ----------------------------------------------------------------------
# AdmissionController ledger + shed decision
# ----------------------------------------------------------------------
def test_admission_tracks_and_sheds_on_worst_worker() -> None:
    admission = AdmissionController(max_outstanding=3)
    a, b = (0, 0, 0), (0, 0, 1)
    admission.dispatched((a, b), count=2)
    admission.dispatched((a,), count=1)
    assert admission.load(a) == 3 and admission.load(b) == 2
    # One worker at the bound is enough to shed the whole fan-out.
    assert admission.should_shed((a, b)) == 3
    assert admission.should_shed((b,)) is None
    admission.acked(a, count=1)
    assert admission.should_shed((a, b)) is None


def test_admission_ack_never_goes_negative() -> None:
    admission = AdmissionController(max_outstanding=2)
    worker = (0, 0, 0)
    admission.acked(worker, count=5)
    assert admission.load(worker) == 0
    assert worker not in admission.outstanding


def test_admission_unbounded_never_sheds() -> None:
    admission = AdmissionController(max_outstanding=None)
    worker = (0, 0, 0)
    admission.dispatched((worker,), count=10_000)
    assert admission.should_shed((worker,)) is None


# ----------------------------------------------------------------------
# ResiliencePolicy handle
# ----------------------------------------------------------------------
def test_null_resilience_is_disabled_and_shared() -> None:
    """A policy built from ``None`` is disabled and inert — and there is
    no shared module-level instance: every pool owns its ledgers."""
    disabled = ResiliencePolicy(None)
    assert disabled.enabled is False
    assert disabled.admission.max_outstanding is None
    assert disabled.config.hedge is False
    assert disabled.config.stall_timeout is None
    assert disabled.admission is not ResiliencePolicy(None).admission
    assert ResiliencePolicy(ResilienceConfig()).enabled is True


def test_policy_breakers_are_lazy_and_per_worker() -> None:
    policy = ResiliencePolicy(ResilienceConfig())
    assert policy.breakers() == {}
    first = policy.breaker((0, 0, 0))
    assert policy.breaker((0, 0, 0)) is first
    assert policy.breaker((0, 1, 0)) is not first
    assert set(policy.breakers()) == {(0, 0, 0), (0, 1, 0)}


def test_deadline_resolution_order() -> None:
    policy = ResiliencePolicy(ResilienceConfig(default_deadline=0.5))
    assert policy.deadline_for(0.1) == 0.1  # task wins
    assert policy.deadline_for(None) == 0.5  # then the policy
    assert ResiliencePolicy(ResilienceConfig()).deadline_for(None) is None


def test_counter_names_are_stable() -> None:
    assert all(name.startswith("resilience.") for name in RESILIENCE_COUNTERS)
    assert "resilience.hedges" in RESILIENCE_COUNTERS
    assert "resilience.shed" in RESILIENCE_COUNTERS
    assert "resilience.degraded" in RESILIENCE_COUNTERS
    assert "resilience.breaker_open" in RESILIENCE_COUNTERS


# ----------------------------------------------------------------------
# RouteBatcher.offer — admission-controlled routing
# ----------------------------------------------------------------------
def test_offer_sheds_queries_but_never_updates() -> None:
    config = MPRConfig(2, 1, 1)
    admission = AdmissionController(max_outstanding=2)
    batcher = RouteBatcher(
        MPRRouter(config), batch_size=100, admission=admission
    )

    route, ready, backlog = batcher.offer(QueryTask(0.0, 0, 5, 3))
    assert backlog is None and ready == []
    # The query was counted against every target worker (fan-out x=2).
    assert all(admission.load(worker) == 1 for worker in route.workers)

    route, _, backlog = batcher.offer(QueryTask(0.1, 1, 6, 3))
    assert backlog is None

    # Third query: every target is at the bound -> shed, not buffered.
    route, ready, backlog = batcher.offer(QueryTask(0.2, 2, 7, 3))
    assert backlog == 2 and ready == []
    assert all(admission.load(worker) == 2 for worker in route.workers)

    # Updates are exempt: dropping one would fork replica state.
    _, _, backlog = batcher.offer(InsertTask(0.3, 99, 4))
    assert backlog is None

    # Acks release admission and the next query is admitted again.
    for worker in route.workers:
        admission.acked(worker, count=2)
    _, _, backlog = batcher.offer(QueryTask(0.4, 3, 8, 3))
    assert backlog is None


def test_offer_without_admission_matches_add() -> None:
    config = MPRConfig(2, 2, 1)
    batcher = RouteBatcher(MPRRouter(config), batch_size=1)
    route, ready, backlog = batcher.offer(QueryTask(0.0, 0, 5, 3))
    assert backlog is None
    assert {worker for worker, _ in ready} == set(route.workers)
