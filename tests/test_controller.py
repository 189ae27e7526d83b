"""Tests for online rate estimation and the adaptive control loop.

The loop is :class:`repro.mpr.ReconfigManager`; ``TestAdaptiveController``
drives it through its duck-typed ``system`` seam in synthetic time — one
estimator window of arrivals per phase, ``alpha = 1`` so the estimate
*is* the phase's rates — and pins the hysteresis semantics one by one.
"""

import math

import pytest

from repro.knn import paper_profile
from repro.mpr import (
    MachineSpec,
    MPRConfig,
    Objective,
    RateEstimator,
    ReconfigManager,
    ReconfigPolicy,
    Scheme,
    Workload,
    configure_scheme,
)
from repro.mpr.schemes import predicted_value
from tests.conftest import FakeSystem


class TestRateEstimator:
    def test_single_window_rate(self) -> None:
        estimator = RateEstimator(window=1.0, alpha=1.0)
        for i in range(50):
            estimator.observe_query(i * 0.02)  # 50 arrivals in [0, 1)
        estimator.observe_query(1.0)  # closes the first window
        assert estimator.ready
        assert estimator.lambda_q == pytest.approx(50.0)

    def test_ewma_smooths(self) -> None:
        estimator = RateEstimator(window=1.0, alpha=0.5)
        # Window 1: 100 events; window 2: 0 events.
        for i in range(100):
            estimator.observe_query(i * 0.01)
        estimator.observe_update(2.0)  # jumps past window 2
        assert estimator.lambda_q == pytest.approx(50.0)  # 0.5*0 + 0.5*100

    def test_updates_tracked_separately(self) -> None:
        estimator = RateEstimator(window=1.0, alpha=1.0)
        for i in range(10):
            estimator.observe_query(i * 0.1)
        for i in range(30):
            estimator.observe_update(i * 0.03)
        estimator.observe_query(1.5)
        assert estimator.lambda_q == pytest.approx(10.0)
        assert estimator.lambda_u == pytest.approx(30.0)

    def test_not_ready_before_first_window(self) -> None:
        estimator = RateEstimator(window=10.0)
        estimator.observe_query(0.5)
        assert not estimator.ready

    def test_time_regression_rejected(self) -> None:
        estimator = RateEstimator()
        estimator.observe_query(5.0)
        with pytest.raises(ValueError):
            estimator.observe_query(1.0)

    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            RateEstimator(window=0.0)
        with pytest.raises(ValueError):
            RateEstimator(alpha=0.0)

    def test_observe_counts_matches_per_event_feed(self) -> None:
        one_by_one = RateEstimator(window=1.0, alpha=0.5)
        batched = RateEstimator(window=1.0, alpha=0.5)
        for i in range(40):
            one_by_one.observe_query(i * 0.025)
        batched.observe_counts(0.0, queries=40)
        for estimator in (one_by_one, batched):
            estimator.observe_counts(2.5, updates=7)
        assert batched.lambda_q == pytest.approx(one_by_one.lambda_q)
        assert batched.lambda_u == pytest.approx(one_by_one.lambda_u)

    def test_counts_not_ready_before_window_fills(self) -> None:
        """A burst of counts inside the first window must not fake
        readiness — the rate only exists once a window has closed."""
        estimator = RateEstimator(window=1.0, alpha=1.0)
        estimator.observe_counts(0.2, queries=10_000, updates=500)
        estimator.observe_counts(0.9, queries=10_000)
        assert not estimator.ready
        assert estimator.lambda_q == 0.0 and estimator.lambda_u == 0.0
        estimator.observe_counts(1.0, queries=1)  # folds the window
        assert estimator.ready
        assert estimator.lambda_q == pytest.approx(20_000.0)
        assert estimator.lambda_u == pytest.approx(500.0)


MACHINE = MachineSpec(total_cores=19)
TOAIN = paper_profile("TOAIN", "BJ")
VTREE = paper_profile("V-tree", "BJ")


def optimum(profile, lambda_q, lambda_u, **model) -> MPRConfig:
    return configure_scheme(
        Scheme.MPR, Workload(lambda_q, lambda_u), profile, MACHINE, **model
    ).config


class Loop:
    """A manager over a :class:`FakeSystem`, and the synthetic clock."""

    def __init__(self, profile, config: MPRConfig, outcomes=(), **policy):
        policy.setdefault("cooldown", 0.0)
        self.system = FakeSystem(config, outcomes)
        self.manager = ReconfigManager(
            self.system, profile, MACHINE,
            policy=ReconfigPolicy(recalibrate=False, **policy),
            estimator=RateEstimator(window=1.0, alpha=1.0),
        )
        self.clock = 0.0
        self.manager.poll(now=0.0)  # baseline the counter deltas

    def phase(self, lambda_q: float, lambda_u: float):
        """One window of arrivals at these rates, captured mid-window
        (that poll still sees the previous window's rates), then the
        poll that folds it and decides on it; returns that poll's event."""
        telemetry = self.system.telemetry
        telemetry.count("router.queries", int(lambda_q))
        telemetry.count("router.updates", int(lambda_u))
        self.manager.poll(now=self.clock + 0.5)
        self.clock += 1.0
        return self.manager.poll(now=self.clock)

    def predicted(self, config: MPRConfig) -> float:
        policy = self.manager.policy
        return predicted_value(
            config, self.manager.estimator.workload(), self.manager.profile,
            MACHINE, policy.objective, policy.rq_bound,
        )


class TestAdaptiveController:
    def test_reconfigures_on_drift(self) -> None:
        # V-tree's expensive updates make phase 1 partition-heavy and
        # the drift to a query flood overloads that arrangement.
        first = optimum(VTREE, 1_000.0, 20_000.0)
        assert first.x > 1
        loop = Loop(VTREE, first, improvement_threshold=0.15)
        assert loop.phase(1_000.0, 20_000.0) is None  # already the optimum
        event = loop.phase(30_000.0, 100.0)
        assert event is not None and event.trigger == "auto"
        serving = loop.system.config
        assert serving != first and serving.y > serving.x
        assert event.old_config == first and event.new_config == serving
        assert loop.system.calls == [(serving, "auto")]

    def test_small_drift_keeps_config(self) -> None:
        """An 8%-better alternative is below the 15% hysteresis bar."""
        first = optimum(TOAIN, 2_000.0, 50_000.0)
        loop = Loop(TOAIN, first, improvement_threshold=0.15)
        loop.phase(2_000.0, 50_000.0)
        assert loop.phase(30_000.0, 500.0) is None
        better = optimum(TOAIN, 30_000.0, 500.0)
        assert 0.0 < 1.0 - loop.predicted(better) / loop.predicted(first) < 0.15
        assert loop.system.config == first and loop.system.calls == []

    def test_hysteresis_prevents_flapping(self) -> None:
        first = optimum(TOAIN, 2_000.0, 50_000.0)
        loop = Loop(TOAIN, first, improvement_threshold=10.0)  # never switch
        for _ in range(3):
            assert loop.phase(2_000.0, 50_000.0) is None
            assert loop.phase(30_000.0, 500.0) is None
        # An improvement existed every other phase — finite, so below
        # the (absurd) threshold; only overload escapes hysteresis.
        assert math.isfinite(loop.predicted(first))
        assert optimum(TOAIN, 30_000.0, 500.0) != first
        assert loop.system.proposed_from == []

    def test_escapes_overload_regardless_of_threshold(self) -> None:
        first = optimum(TOAIN, 500.0, 500.0)
        loop = Loop(TOAIN, first, improvement_threshold=100.0)
        assert loop.phase(500.0, 500.0) is None
        event = loop.phase(15_000.0, 50_000.0)
        assert math.isinf(loop.predicted(first))  # the old shape drowned
        assert event is not None
        assert math.isfinite(loop.predicted(loop.system.config))

    def test_no_decision_before_ready(self) -> None:
        loop = Loop(VTREE, optimum(VTREE, 1_000.0, 20_000.0))
        loop.system.telemetry.count("router.queries", 30_000)
        assert loop.manager.poll(now=0.1) is None
        assert not loop.manager.estimator.ready
        assert loop.system.proposed_from == []

    def test_throughput_objective(self) -> None:
        model = dict(objective=Objective.THROUGHPUT, rq_bound=0.1)
        start = MPRConfig(1, 1, 1)
        loop = Loop(TOAIN, start, **model)
        event = loop.phase(1_000.0, 50_000.0)
        assert event is not None
        # The Eq. 7 optimum depends on λu alone, and its bound is the
        # higher one: throughput is maximized, not minimized.
        assert loop.system.config == optimum(TOAIN, 0.0, 50_000.0, **model)
        assert loop.predicted(loop.system.config) > loop.predicted(start) > 0

    def test_invalid_threshold(self) -> None:
        with pytest.raises(ValueError):
            ReconfigPolicy(improvement_threshold=-1.0)
        with pytest.raises(ValueError):
            ReconfigPolicy(cooldown=-1.0)

    def test_cooldown_suppresses_back_to_back_switches(self) -> None:
        calm, busy = (500.0, 500.0), (500.0, 3_000.0)
        first = optimum(VTREE, *calm)
        loop = Loop(VTREE, first, improvement_threshold=0.01, cooldown=3.0)
        loop.phase(*calm)
        # A clear improvement exists, and the first switch toward it is
        # allowed (no prior proposal to cool down from)...
        event = loop.phase(*busy)
        assert event is not None
        switched = loop.system.config
        assert switched != first
        # ...then drift back: the way back pays too, and is finite (an
        # escape from overload would bypass the cooldown), but sits
        # inside the cooldown window and must be suppressed...
        assert loop.phase(*calm) is None
        assert 0.01 < 1.0 - loop.predicted(first) / loop.predicted(switched) < 1
        assert loop.phase(*calm) is None
        assert loop.system.config == switched
        # ...until the cooldown has passed since the last proposal.
        assert loop.phase(*calm) is not None
        assert loop.system.config == first

    def test_overload_escape_bypasses_cooldown(self) -> None:
        first = optimum(VTREE, 500.0, 500.0)
        loop = Loop(VTREE, first, improvement_threshold=0.01, cooldown=1e9)
        loop.phase(500.0, 500.0)
        assert loop.phase(500.0, 3_000.0) is not None  # arms the cooldown
        switched = loop.system.config
        # Overload the new shape: an infinite improvement ignores the
        # cooldown a finite one would wait out.
        event = loop.phase(100_000.0, 100.0)
        assert math.isinf(loop.predicted(switched))
        assert event is not None and event.old_config == switched
        assert math.isfinite(loop.predicted(loop.system.config))

    def test_cost_tie_keeps_incumbent_deterministically(self) -> None:
        """When the optimizer's best shape is no cheaper than the one
        serving, the loop must hold still — repeated decisions on
        identical rates never flap."""
        # Without queries Rq does not depend on y, so every replica
        # count ties and the optimizer's pick is a tie-break.
        incumbent = MPRConfig(1, 4, 1)
        loop = Loop(VTREE, incumbent, improvement_threshold=0.0)  # ties must hold
        for _ in range(5):
            assert loop.phase(0.0, 100.0) is None
        best = optimum(VTREE, 0.0, 100.0)
        assert best != incumbent
        assert loop.predicted(best) == loop.predicted(incumbent)
        assert loop.system.proposed_from == []

    def test_rejected_proposal_next_poll_decides_from_the_live_shape(
        self,
    ) -> None:
        """The system's ``config`` is the only notion of the current
        shape: after a rejected or rolled-back proposal the next poll
        decides from the shape still serving, and nothing but the
        system's ``reconfig_history`` records an applied switch."""
        live = MPRConfig(1, 1, 1)  # overloaded at these rates: always escape
        loop = Loop(
            VTREE, live, outcomes=["rejected", "rolled_back"],
            improvement_threshold=1e9,
        )
        assert loop.phase(1_000.0, 20_000.0) is None  # rejected: swallowed
        event = loop.manager.poll(now=1.25)  # same estimate, next poll
        assert event.outcome == "rolled_back" and loop.system.config == live
        event = loop.manager.poll(now=1.5)
        assert event.outcome == "completed" and event.old_config == live
        assert loop.system.proposed_from == [live, live, live]
        assert loop.system.config == optimum(VTREE, 1_000.0, 20_000.0)
        assert loop.phase(1_000.0, 20_000.0) is None  # now at the optimum
        assert not hasattr(loop.manager, "history")
        assert not hasattr(loop.manager, "config")
