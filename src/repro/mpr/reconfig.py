"""Live pool reconfiguration: the control plane for shape changes.

This module holds the *decision* layer of online reconfiguration — the
mechanism (spawning, warming, cutover, rollback) lives inside
:class:`repro.mpr.process_executor.ProcessPoolService`, which this
module deliberately does not import: the executor imports
:class:`ReconfigEvent` / :class:`ReconfigRejected` from here, and the
manager drives any system object exposing ``telemetry`` / ``config`` /
``reconfigure()`` duck-typed.

The transition state machine (implemented by the executor, audited via
the :class:`ReconfigEvent` records and ``reconfig.*`` counters):

``WARMING``
    New workers for the target ``(x, y, z)`` spawn and attach to the
    already-published shared-memory/memmap graph (and cached CH), each
    receiving an exact object-cell snapshot plus an empty *probe* batch.
    The old shape keeps serving; updates are dual-fed to the warming
    cells.  Bounded by ``warm_timeout``.
``CUTOVER``
    Once every warming worker has acked its probe, the router/batcher
    pair is swapped under a generation counter in one supervisor step —
    no query is ever routed to a retiring cell.
``RETIRING``
    Old workers finish their in-flight batches, then receive ``stop``;
    stragglers are killed after ``retire_timeout``.  Queries already in
    flight on the old generation still complete (their answers remain
    valid — the old shape was consistent when they were routed).
``ROLLBACK``
    Any fault while WARMING — a warming worker crash, a probe/handoff
    failure, or the warm deadline expiring — discards the half-built
    shape and keeps the old one, which never stopped serving.  Repeated
    rollbacks trip a reconfiguration circuit breaker; further attempts
    raise :class:`ReconfigRejected` until the breaker's backoff expires.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any

from ..knn.calibration import AlgorithmProfile
from .analysis import MachineSpec
from .config import MPRConfig
from .controller import AdaptiveController, RateEstimator
from .schemes import DEFAULT_MAX_LAYERS, Objective

#: Counters the executor's transition machinery may bump; mirrored in
#: docs/API.md ("Live reconfiguration") and asserted by tests.
RECONFIG_COUNTERS = (
    "reconfig.attempts",
    "reconfig.completed",
    "reconfig.rollbacks",
    "reconfig.rejected",
    "reconfig.breaker_open",
    "reconfig.catchup_ops",
)


class ReconfigRejected(RuntimeError):
    """A reconfiguration attempt was refused before any work started.

    Raised when a transition is already in flight, the previous shape is
    still retiring (owes pre-cutover answers), the target equals the
    current shape, or the reconfiguration circuit breaker is open after
    repeated rollbacks.
    The pool's serving state is untouched.
    """


@dataclass
class ReconfigEvent:
    """One audited reconfiguration attempt (pending → terminal outcome).

    Appended to ``ProcessPoolService.reconfig_history`` at begin time
    and mutated in place as the transition progresses; ``outcome`` is
    one of ``"pending"``, ``"completed"``, ``"rolled_back"``, or
    ``"rejected"``.
    """

    started_at: float
    old_config: MPRConfig
    new_config: MPRConfig
    trigger: str = "manual"
    outcome: str = "pending"
    reason: str | None = None
    finished_at: float | None = None
    generation: int | None = None
    inflight_at_cutover: int | None = None
    catchup_ops: int = 0
    phases: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form for ``stats()`` / CLI / report surfaces."""
        return {
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "old_config": [
                self.old_config.x, self.old_config.y, self.old_config.z
            ],
            "new_config": [
                self.new_config.x, self.new_config.y, self.new_config.z
            ],
            "trigger": self.trigger,
            "outcome": self.outcome,
            "reason": self.reason,
            "generation": self.generation,
            "inflight_at_cutover": self.inflight_at_cutover,
            "catchup_ops": self.catchup_ops,
            "phases": dict(self.phases),
        }


@dataclass(frozen=True)
class ReconfigPolicy:
    """Knobs for the automatic control loop.

    ``improvement_threshold`` and ``cooldown`` are the hysteresis pair
    (forwarded to :class:`AdaptiveController`); ``recalibrate`` re-fits
    the algorithm profile and machine spec from live telemetry before
    each decision once enough samples exist; ``pressure_counters`` name
    resilience counters whose growth tags the decision's trigger so the
    history records *why* the pool changed shape.
    """

    objective: Objective = Objective.RESPONSE_TIME
    rq_bound: float = 0.1
    improvement_threshold: float = 0.15
    cooldown: float = 5.0
    recalibrate: bool = True
    warm_timeout: float = 10.0
    retire_timeout: float = 10.0
    pressure_counters: tuple[str, ...] = (
        "resilience.shed",
        "resilience.deadline_misses",
    )
    max_layers: int = DEFAULT_MAX_LAYERS


class ReconfigManager:
    """Watches live telemetry and drives ``system.reconfigure()``.

    ``system`` is duck-typed: anything with a ``telemetry`` attribute
    (``repro.obs.Telemetry``), a ``config`` property returning the
    shape currently serving, and a
    ``reconfigure(new_config, *, trigger=...)`` method.  Arrival rates
    are derived from the router's cumulative ``router.queries`` /
    ``router.updates`` counters by delta, so the manager needs no hook
    on the submit path.

    Call :meth:`poll` from your own loop (tests and the soak harness
    pass a synthetic ``now``), or :meth:`start` a daemon thread.
    """

    def __init__(
        self,
        system: Any,
        profile: AlgorithmProfile,
        machine: MachineSpec,
        *,
        policy: ReconfigPolicy | None = None,
        estimator: RateEstimator | None = None,
    ) -> None:
        self.system = system
        self.policy = policy = policy or ReconfigPolicy()
        self.controller = AdaptiveController(
            profile=profile,
            machine=machine,
            objective=policy.objective,
            rq_bound=policy.rq_bound,
            improvement_threshold=policy.improvement_threshold,
            cooldown=policy.cooldown,
            max_layers=policy.max_layers,
            estimator=estimator or RateEstimator(),
        )
        self._origin: float | None = None
        self._seen = {"router.queries": 0, "router.updates": 0}
        self._pressure_seen = dict.fromkeys(policy.pressure_counters, 0)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # One control step
    # ------------------------------------------------------------------
    def poll(self, now: float | None = None) -> ReconfigEvent | None:
        """Observe, decide, and (maybe) reconfigure.  Returns the event
        applied (completed or rolled back), or ``None`` when the shape
        was kept."""
        if now is None:
            if self._origin is None:
                self._origin = _time.monotonic()
            now = _time.monotonic() - self._origin
        counters = self.system.telemetry.counters
        queries = counters.get("router.queries", 0)
        updates = counters.get("router.updates", 0)
        self.controller.estimator.observe_counts(
            now,
            queries=queries - self._seen["router.queries"],
            updates=updates - self._seen["router.updates"],
        )
        self._seen["router.queries"] = queries
        self._seen["router.updates"] = updates

        pressure = False
        for name in self.policy.pressure_counters:
            value = counters.get(name, 0)
            if value > self._pressure_seen[name]:
                pressure = True
            self._pressure_seen[name] = value

        if self.policy.recalibrate:
            self._recalibrate()

        self.controller.sync_config(self.system.config)
        decision = self.controller.maybe_reconfigure(now)
        if decision is None:
            return None
        trigger = "auto+pressure" if pressure else "auto"
        try:
            return self.system.reconfigure(
                decision.new_config,
                trigger=trigger,
                warm_timeout=self.policy.warm_timeout,
                retire_timeout=self.policy.retire_timeout,
            )
        except ReconfigRejected:
            return None

    def _recalibrate(self) -> None:
        from ..knn.calibration import profile_from_telemetry
        from ..sim.measurement import machine_spec_from_telemetry

        telemetry = self.system.telemetry
        try:
            self.controller.profile = profile_from_telemetry(
                telemetry, name=self.controller.profile.name
            )
        except ValueError:
            pass  # no execute samples yet; keep the prior profile
        self.controller.machine = machine_spec_from_telemetry(
            telemetry, total_cores=self.controller.machine.total_cores
        )

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------
    def start(self, interval: float = 0.5) -> None:
        """Poll every ``interval`` seconds from a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.poll()
                except Exception:  # noqa: BLE001 - control loop survives
                    pass

        self._thread = threading.Thread(
            target=loop, name="reconfig-manager", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    @property
    def history(self) -> list:
        """The controller's decision history (proposed switches)."""
        return self.controller.history
