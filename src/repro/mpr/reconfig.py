"""Live pool reconfiguration: shape changes, decided and carried out.

Two halves, one module.  The *decision* half — :class:`ReconfigPolicy`,
:class:`RateEstimator`, :class:`ReconfigManager` — is the one control
loop: it estimates ``(λq, λu)`` from telemetry, re-solves the Section
IV-B/C optimization and asks for a new ``(x, y, z)`` with hysteresis;
it drives any system object exposing ``telemetry`` / ``config`` /
``reconfigure()`` duck-typed.  The *mechanism* half —
:class:`_Fleet` (one shape's router, batcher and worker ledgers) and
:class:`_Reconfigurer` (warm → cutover → retire, or roll back) — is
what :class:`repro.mpr.process_executor.ProcessPoolService` delegates
``begin_reconfigure`` to.  This module deliberately does not import the
executor: the pool constructs the mechanism with the transport, its
serving fleet, its submit-time object ledger and the few supervisor
operations a shape change needs (spawn, send, respawn, flush, reap a
stalled worker), and imports everything here.

The transition state machine (audited via the :class:`ReconfigEvent`
records and ``reconfig.*`` counters):

``WARMING``
    New workers for the target ``(x, y, z)`` spawn and attach to the
    already-published shared-memory/memmap graph (and cached CH), each
    receiving an exact object-cell snapshot plus an empty *probe* batch.
    The old shape keeps serving; updates are dual-fed to the warming
    cells.  Bounded by ``warm_timeout``.
``CUTOVER``
    Once every warming worker has acked its probe, the fleets rotate —
    retiring ← serving ← warming — under a generation counter in one
    supervisor step: no query is ever routed to a retiring cell.
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

import enum
import math
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..knn.calibration import AlgorithmProfile
from ..obs import NULL_TELEMETRY, Telemetry
from .analysis import MachineSpec, Workload
from .config import MPRConfig
from .core_matrix import MPRRouter, RouteBatcher, WorkerId
from .resilience import CircuitBreaker, ResilienceConfig
from .schemes import (
    DEFAULT_MAX_LAYERS,
    Objective,
    Scheme,
    configure_scheme,
    predicted_value,
)
from .transport import _STOP

__all__ = [
    "RECONFIG_COUNTERS",
    "ReconfigEvent",
    "ReconfigManager",
    "ReconfigPolicy",
    "ReconfigRejected",
]

#: ``reconfigure()``'s keyword defaults: the one definition the pool,
#: the :class:`~repro.mpr.api.MPRSystem` facade and
#: :class:`ReconfigPolicy` all take theirs from.
DEFAULT_TRIGGER = "manual"
DEFAULT_WARM_TIMEOUT = 10.0
DEFAULT_RETIRE_TIMEOUT = 10.0
DEFAULT_WAIT_RETIRE = False
DEFAULT_SETTLE_TIMEOUT = 30.0

#: Counters the executor's transition machinery may bump; mirrored in
#: docs/API.md ("Live reconfiguration") and asserted by tests.
RECONFIG_COUNTERS = (
    "reconfig.attempts",
    "reconfig.completed",
    "reconfig.rollbacks",
    "reconfig.rejected",
    "reconfig.breaker_open",
    "reconfig.catchup_ops",
    "reconfig.poll_errors",
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
    trigger: str = DEFAULT_TRIGGER
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

    ``improvement_threshold`` and ``cooldown`` are the hysteresis pair:
    the loop reconfigures only when the optimum's predicted measure
    beats the serving shape's by that relative margin (0.15 = must be
    15% better), and at most once per ``cooldown`` seconds — because a
    reconfiguration forces data repartitioning (each w-core's object
    partition changes, costing roughly one index rebuild).  Switching
    out of an overloaded shape bypasses both.  ``recalibrate`` re-fits
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
    warm_timeout: float = DEFAULT_WARM_TIMEOUT
    retire_timeout: float = DEFAULT_RETIRE_TIMEOUT
    pressure_counters: tuple[str, ...] = (
        "resilience.shed",
        "resilience.deadline_misses",
    )
    max_layers: int = DEFAULT_MAX_LAYERS

    def __post_init__(self) -> None:
        if self.improvement_threshold < 0:
            raise ValueError("improvement_threshold must be non-negative")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class RateEstimator:
    """EWMA arrival-rate estimator over fixed-width windows.

    Counts arrivals per ``window`` seconds and folds each completed
    window into an exponentially weighted average with smoothing
    ``alpha`` (higher = more reactive).  Queries and updates are
    tracked independently.
    """

    def __init__(self, window: float = 1.0, alpha: float = 0.3) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self._window = window
        self._alpha = alpha
        self._window_start = 0.0
        self._counts = {"query": 0, "update": 0}
        self._rates = {"query": 0.0, "update": 0.0}
        self._windows_seen = 0

    def observe_query(self, time: float) -> None:
        self._advance(time)
        self._counts["query"] += 1

    def observe_update(self, time: float) -> None:
        self._advance(time)
        self._counts["update"] += 1

    def observe_counts(
        self, time: float, queries: int = 0, updates: int = 0
    ) -> None:
        """Fold a batch of arrivals in at once (counter-delta feeding).

        The live reconfiguration loop reads cumulative router counters
        and feeds the per-poll delta here instead of one call per task.
        """
        self._advance(time)
        self._counts["query"] += queries
        self._counts["update"] += updates

    def _advance(self, time: float) -> None:
        if time < self._window_start:
            raise ValueError("time moved backwards")
        while time >= self._window_start + self._window:
            for kind in ("query", "update"):
                sample = self._counts[kind] / self._window
                if self._windows_seen == 0:
                    self._rates[kind] = sample
                else:
                    self._rates[kind] = (
                        self._alpha * sample
                        + (1.0 - self._alpha) * self._rates[kind]
                    )
                self._counts[kind] = 0
            self._windows_seen += 1
            self._window_start += self._window

    @property
    def lambda_q(self) -> float:
        return self._rates["query"]

    @property
    def lambda_u(self) -> float:
        return self._rates["update"]

    @property
    def ready(self) -> bool:
        """True once at least one full window has elapsed."""
        return self._windows_seen > 0

    def workload(self) -> Workload:
        return Workload(self.lambda_q, self.lambda_u)


class ReconfigManager:
    """The control loop: estimated workload → ``(x, y, z)``, live.

    The paper presents MPR's self-configuration as a one-shot
    optimization for a given ``(λq, λu)``.  A deployed system (the
    taxi-peak / game-evening scenarios of Section I) sees those rates
    *drift*, so the loop is closed here: estimate the current rates,
    re-solve the optimization, and switch shapes when — and only when —
    the switch pays for itself (:class:`ReconfigPolicy`'s hysteresis).

    ``system`` is duck-typed: anything with a ``telemetry`` attribute
    (an *enabled* ``repro.obs.Telemetry``), a ``config`` property
    returning the shape currently serving, and a
    ``reconfigure(new_config, *, trigger=...)`` method.  Arrival rates
    are derived from the router's cumulative ``router.queries`` /
    ``router.updates`` counters by delta, so the manager needs no hook
    on the submit path.  ``system.config`` is the only notion of the
    current shape (a proposal may have been rejected or rolled back, an
    operator may have reconfigured by hand) and the system's
    ``reconfig_history`` the only record of what was applied.

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
        if not system.telemetry.enabled:
            raise ValueError(
                "ReconfigManager reads arrival rates from the system's "
                "router counters, and its telemetry is disabled "
                "(NULL_TELEMETRY is build_executor's default): the loop "
                "would estimate a rate of zero forever and never act; "
                "pass telemetry=Telemetry() when building the system"
            )
        self.system = system
        self.policy = policy or ReconfigPolicy()
        self.profile, self.machine = profile, machine
        self.estimator = estimator or RateEstimator()
        self._origin: float | None = None
        self._seen = {"router.queries": 0, "router.updates": 0}
        self._pressure_seen = dict.fromkeys(self.policy.pressure_counters, 0)
        #: When a proposal was last handed to ``reconfigure()`` (whatever
        #: came of it); the cooldown counts from here.
        self._last_proposal: float | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: The background loop's failed polls: how many, and the last
        #: exception (traceback attached).  Also counted as
        #: ``reconfig.poll_errors``; a :class:`ReconfigRejected` is a
        #: normal "kept the shape" outcome, not an error.
        self.poll_errors = 0
        self.last_error: Exception | None = None

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
        self.estimator.observe_counts(
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

        target = self._decide(now)
        if target is None:
            return None
        self._last_proposal = now
        try:
            return self.system.reconfigure(
                target,
                trigger="auto+pressure" if pressure else "auto",
                warm_timeout=self.policy.warm_timeout,
                retire_timeout=self.policy.retire_timeout,
            )
        except ReconfigRejected:
            return None

    def _decide(self, now: float) -> MPRConfig | None:
        """Re-solve the optimization; the shape to switch to if that
        clearly pays, else ``None`` (keep the shape serving, or not
        enough observation yet)."""
        if not self.estimator.ready:
            return None
        policy, workload = self.policy, self.estimator.workload()
        model = dict(
            profile=self.profile, machine=self.machine,
            objective=policy.objective, rq_bound=policy.rq_bound,
        )
        best = configure_scheme(
            Scheme.MPR, workload, max_layers=policy.max_layers, **model
        )
        serving = self.system.config
        if best.config == serving:
            return None
        # As costs, lower is better under either objective.
        cost = policy.objective.cost
        current = cost(predicted_value(serving, workload, **model))
        proposed = cost(best.predicted_value)
        if math.isinf(current) and math.isfinite(proposed):
            return best.config  # escape overload unconditionally
        if math.isinf(proposed):
            return None
        improvement = (current - proposed) / max(abs(current), 1e-12)
        if improvement <= 0:
            # Cost tie (or regression) between distinct shapes: keep the
            # incumbent deterministically rather than flapping.
            return None
        if improvement < policy.improvement_threshold:
            return None
        if (
            self._last_proposal is not None
            and now - self._last_proposal < policy.cooldown
        ):
            return None
        return best.config

    def _recalibrate(self) -> None:
        from ..knn.calibration import profile_from_telemetry
        from ..sim.measurement import machine_spec_from_telemetry

        telemetry = self.system.telemetry
        try:
            self.profile = profile_from_telemetry(
                telemetry, name=self.profile.name
            )
        except ValueError:
            pass  # no execute samples yet; keep the prior profile
        self.machine = machine_spec_from_telemetry(
            telemetry, total_cores=self.machine.total_cores
        )

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------
    def start(self, interval: float = 0.5) -> None:
        """Poll every ``interval`` seconds from a daemon thread.

        No-op while a loop is running; refuses while one that
        :meth:`stop` gave up waiting for is still inside its poll
        (clearing the stop flag would revive it beside the new one).
        """
        if self._thread is not None and self._thread.is_alive():
            if self._stop.is_set():
                raise RuntimeError(
                    "the stopped reconfig-manager loop has not ended yet; "
                    "stop() again once its poll has returned"
                )
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.poll()
                except Exception as exc:  # noqa: BLE001 - loop survives
                    self.poll_errors += 1
                    self.last_error = exc
                    self.system.telemetry.count("reconfig.poll_errors")

        self._thread = threading.Thread(
            target=loop, name="reconfig-manager", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Ask the loop to end and wait (up to 5 s) for it.

        A poll may legitimately sit in ``reconfigure()`` for a warm
        timeout plus the settle; the handle is kept until the thread
        has really ended, so a later :meth:`start` cannot run two loops.
        """
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            self._thread = None


# ----------------------------------------------------------------------
# The mechanism half: fleets, and the machine that rotates them
# ----------------------------------------------------------------------
class _Role(enum.Enum):
    """The slot a fleet occupies; cutover rotates them."""

    WARMING = "warming"
    SERVING = "serving"
    RETIRING = "retiring"


class _WorkerState:
    """Parent-side ledger for one w-core: replica cell + batch log, and
    the transport handle of the w-core currently realizing it."""

    def __init__(
        self, worker_id: WorkerId, cell: Mapping[int, int], fleet: "_Fleet"
    ) -> None:
        self.worker_id = worker_id
        #: The fleet this worker belongs to — its role says whether
        #: the worker is warming, serving, or draining pre-cutover work.
        self.fleet = fleet
        #: The replica's object cell: initial contents plus every
        #: acknowledged update — the state a respawn restarts from.
        self.cell: dict[int, int] = dict(cell)
        #: Dispatched-but-unacknowledged batches, in seq order.
        self.unacked: dict[int, tuple] = {}
        #: Transport-clock send stamp per in-flight batch (feeds traces
        #: and the stall watchdog).
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
        #: True once a graceful stop message has been queued (retiring
        #: workers are stopped exactly once).
        self.stop_sent = False
        self.next_seq = 0
        self.respawns = 0
        self.failed: str | None = None
        #: The transport's handle (None until first spawned); it stays
        #: after the w-core is gone, retired, until a respawn replaces it.
        self.handle = None

    def alive(self, transport) -> bool:
        return self.handle is not None and transport.alive(self.handle)

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


class _Fleet:
    """One shape, realized: its config, router, batcher and worker
    ledgers, and which slot it occupies.

    A warming fleet routes against ``NULL_TELEMETRY`` (dual-fed updates
    must not double-count) and adopts the live handle at cutover.  The
    last four fields are the in-flight shape change's bookkeeping, read
    while the fleet is warming (``deadline`` bounds the warm phase,
    ``fault`` is the first warming fault seen — a worker death or error
    report, turned into a rollback by the next ``advance``) or retiring
    (``deadline`` is when drained stragglers are killed); ``since`` is
    when that phase began and ``event`` the audit record it reports to.
    """

    __slots__ = (
        "config", "router", "batcher", "workers", "role", "generation",
        "layer_columns", "event", "since", "deadline", "fault",
    )

    def __init__(
        self,
        config: MPRConfig,
        objects: Mapping[int, int],
        batch_size: int,
        role: _Role,
        *,
        telemetry: Telemetry,
        admission=None,
    ) -> None:
        self.config = config
        self.router = MPRRouter(config, telemetry=telemetry)
        self.batcher = RouteBatcher(
            self.router, batch_size, telemetry=telemetry, admission=admission
        )
        self.workers: dict[WorkerId, _WorkerState] = {
            worker_id: _WorkerState(worker_id, cell, self)
            for worker_id, cell in self.router.preload_objects(objects).items()
        }
        self.role = role
        #: Shape generation: 0 at start, +1 per cutover.
        self.generation = 0
        #: Per-layer ``((layer, col), ...)`` tuples — every query routed
        #: to a layer shares the same column set, so cache it.
        self.layer_columns: dict[int, tuple[tuple[int, int], ...]] = {}
        self.event: ReconfigEvent | None = None
        self.since = self.deadline = 0.0
        self.fault: str | None = None


class _Reconfigurer:
    """The warm → cutover → retire machine over the pool's fleets.

    Holds the three slots — ``current`` (serving), ``warming`` (the
    half-built replacement of one in-flight shape change) and
    ``retiring`` (the previous shape, finishing its in-flight work) —
    and is the only code that moves a fleet between them.  The old
    shape's state is never touched while warming, so rollback is a pure
    discard of the warming fleet.  ``spawn(state)``, ``send(state,
    ops)``, ``respawn(state)``, ``flush()`` and ``reap_stalled(state,
    now) -> bool`` are the pool's supervisor operations; ``objects`` is
    its submit-time ledger, read when a new shape is cut from it.
    """

    def __init__(
        self, transport, fleet: _Fleet, objects: Mapping[int, int], *,
        spawn, send, respawn, flush, reap_stalled,
        resilience, metrics, telemetry: Telemetry,
    ) -> None:
        self._transport, self._objects = transport, objects
        self._spawn, self._send, self._respawn = spawn, send, respawn
        self._flush, self._reap_stalled = flush, reap_stalled
        self._resilience, self._metrics = resilience, metrics
        self._telemetry = telemetry
        self.current = fleet
        self.warming: _Fleet | None = None
        self.retiring: _Fleet | None = None
        self._retire_timeout = 0.0
        #: Audit log of every reconfiguration attempt (completed,
        #: rolled back, and rejected alike), oldest first.
        self.history: list[ReconfigEvent] = []
        #: Trips after repeated rolled-back transitions; while open,
        #: ``begin`` rejects instead of churning workers.
        self._breaker = CircuitBreaker(ResilienceConfig(
            breaker_failures=2, backoff_base=5.0, backoff_factor=2.0,
            backoff_max=60.0,
        ))

    def owing(self) -> Iterator[_WorkerState]:
        """Every worker that may still owe an answer: the serving
        fleet's, then the retiring fleet's."""
        yield from self.current.workers.values()
        if self.retiring is not None:
            yield from self.retiring.workers.values()

    def begin(
        self,
        new_config: MPRConfig,
        trigger: str,
        warm_timeout: float,
        retire_timeout: float,
    ) -> ReconfigEvent:
        """Start warming ``new_config`` (see
        ``ProcessPoolService.begin_reconfigure``, the public face)."""
        now = self._transport.now()
        if new_config == self.current.config:
            self._reject(new_config, trigger, "target equals the current shape")
        if self.warming is not None:
            self._reject(
                new_config, trigger, "a transition is already in flight"
            )
        if self.retiring is not None:
            self._reap_retiring(now)
        if self.retiring is not None:
            self._reject(
                new_config, trigger, "the previous shape is still retiring"
            )
        if not self._breaker.allow(now):
            self._reject(
                new_config, trigger,
                "reconfiguration breaker open after repeated rollbacks",
            )
        event = ReconfigEvent(
            started_at=_time.time(),
            old_config=self.current.config,
            new_config=new_config,
            trigger=trigger,
        )
        warming = self.warming = _Fleet(
            new_config, dict(self._objects),
            self.current.batcher.batch_size, _Role.WARMING,
            telemetry=NULL_TELEMETRY,
        )
        warming.event, warming.since = event, now
        warming.deadline = now + warm_timeout
        self._retire_timeout = retire_timeout
        self.history.append(event)
        self._telemetry.count("reconfig.attempts")
        try:
            for state in warming.workers.values():
                self._spawn(state)
                self._send(state, ())  # the probe: seq 0, no ops
        except Exception as exc:  # pragma: no cover - spawn failure
            self.rollback(f"spawn failed: {exc!r}")
            raise
        return event

    def _reject(self, new_config: MPRConfig, trigger: str, reason: str) -> None:
        wall = _time.time()
        self.history.append(ReconfigEvent(
            started_at=wall,
            old_config=self.current.config,
            new_config=new_config,
            trigger=trigger,
            outcome="rejected",
            reason=reason,
            finished_at=wall,
        ))
        self._telemetry.count("reconfig.rejected")
        raise ReconfigRejected(reason)

    def feed(self, task) -> None:
        """Dual-feed one update to the warming shape's cells.

        The warming batcher buffers like the serving one; full batches
        dispatch immediately, partial ones are flushed at cutover.
        Because each worker inbox is FCFS, every catch-up batch is
        applied before any post-cutover batch reaches the same worker —
        the new cells are exactly the ledger state at cutover.
        """
        warming = self.warming
        _route, ready = warming.batcher.add(task)
        warming.event.catchup_ops += 1
        for worker_id, ops in ready:
            self._send(warming.workers[worker_id], ops)

    def advance(self, now: float) -> None:
        """One supervision step of the state machine.

        Called from the submit and drain paths whenever a warming or a
        retiring fleet exists (one branch otherwise): detects warming
        faults (→ rollback), performs the cutover once every probe is
        acked, enforces the warm deadline, and progresses retirement.
        """
        warming = self.warming
        if warming is not None:
            if warming.fault is None:
                for state in warming.workers.values():
                    if not state.alive(self._transport):
                        warming.fault = (
                            f"worker {state.worker_id} died while warming"
                        )
                        break
            if warming.fault is not None:
                self.rollback(warming.fault)
            elif all(
                0 not in state.unacked for state in warming.workers.values()
            ):
                # Every probe acked: spawn + graph attach + cell load
                # proven end to end.  Catch-up batches may still be in
                # flight — per-worker FCFS guarantees they apply before
                # anything the new shape is sent after the swap.
                self._cutover(now)
            elif now >= warming.deadline:
                self.rollback(
                    "warm phase timed out before every probe was acked"
                )
        if self.retiring is not None:
            self._check_retiring(now)

    def _cutover(self, now: float) -> None:
        """Rotate the fleets — atomic from the router's perspective.

        Both batchers are flushed first so every buffered op is
        dispatched under the shape that routed it; then the slots
        rotate in one supervisor step (no query can be routed to a
        retiring cell afterwards), the generation counter bumps, and
        the old fleet finishes its in-flight work as ``retiring``.
        """
        old, new = self.current, self.warming
        event = new.event
        self._flush()
        for worker_id, ops in new.batcher.flush():
            self._send(new.workers[worker_id], ops)
        for state in old.workers.values():
            if state.quarantined:
                # Quarantined batches die with the shape: their queries
                # resolve via the stale-generation degrade path, their
                # updates are already in the ledger the new cells
                # loaded.  So does whatever was dispatched to the
                # breaker-open worker since: replayed alone, against a
                # cell the quarantined updates never reached, it would
                # answer from a state no serial order produces.
                state.quarantined.clear()
                state.unacked.clear()
                state.sent_at.clear()
        event.inflight_at_cutover = sum(
            len(state.unacked) for state in old.workers.values()
        )
        old.role, old.event, old.since = _Role.RETIRING, event, now
        old.deadline = now + self._retire_timeout
        new.role, new.generation = _Role.SERVING, old.generation + 1
        new.router.adopt_telemetry(self._telemetry)
        new.batcher.adopt_telemetry(self._telemetry)
        # Worker ids are reused by the new shape: breaker state and
        # admission debt earned by the old fleet must not bleed onto
        # same-id successors.  Retiring acks skip both ledgers (gated
        # by role), so clearing cannot go negative.
        new.batcher.admission = self._resilience.admission
        self._resilience.clear_breakers()
        self._resilience.admission.outstanding.clear()
        self.retiring, self.current, self.warming = old, new, None
        self._breaker.record_success()
        event.outcome = "completed"
        event.finished_at = _time.time()
        event.generation = new.generation
        event.phases["warm"] = now - new.since
        self._metrics.reconfigurations += 1
        self._telemetry.count("reconfig.completed")
        if event.catchup_ops:
            self._telemetry.count("reconfig.catchup_ops", event.catchup_ops)
        self._telemetry.record("reconfig.warm", now - new.since, start=new.since)

    def rollback(self, reason: str, *, feed_breaker: bool = True) -> None:
        """Discard the half-built shape, keep the old one.

        The serving shape was never touched — no slot rotated, no old
        worker was stopped — so rollback is a pure discard of the
        warming fleet.  Feeds the reconfiguration circuit breaker
        (unless the rollback is administrative, e.g. pool close).
        No-op without a warming fleet.
        """
        warming, transport = self.warming, self._transport
        if warming is None:
            return
        self.warming = None
        started = [
            state.handle for state in warming.workers.values()
            if state.handle is not None
        ]
        for handle in started:
            if transport.alive(handle):
                transport.kill(handle)
        for handle in started:
            transport.join(handle, 1.0)
            transport.retire(handle)
        now = transport.now()
        event = warming.event
        event.outcome = "rolled_back"
        event.reason = reason
        event.finished_at = _time.time()
        event.phases["warm"] = now - warming.since
        self._metrics.reconfig_rollbacks += 1
        self._telemetry.count("reconfig.rollbacks")
        if feed_breaker and self._breaker.record_failure(now):
            self._telemetry.count("reconfig.breaker_open")

    def _check_retiring(self, now: float) -> None:
        """Progress the retiring fleet toward zero.

        A retiring worker that still owes pre-cutover answers is kept
        (and respawned breaker-free if it dies, stall-killed if it goes
        silent) until its unacked log drains; a drained worker gets one
        graceful stop, then a kill past the retire deadline.  When the
        last one exits, the retire phase duration is recorded on the
        owning event.
        """
        retiring, transport = self.retiring, self._transport
        for state in list(retiring.workers.values()):
            alive = state.alive(transport)
            if state.unacked:
                # Breaker-free and budget-free by design: after the
                # cutover the breaker and admission keys belong to the
                # new shape's same-id workers.
                if not alive or self._reap_stalled(state, now):
                    self._respawn(state)
            elif not alive:
                if state.handle is not None:
                    transport.join(state.handle, 1.0)
                    transport.retire(state.handle)
                del retiring.workers[state.worker_id]
            elif not state.stop_sent:
                transport.send(state.handle, _STOP)
                state.stop_sent = True
            elif now >= retiring.deadline:
                transport.kill(state.handle)
                transport.join(state.handle, 1.0)
        if not retiring.workers:
            self.retiring = None
            retiring.event.phases["retire"] = now - retiring.since
            self._telemetry.record(
                "reconfig.retire", now - retiring.since, start=retiring.since
            )

    def _reap_retiring(self, now: float) -> None:
        """Stop and reap a drained retiring fleet before a new transition.

        Retirement otherwise progresses only from submit and drain, so
        workers that owe nothing may not have been told to stop yet, or
        not have exited (a thread worker needs the GIL to).  Workers
        still owing pre-cutover answers are left alone.
        """
        self._check_retiring(now)  # stop the drained, reap the exited
        if self.retiring is not None:
            for state in self.retiring.workers.values():
                if state.stop_sent and not state.unacked:
                    self._transport.join(state.handle, 1.0)
            self._check_retiring(now)
