"""Resilience policies: deadlines, hedged reads, shedding, breakers.

MPR's replication rows exist precisely so a query can be served when a
cell is busy or dead (Section IV-A) — this module turns that static
argument into runtime behaviour.  It is pure policy: no processes, no
clocks of its own (every method takes ``now`` explicitly so tests drive
time):

* :class:`ResilienceConfig` — the knobs: a default per-query deadline
  (SLO), the per-worker admission bound, breaker thresholds and
  exponential backoff, the stall watchdog.
* :class:`AdmissionController` — tracks outstanding work per worker
  (fed by dispatch/ack events) and decides when a query should be
  *shed* — answered ``OVERLOADED`` — instead of joining a hopeless
  backlog — the paper's "Overload" verdict enforced at runtime rather
  than only in the analytical model.
* :class:`CircuitBreaker` — per-worker crash-loop detector: after
  ``breaker_failures`` consecutive crashes the worker is declared down
  (state ``open``), its batches are quarantined, and respawn attempts
  are retried only on an exponential-backoff schedule (``half_open``
  trials) until one sticks (``closed``).

What a shed or degraded query *answers* is the pool's query ledger's to
say (:class:`~repro.mpr.results.QueryResult`: ``OVERLOADED``, ``PARTIAL``).

Disabled is a policy, not a second code path.  The pool runs one
submit → ack → drain → settle path whatever the setting and asks its :class:`ResiliencePolicy` only where a fault forces a decision: a
worker died (respawn within a budget, or breaker + quarantine), a
worker reported an execution error (raise, or poison-quarantine and
hedge/degrade), a query is admitted (arm no deadline, or the resolved
SLO).  A disabled policy has no admission bound, no stall watchdog, no
hedging and arms nothing, so the ledgers it still feeds never trigger;
``tests/test_resilience_overhead.py`` pins enabled-but-idle within 5%
of disabled, and ``tests/test_executor_equivalence.py`` pins the two
to identical answers and message counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "ResilienceConfig",
    "ResiliencePolicy",
    "RESILIENCE_COUNTERS",
]

#: Telemetry counters the resilience layer emits (see docs/API.md).
RESILIENCE_COUNTERS = (
    "resilience.hedges",
    "resilience.shed",
    "resilience.degraded",
    "resilience.breaker_open",
    "resilience.deadline_misses",
    "resilience.duplicate_acks",
    "resilience.quarantined",
    "resilience.stall_kills",
)


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs for the resilience layer (all policies optional).

    ``default_deadline`` is the per-query SLO in seconds, measured from
    ``submit()``; a :class:`~repro.objects.tasks.QueryTask` carrying its
    own ``deadline`` overrides it.  A query past its deadline is
    *hedged*: re-dispatched to a different replica row of the same
    column, first answer wins.

    ``max_outstanding`` bounds the per-worker backlog (ops dispatched
    but not acknowledged, plus ops buffered in the batcher).  A query
    whose route would push any target worker past the bound is shed
    (answered ``OVERLOADED``, carrying the backlog and this bound).
    ``None`` never sheds.

    ``breaker_failures``/``backoff_*`` drive the per-worker
    :class:`CircuitBreaker`; ``stall_timeout`` is the watchdog that
    SIGKILLs a live-but-silent worker (e.g. SIGSTOPped, or wedged in a
    syscall) whose oldest in-flight batch has seen no ack for that
    long, converting an undetectable stall into the well-understood
    crash/respawn/replay path.
    """

    default_deadline: float | None = None
    max_outstanding: int | None = None
    hedge: bool = True
    breaker_failures: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    stall_timeout: float | None = 1.0

    def __post_init__(self) -> None:
        deadline = self.default_deadline
        if deadline is not None and not (
            math.isfinite(deadline) and deadline > 0
        ):
            raise ValueError("default_deadline must be finite and positive")
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.backoff_base <= 0 or self.backoff_max <= 0:
            raise ValueError("backoff_base and backoff_max must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive")


class CircuitBreaker:
    """Crash-loop detection with exponential-backoff recovery.

    States: ``closed`` (healthy — respawn on death), ``open`` (crash
    loop — respawns suppressed until the backoff elapses), and
    ``half_open`` (backoff elapsed — exactly one trial respawn is
    allowed; success closes the breaker, another crash re-opens it with
    doubled backoff).  All transitions are driven by the caller's clock
    so tests never sleep.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = ("_config", "failures", "opens", "_state", "_retry_at")

    def __init__(self, config: ResilienceConfig) -> None:
        self._config = config
        self.failures = 0  # consecutive crashes since the last success
        self.opens = 0  # lifetime open transitions (backoff exponent)
        self._state = self.CLOSED
        self._retry_at = 0.0

    @property
    def state(self) -> str:
        return self._state

    @property
    def retry_at(self) -> float:
        """Monotonic time of the next half-open trial (``open`` only)."""
        return self._retry_at

    def backoff(self) -> float:
        """The current open-state backoff (grows per open transition)."""
        config = self._config
        exponent = max(self.opens - 1, 0)
        return min(
            config.backoff_base * config.backoff_factor**exponent,
            config.backoff_max,
        )

    def record_failure(self, now: float) -> bool:
        """Count one crash; returns True when this crash opens the breaker.

        A crash during a ``half_open`` trial re-opens immediately (the
        trial failed); in ``closed`` the breaker opens once the
        consecutive-failure threshold is reached.
        """
        self.failures += 1
        if self._state == self.HALF_OPEN or (
            self._state == self.CLOSED
            and self.failures >= self._config.breaker_failures
        ):
            self.opens += 1
            self._state = self.OPEN
            self._retry_at = now + self.backoff()
            return True
        if self._state == self.OPEN:
            # Failure observed while open (e.g. a racing death report):
            # push the retry horizon out, no new transition.
            self._retry_at = now + self.backoff()
        return False

    def record_success(self) -> None:
        """An ack arrived: the worker is serving again."""
        self.failures = 0
        self._state = self.CLOSED

    def allow(self, now: float) -> bool:
        """May the caller attempt a respawn right now?

        ``closed`` always allows; ``open`` allows only once the backoff
        has elapsed, transitioning to ``half_open`` so exactly one
        trial is in flight per backoff window.
        """
        if self._state == self.CLOSED:
            return True
        if self._state == self.OPEN and now >= self._retry_at:
            self._state = self.HALF_OPEN
            return True
        return self._state == self.HALF_OPEN


class AdmissionController:
    """Per-worker outstanding-work ledger feeding the shed decision.

    ``dispatched``/``acked`` are called by the executor on every op's
    way in and out; ``should_shed`` answers whether a query routed to
    ``workers`` would land on a backlog already at the bound.  Shedding
    considers the *maximum* backlog across the route's workers: a
    fan-out query is as slow as its slowest column, so one overloaded
    cell is enough to reject (the paper's Overload condition is likewise
    a per-core utilization bound, Section IV-C).
    """

    __slots__ = ("max_outstanding", "outstanding")

    def __init__(self, max_outstanding: int | None) -> None:
        self.max_outstanding = max_outstanding
        self.outstanding: dict[tuple[int, int, int], int] = {}

    def dispatched(
        self, workers: Iterable[tuple[int, int, int]], count: int = 1
    ) -> None:
        outstanding = self.outstanding
        for worker in workers:
            outstanding[worker] = outstanding.get(worker, 0) + count

    def acked(self, worker: tuple[int, int, int], count: int = 1) -> None:
        outstanding = self.outstanding
        remaining = outstanding.get(worker, 0) - count
        if remaining > 0:
            outstanding[worker] = remaining
        else:
            outstanding.pop(worker, None)

    def load(self, worker: tuple[int, int, int]) -> int:
        return self.outstanding.get(worker, 0)

    def should_shed(
        self, workers: Sequence[tuple[int, int, int]]
    ) -> int | None:
        """The triggering backlog if the query must be shed, else None."""
        bound = self.max_outstanding
        if bound is None:
            return None
        worst = 0
        outstanding = self.outstanding
        for worker in workers:
            load = outstanding.get(worker, 0)
            if load > worst:
                worst = load
        return worst if worst >= bound else None


class ResiliencePolicy:
    """The runtime handle an executor owns.

    Bundles the static :class:`ResilienceConfig` with the mutable
    pieces — one :class:`CircuitBreaker` per worker (lazily created)
    and one :class:`AdmissionController`.  ``enabled`` is what an
    executor reads at a fault point to pick the failure semantics;
    built from ``None`` the policy is disabled and its config is the
    inert one: no bound, no hedge, no watchdog, no deadline.
    """

    __slots__ = ("enabled", "config", "admission", "_breakers")

    def __init__(self, config: ResilienceConfig | None = None) -> None:
        self.enabled = config is not None
        self.config = (
            config if config is not None
            else ResilienceConfig(hedge=False, stall_timeout=None)
        )
        self.admission = AdmissionController(
            self.config.max_outstanding if self.enabled else None
        )
        self._breakers: dict[tuple[int, int, int], CircuitBreaker] = {}

    def breaker(self, worker: tuple[int, int, int]) -> CircuitBreaker:
        breaker = self._breakers.get(worker)
        if breaker is None:
            breaker = self._breakers[worker] = CircuitBreaker(self.config)
        return breaker

    def breakers(self) -> Mapping[tuple[int, int, int], CircuitBreaker]:
        """Breakers created so far (healthy workers may have none)."""
        return self._breakers

    def clear_breakers(self) -> None:
        """Forget all per-worker breakers.

        Called at a reconfiguration cutover: worker ids are reused by
        the new shape, so breaker state earned by retiring workers must
        not bleed onto their same-id successors.
        """
        self._breakers.clear()

    def deadline_for(self, task_deadline: float | None) -> float | None:
        """Resolve one query's SLO: task > policy.

        A disabled policy arms no deadline, whatever the task carries.
        """
        if not self.enabled:
            return None
        if task_deadline is not None:
            return task_deadline
        return self.config.default_deadline
