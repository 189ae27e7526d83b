"""Per-stage timing and counters for the executors.

The analytical model (Eq. 5) and the DES both consume per-stage
overheads — the s-core's queue-write time τ', the a-core's merge time,
the d-core's dispatch time.  The process-pool service measures those
stages on the real machine; this module is the ledger it writes into,
kept in ``repro.harness`` so mprbench and the CLI consume measured
overheads through one type.  (The model itself is fitted from the
telemetry handle, :func:`repro.sim.measurement.machine_spec_from_telemetry`,
not from this ledger.)

Stages (mirroring the paper's control cores):

* **dispatch** — routing a task and writing w-queue messages (the
  s-core/d-core work; τ' amortizes over a batch);
* **wait** — the parent blocked on the result queue (queueing +
  service time seen from the a-core's side);
* **aggregate** — merging partial results into global top-k answers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class StageTimer:
    """Accumulated wall-clock for one pipeline stage."""

    seconds: float = 0.0
    events: int = 0

    def add(self, elapsed: float, events: int = 1) -> None:
        self.seconds += elapsed
        self.events += events

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.events if self.events else 0.0


@dataclass
class PoolMetrics:
    """Counters and per-stage timings of one :class:`ProcessPoolService`.

    Counters separate *tasks* (logical work items) from *messages*
    (queue writes): their ratio is exactly the amortization batching
    buys.  ``respawns``/``batches_replayed`` count supervisor activity;
    a fault-free run leaves both at zero.  The ``hedges`` through
    ``duplicate_acks`` block counts resilience-layer activity
    (:mod:`repro.mpr.resilience`); all stay zero when the layer is
    disabled *or* the run is fault-free and under its deadlines.
    """

    tasks_submitted: int = 0
    queries_submitted: int = 0
    updates_submitted: int = 0
    batches_sent: int = 0
    ops_dispatched: int = 0
    messages_sent: int = 0
    partials_received: int = 0
    sweeps_acked: int = 0  # acks carrying query partials: one sweep each
    respawns: int = 0
    batches_replayed: int = 0
    hedges: int = 0
    shed: int = 0
    degraded: int = 0
    breaker_opens: int = 0
    stall_kills: int = 0
    batches_quarantined: int = 0
    deadline_misses: int = 0
    duplicate_acks: int = 0
    reconfigurations: int = 0
    reconfig_rollbacks: int = 0
    dispatch: StageTimer = field(default_factory=StageTimer)
    wait: StageTimer = field(default_factory=StageTimer)
    aggregate: StageTimer = field(default_factory=StageTimer)

    @contextmanager
    def timed(self, stage: str, events: int = 1) -> Iterator[None]:
        """Time a block against one of the stage timers."""
        timer: StageTimer = getattr(self, stage)
        start = time.perf_counter()
        try:
            yield
        finally:
            timer.add(time.perf_counter() - start, events)

    # -- derived quantities ---------------------------------------------
    @property
    def messages_per_task(self) -> float:
        """Queue messages per dispatched op — 1.0 without batching,
        the reciprocal of :attr:`mean_batch_size` with it."""
        if self.ops_dispatched == 0:
            return 0.0
        return self.messages_sent / self.ops_dispatched

    @property
    def mean_batch_size(self) -> float:
        if self.batches_sent == 0:
            return 0.0
        return self.ops_dispatched / self.batches_sent

    @property
    def queries_per_sweep(self) -> float:
        """Sweep fill: per-worker query executions per message that
        carried any — what the kernel's per-sweep cost is shared over."""
        if self.sweeps_acked == 0:
            return 0.0
        return self.partials_received / self.sweeps_acked

    @property
    def dispatch_seconds_per_task(self) -> float:
        """Measured per-task dispatch overhead — the batch-amortized τ'."""
        if self.ops_dispatched == 0:
            return 0.0
        return self.dispatch.seconds / self.ops_dispatched

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot (consumed by records and benchmarks)."""
        return {
            "tasks_submitted": self.tasks_submitted,
            "queries_submitted": self.queries_submitted,
            "updates_submitted": self.updates_submitted,
            "batches_sent": self.batches_sent,
            "ops_dispatched": self.ops_dispatched,
            "messages_sent": self.messages_sent,
            "partials_received": self.partials_received,
            "respawns": self.respawns,
            "batches_replayed": self.batches_replayed,
            "hedges": self.hedges,
            "shed": self.shed,
            "degraded": self.degraded,
            "breaker_opens": self.breaker_opens,
            "stall_kills": self.stall_kills,
            "batches_quarantined": self.batches_quarantined,
            "deadline_misses": self.deadline_misses,
            "duplicate_acks": self.duplicate_acks,
            "messages_per_task": self.messages_per_task,
            "mean_batch_size": self.mean_batch_size,
            "queries_per_sweep": self.queries_per_sweep,
            "dispatch_seconds": self.dispatch.seconds,
            "wait_seconds": self.wait.seconds,
            "aggregate_seconds": self.aggregate.seconds,
            "dispatch_seconds_per_task": self.dispatch_seconds_per_task,
        }
