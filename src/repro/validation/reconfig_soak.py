"""Reconfiguration soak: automatic shape changes under a live stream.

The standing validation harness checks that the Eq. 5/7 model predicts
the pool; this gate checks that acting on the model *live* is safe.  It
runs a short non-stationary workload (query-heavy → update-heavy →
query-heavy, the paper's taxi-peak drift in miniature) through a real
:class:`~repro.mpr.process_executor.ProcessPoolService` while a
:class:`~repro.mpr.reconfig.ReconfigManager` watches the router
counters over synthetic time and triggers ``(x, y, z)`` transitions on
its own.  The run passes only when

* at least ``min_auto_changes`` transitions completed with an
  ``auto``-triggered :class:`~repro.mpr.reconfig.ReconfigEvent`,
* zero queries were dropped (every query id drained an answer),
* every answer equals the serial oracle bit-for-bit, and
* every query retained a complete telemetry trace.

Synthetic time makes the workload drift deterministic: each phase's
arrivals are folded into the manager's :class:`~repro.mpr.reconfig.
RateEstimator` as one counter delta over a fixed-width window, so the
estimated rates — and therefore the loop's decisions — do not
depend on wall-clock scheduling.  The transitions themselves still run
against real processes with real queries in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..graph.generators import grid_network
from ..knn.calibration import paper_profile
from ..knn.dijkstra_knn import DijkstraKNN
from ..mpr.analysis import MachineSpec
from ..mpr.config import MPRConfig
from ..mpr.process_executor import ProcessPoolService
from ..mpr.reconfig import RateEstimator, ReconfigManager, ReconfigPolicy
from ..mpr.results import QueryResult
from ..mpr.executor import run_serial_reference
from ..objects.tasks import DeleteTask, InsertTask, QueryTask, Task
from ..obs import Telemetry

__all__ = ["SoakReport", "run_reconfig_soak"]

#: Phase schedule: (label, queries, updates).  The counts double as the
#: synthetic arrival rates — each phase is folded into the estimator as
#: one window of ``window`` seconds, so 300 queries over a 0.01 s
#: window reads as a 30k q/s flash crowd, flipping the V-tree/BJ model
#: between its replication-heavy and partition-heavy optima.
DEFAULT_PHASES: tuple[tuple[str, int, int], ...] = (
    ("query-heavy", 300, 1),
    ("update-heavy", 10, 200),
    ("query-heavy", 300, 1),
)


@dataclass
class SoakReport:
    """Outcome of one soak run (JSON-ready via :meth:`to_dict`)."""

    phases: list[dict[str, Any]]
    transitions: list[dict[str, Any]]
    auto_changes: int
    queries: int
    answered: int
    dropped: int
    mismatches: int
    incomplete_traces: int
    transition_p50_ms: float | None
    transition_p95_ms: float | None
    inflight_at_cutover_mean: float | None
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "phases": list(self.phases),
            "transitions": list(self.transitions),
            "auto_changes": self.auto_changes,
            "queries": self.queries,
            "answered": self.answered,
            "dropped": self.dropped,
            "mismatches": self.mismatches,
            "incomplete_traces": self.incomplete_traces,
            "transition_p50_ms": self.transition_p50_ms,
            "transition_p95_ms": self.transition_p95_ms,
            "inflight_at_cutover_mean": self.inflight_at_cutover_mean,
            "violations": list(self.violations),
        }


def _percentile(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run_reconfig_soak(
    *,
    phases: Sequence[tuple[str, int, int]] = DEFAULT_PHASES,
    min_auto_changes: int = 2,
    batch_size: int = 8,
    window: float = 0.01,
    telemetry: Telemetry | None = None,
) -> SoakReport:
    """Run the soak; see the module docstring for the pass criteria.

    Each phase submits half its stream, polls the manager (so any
    transition begins with queries genuinely in flight), submits the
    rest, and drains.  Answers accumulate across phases and are
    compared against one serial reference replay of the full stream.
    """
    network = grid_network(10, 10)
    base = DijkstraKNN(network)
    objects = {i: (i * 7 + 3) % network.num_nodes for i in range(40)}
    if telemetry is None:
        telemetry = Telemetry()
    pool = ProcessPoolService(
        base, MPRConfig(2, 2, 1), objects,
        batch_size=batch_size, telemetry=telemetry,
    )
    # The decision model: V-tree/BJ on a small machine gives two far
    # apart optima — partition-heavy under updates, replication-heavy
    # under a query flood — so the drift below forces real switches.
    manager = ReconfigManager(
        pool,
        paper_profile("V-tree", "BJ"),
        MachineSpec(total_cores=5),
        policy=ReconfigPolicy(
            improvement_threshold=0.05,
            cooldown=0.0,
            recalibrate=False,
            warm_timeout=30.0,
            retire_timeout=30.0,
        ),
        estimator=RateEstimator(window=window, alpha=1.0),
    )

    tasks: list[Task] = []
    answers: dict[int, QueryResult] = {}
    phase_rows: list[dict[str, Any]] = []
    clock = 0.0
    query_id = 0
    object_id = 10_000
    live_objects = set(objects)
    now = 0.0
    try:
        pool.start()
        manager.poll(now=now)  # baseline the counter deltas
        for label, num_queries, num_updates in phases:
            phase_tasks: list[Task] = []
            total = max(num_queries + num_updates, 1)
            for position in range(total):
                make_query = (
                    position * num_queries // total
                    != (position + 1) * num_queries // total
                )
                if make_query:
                    phase_tasks.append(QueryTask(
                        clock, query_id,
                        (query_id * 37 + 5) % network.num_nodes, 5,
                    ))
                    query_id += 1
                else:
                    if position % 3 == 2 and len(live_objects) > 5:
                        victim = sorted(live_objects)[0]
                        phase_tasks.append(DeleteTask(clock, victim))
                        live_objects.discard(victim)
                    else:
                        phase_tasks.append(InsertTask(
                            clock, object_id,
                            (object_id * 13) % network.num_nodes,
                        ))
                        live_objects.add(object_id)
                        object_id += 1
                clock += 0.0001
            tasks.extend(phase_tasks)
            half = len(phase_tasks) // 2
            for task in phase_tasks[:half]:
                pool.submit(task)
            # Capture the first-half counter delta into the open window
            # (mid-window: no fold, so no decision on these counts yet),
            # then close the window — the decision fires with the first
            # half still in flight.
            manager.poll(now=now + window / 2)
            event = manager.poll(now=now + window)
            for task in phase_tasks[half:]:
                pool.submit(task)
            answers.update(pool.drain())
            # Capture and fold the second half into its own window so
            # it cannot dilute the next phase's rates; its mix equals
            # the first half's, so the fold decides nothing new.
            manager.poll(now=now + 1.5 * window)
            tail = manager.poll(now=now + 2 * window)
            if event is None:
                event = tail
            now += 2 * window
            phase_rows.append({
                "label": label,
                "queries": num_queries,
                "updates": num_updates,
                "config": [pool.config.x, pool.config.y, pool.config.z],
                "transition": event.to_dict() if event is not None else None,
            })
        history = list(pool.reconfig_history)
    finally:
        pool.close()

    oracle = run_serial_reference(base, objects, tasks)
    dropped = sum(1 for qid in oracle if qid not in answers)
    mismatches = sum(
        1
        for qid, expected in oracle.items()
        if qid in answers
        and answers[qid] != QueryResult.from_answer(qid, expected)
    )
    incomplete_traces = 0
    for qid in oracle:
        trace = telemetry.trace(qid)
        if trace is None or not trace.stage_spans("execute"):
            incomplete_traces += 1

    completed = [event for event in history if event.outcome == "completed"]
    auto_changes = sum(
        1 for event in completed if event.trigger.startswith("auto")
    )
    warm_ms = [
        event.phases["warm"] * 1e3
        for event in completed
        if "warm" in event.phases
    ]
    inflight = [
        event.inflight_at_cutover
        for event in completed
        if event.inflight_at_cutover is not None
    ]
    report = SoakReport(
        phases=phase_rows,
        transitions=[event.to_dict() for event in history],
        auto_changes=auto_changes,
        queries=len(oracle),
        answered=len(answers),
        dropped=dropped,
        mismatches=mismatches,
        incomplete_traces=incomplete_traces,
        transition_p50_ms=_percentile(warm_ms, 0.50) if warm_ms else None,
        transition_p95_ms=_percentile(warm_ms, 0.95) if warm_ms else None,
        inflight_at_cutover_mean=(
            sum(inflight) / len(inflight) if inflight else None
        ),
    )
    if auto_changes < min_auto_changes:
        report.violations.append(
            f"only {auto_changes} automatic shape changes completed "
            f"(needed {min_auto_changes}); history="
            f"{[(e.trigger, e.outcome) for e in history]}"
        )
    if dropped:
        report.violations.append(f"{dropped} queries dropped")
    if mismatches:
        report.violations.append(
            f"{mismatches} answers differ from the serial oracle"
        )
    if incomplete_traces:
        report.violations.append(
            f"{incomplete_traces} queries lack a complete trace"
        )
    rolled_back = [e for e in history if e.outcome == "rolled_back"]
    if rolled_back:
        report.violations.append(
            f"{len(rolled_back)} transitions rolled back under a "
            "fault-free soak"
        )
    return report
