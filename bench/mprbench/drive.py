"""Load drivers: one asyncio generator for ``serve_*``, one thread for
``pool_*``.

Both cut a continuous run into a discarded warm-up and one or more
measured phases and log raw samples; :mod:`mprbench.metrics` turns a
phase's log into numbers.  The pool driver runs in the caller's (main)
thread through the library's batch surface, so no benchmark thread ever
shares a GIL with the code under test.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.mpr import MPRSystem
from repro.objects.tasks import Task, TaskKind
from repro.serve import ServeClient, ServeError

from .host import PROBE_PERIOD, probe
from .oracle import envelope_ok
from .proc import TreeSampler
from .spec import CHUNK, WINDOWS, Workload
from .trace import Tracer

now = time.perf_counter


@dataclass
class PhaseLog:
    """Raw samples of one measured phase (times are ``perf_counter``)."""

    start: float
    end: float
    traced: bool
    #: (completion time, ms) per statistical unit: query, or pool chunk.
    rq: list[tuple[float, float]] = field(default_factory=list)
    update: list[tuple[float, float]] = field(default_factory=list)
    #: (completion time, OK operations completed then).
    done: list[tuple[float, int]] = field(default_factory=list)
    ops: int = 0  # operations begun in the phase
    attempted: int = 0  # queries begun in the phase
    #: (completion time, ms, queries) of those answered OK, for the limit.
    answered: list[tuple[float, float, int]] = field(default_factory=list)
    failed: int = 0  # operations of any kind that failed
    late_ms: list[float] = field(default_factory=list)
    #: (time, parent, workers, client) CPU seconds at window boundaries.
    cpu: list[tuple[float, float, float, float]] = field(default_factory=list)
    pss_mb: list[float] = field(default_factory=list)
    polls: list[dict[str, Any]] = field(default_factory=list)
    #: (time, CPU-ms of the host-speed probe), about twenty a second.
    probes: list[tuple[float, float]] = field(default_factory=list)
    span: int | None = None


class Recorder:
    """Files samples under the phase their timestamp falls into.

    An operation counts as *attempted* in the phase it began in (its due
    time on the open loop, its send time on the closed ones) and as
    *completed* in the phase it finished in.
    """

    def __init__(
        self, epoch: float, warmup: float,
        phases: Sequence[tuple[float, bool]],
    ) -> None:
        self.logs: list[PhaseLog] = []
        start = epoch + warmup
        for seconds, traced in phases:
            self.logs.append(PhaseLog(start, start + seconds, traced))
            start += seconds
        self.end = start

    def at(self, when: float) -> PhaseLog | None:
        for log in self.logs:
            if log.start <= when < log.end:
                return log
        return None

    def trace(self, when: float, tracer: Tracer) -> PhaseLog | None:
        """Switch ``tracer`` on or off for the phase ``when`` falls into,
        opening that phase's span on first entry; returns the phase."""
        log = self.at(when)
        tracer.enabled = log is not None and log.traced
        if tracer.enabled and log.span is None:
            log.span = tracer.open()
        return log

    def close(self, tracer: Tracer) -> None:
        tracer.enabled = False
        for log in self.logs:
            if log.span is not None:
                tracer.span("phase", log.start, log.end, span_id=log.span)

    def op(self, is_query: bool, begin: float, end: float, ok: bool) -> None:
        """One served operation."""
        ms = (end - begin) * 1e3
        begun = self.at(begin)
        if begun is not None:
            begun.ops += 1
            if is_query:
                begun.attempted += 1
                if ok:
                    begun.answered.append((end, ms, 1))
            begun.failed += not ok
        finished = self.at(end)
        if finished is not None and ok:
            (finished.rq if is_query else finished.update).append((end, ms))
            finished.done.append((end, 1))

    def chunk(
        self, begin: float, end: float, queries: int, ok_queries: int,
        updates: int,
    ) -> None:
        """One ``run_results`` chunk; every query in it waited ``ms``."""
        ms = (end - begin) * 1e3
        begun = self.at(begin)
        if begun is not None:
            begun.ops += queries + updates
            begun.attempted += queries
            begun.answered.append((end, ms, ok_queries))
            begun.failed += queries - ok_queries
        finished = self.at(end)
        if finished is not None:
            finished.rq.append((end, ms))
            if updates:
                finished.update.append((end, ms))
            finished.done.append((end, ok_queries + updates))


class Boundaries:
    """Window boundaries of every phase, in time order, for sampling."""

    def __init__(self, logs: Sequence[PhaseLog]) -> None:
        self._due: list[tuple[float, PhaseLog]] = [
            (log.start + (log.end - log.start) * index / WINDOWS, log)
            for log in logs for index in range(WINDOWS + 1)
        ]
        self._last_pss = 0.0

    @property
    def next_due(self) -> float:
        return self._due[0][0] if self._due else float("inf")

    def sample(
        self, sampler: TreeSampler, client_cpu: float, tracer: Tracer,
    ) -> PhaseLog:
        """Take the sample that is due: CPU always, memory at most at 1 Hz."""
        _, log = self._due.pop(0)
        when = now()
        parent, workers = sampler.cpu()
        log.cpu.append((when, parent, workers, client_cpu))
        if when - self._last_pss >= 0.9:
            self._last_pss = when
            log.pss_mb.append(sampler.pss())
        if tracer.enabled:
            tracer.event("cpu", when, {
                "parent_s": parent, "workers_s": workers,
                "client_s": client_cpu,
            })
        return log


# ----------------------------------------------------------------------
# serve_*: one asyncio loop, two connections
# ----------------------------------------------------------------------
def _connection_of(task: Task) -> int:
    """All updates ride connection 0 in stream order, with a quarter of
    the queries, so that the 2:1 mix loads both connections alike."""
    if task.kind is not TaskKind.QUERY:
        return 0
    return 0 if task.query_id % 4 == 0 else 1


def _replaying(tasks: Sequence[Task]) -> Iterator[Task]:
    """The stream, then its queries again under fresh ids for as long as
    asked; updates never replay (the fleet's moves are not idempotent)."""
    yield from tasks
    queries = [task for task in tasks if task.kind is TaskKind.QUERY]
    fresh = max((task.query_id for task in queries), default=0) + 1
    while queries:
        for task in queries:
            yield dataclasses.replace(task, query_id=fresh)
            fresh += 1


async def drive_served(
    workload: Workload,
    tasks: Sequence[Task],
    port: int,
    sampler: TreeSampler,
    warmup: float,
    phases: Sequence[tuple[float, bool]],
    tracer: Tracer,
    after: Callable[[Sequence[ServeClient], int], Any],
    outstanding: int = 16,
) -> tuple[list[PhaseLog], Any]:
    """Drive a served target; returns the phase logs and ``after``'s
    result.  ``after(clients, updates_applied)`` runs once the load has
    quiesced, before the connections close (the end-state oracle)."""
    clients = [
        await ServeClient.connect("127.0.0.1", port) for _ in range(2)
    ]
    epoch = now() + 0.05
    recorder = Recorder(epoch, warmup, phases)
    boundaries = Boundaries(recorder.logs)
    updates_sent = 0

    async def call(task: Task, begin: float, request: int) -> None:
        client = clients[_connection_of(task)]
        log = recorder.trace(begin, tracer)
        sent = now()
        try:
            if task.kind is TaskKind.QUERY:
                ok = envelope_ok(await client.query(task.location, task.k))
            elif task.kind is TaskKind.INSERT:
                await client.insert(task.object_id, task.location)
                ok = True
            else:
                await client.delete(task.object_id)
                ok = True
        except ServeError:
            ok = False
        end = now()
        recorder.op(task.kind is TaskKind.QUERY, begin, end, ok)
        if log is not None and log.span is not None:
            tracer.span(
                f"client.{task.kind.value}", sent, end, request=request,
                parent=log.span,
            )

    async def open_loop() -> None:
        nonlocal updates_sent
        pending: set[asyncio.Task] = set()
        for request, task in enumerate(tasks):
            due = epoch + task.arrival_time
            if due >= recorder.end:
                break
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            log = recorder.at(due)
            if log is not None:
                log.late_ms.append((now() - due) * 1e3)
            updates_sent += task.kind is not TaskKind.QUERY
            job = asyncio.ensure_future(call(task, due, request))
            pending.add(job)
            job.add_done_callback(pending.discard)
        if pending:
            await asyncio.wait(pending)

    async def closed_loop() -> None:
        nonlocal updates_sent
        streams = [
            _replaying([t for t in tasks if _connection_of(t) == index])
            for index in range(2)
        ]
        requests = itertools.count()

        async def caller(stream: Iterator[Task]) -> None:
            nonlocal updates_sent
            while now() < recorder.end:
                task = next(stream)
                updates_sent += task.kind is not TaskKind.QUERY
                await call(task, now(), next(requests))

        await asyncio.gather(*(
            caller(stream) for stream in streams for _ in range(outstanding)
        ))

    async def sample_loop() -> None:
        last_poll = 0.0
        while boundaries.next_due < float("inf"):
            delay = boundaries.next_due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            log = boundaries.sample(sampler, time.process_time(), tracer)
            if log.traced and now() - last_poll >= 0.9:
                last_poll = now()
                poll = await clients[1].stats()
                log.polls.append(poll)
                tracer.event("stats", last_poll, poll)

    async def probe_loop() -> None:
        while now() < recorder.end:
            await asyncio.sleep(PROBE_PERIOD)
            log = recorder.at(now())
            if log is not None:
                log.probes.append((now(), probe()))

    try:
        load = open_loop() if workload.drive == "open" else closed_loop()
        await asyncio.gather(load, sample_loop(), probe_loop())
        recorder.close(tracer)
        return recorder.logs, await after(clients, updates_sent)
    finally:
        for client in clients:
            await client.aclose()


# ----------------------------------------------------------------------
# pool_*: the caller's thread, the batch surface
# ----------------------------------------------------------------------
def drive_pool(
    workload: Workload,
    tasks: Sequence[Task],
    system: MPRSystem,
    sampler: TreeSampler,
    warmup: float,
    phases: Sequence[tuple[float, bool]],
    tracer: Tracer,
    submitted: list[Task],
    sampled: dict[int, tuple],
) -> list[PhaseLog]:
    """One caller issuing ``run_results`` chunks back to back.

    Appends every submitted task to ``submitted`` and every
    ``oracle_stride``-th query's neighbors to ``sampled`` for the
    replay oracle.
    """
    recorder = Recorder(now(), warmup, phases)
    boundaries = Boundaries(recorder.logs)
    stride = workload.oracle_stride
    stream = _replaying(tasks)
    probe_due = 0.0
    for request in itertools.count():
        chunk = list(itertools.islice(stream, CHUNK))
        begin = now()
        if begin >= recorder.end:
            break
        if begin >= boundaries.next_due:
            while begin >= boundaries.next_due:
                boundaries.sample(sampler, 0.0, tracer)
            begin = now()
        log = recorder.trace(begin, tracer)
        results = system.run_results(chunk)
        end = now()
        queries = ok_queries = 0
        for task in chunk:
            if task.kind is TaskKind.QUERY:
                queries += 1
                result = results.get(task.query_id)
                if result is not None and envelope_ok(result):
                    ok_queries += 1
                    if task.query_id % stride == 0:
                        sampled[task.query_id] = result.neighbors
        recorder.chunk(begin, end, queries, ok_queries, len(chunk) - queries)
        submitted.extend(chunk)
        if end >= probe_due and log is not None:
            probe_due = end + PROBE_PERIOD
            log.probes.append((end, probe()))
        if tracer.enabled:
            tracer.span(
                "pool.chunk", begin, end, request=request, parent=log.span
            )
    while boundaries.next_due <= now():
        boundaries.sample(sampler, 0.0, tracer)
    recorder.close(tracer)
    return recorder.logs
