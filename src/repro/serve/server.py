"""The asyncio TCP server multiplexing clients onto one MPRSystem.

One event loop owns the sockets; one :class:`~repro.mpr.api.MPRSystem`
completion pump owns the executor.  Between them sits a single global
scheduler: every admitted op lands in a per-tenant
:class:`~repro.serve.fairness.WeightedFairQueue`, and a dispatcher
task releases work into :meth:`MPRSystem.submit_async` under a global
in-flight bound.  The pieces:

* **backpressure** — a connection with ``window`` unanswered ops stops
  being *read*; bytes accumulate in the kernel socket buffer until TCP
  flow control pushes back on the client.  The server never buffers an
  unbounded frame backlog for a slow or flooding client, and a slow
  *reader* only throttles itself: completions release the global
  in-flight token **before** writing the response, so a client that
  stops reading responses cannot pin executor capacity.  The pump
  thread parks outcomes and wakes the loop once per burst; one flush
  answers them all with one socket write per connection, and a
  connection's ops leave its window at once — unless its transport is
  above the high-water mark, in which case they leave after one
  ``drain()``, so a reader that has stopped reading is not read further.
* **deadline propagation** — a frame's ``deadline`` (seconds) becomes
  ``QueryTask.deadline`` verbatim, arming the resilience layer's
  hedged reads and deadline-miss accounting for exactly the SLO the
  client asked for.
* **admission verdicts as protocol errors** — a shed or timed-out
  query leaves the executor as a ``QueryResult`` with a retryable
  status and leaves the server as an ``error`` frame with
  ``retryable: true`` and a ``retry_after`` backoff hint scaled by
  current queue depth; the envelope rides along so clients still see
  the typed status.
* **fairness** — tenants are declared in the ``hello`` frame; the WFQ
  keeps a hog tenant's backlog behind its own virtual clock while
  light tenants' ops jump ahead (weights respected over any busy
  interval).  Weights bind only while dispatch tokens are the
  contended resource: with more tokens than the connections' windows
  can fill, the queue never holds a backlog and a tenant's share is
  its window.
* **subscriptions** — a ``subscribe`` op registers a standing query;
  after any update completes, standing queries re-evaluate through the
  same scheduler and changed answers are pushed (pushes bypass the
  request window — they are the server's own traffic, not the
  client's).

Shutdown answers everything: queued-but-undispatched ops fail with
retryable errors, dispatched ops get their drain's verdict, and only
then do connections see ``bye``.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import itertools
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

from ..mpr.api import MPRSystem
from ..mpr.results import QueryResult, ResultStatus
from ..objects.tasks import DeleteTask, InsertTask, QueryTask, Task, TaskKind
from .fairness import WeightedFairQueue
from .protocol import (
    PROTOCOL_VERSION,
    FrameError,
    encode_frame,
    read_frame,
)

__all__ = ["MPRServer", "ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Server-side knobs (the wire protocol itself is not configurable)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read MPRServer.address after start()
    #: Default per-connection backpressure window (unanswered ops).
    window: int = 32
    #: Hard cap on the window a ``hello`` frame may request.
    max_window: int = 1024
    #: Global bound on ops concurrently inside the completion pump
    #: (the dispatch tokens).  Tenant weights only take effect while
    #: these are exhausted: saturating tenants weighted 4:2:1 complete
    #: 4:2:1 at 4 tokens and 1:1:1 at the default, where no backlog
    #: ever forms in the fair queue.
    max_inflight: int = 512
    #: Base of the ``retry_after`` hint; scaled by relative queue depth.
    retry_after_base: float = 0.05
    #: Seconds stop() waits for dispatched ops before closing sockets.
    shutdown_grace: float = 10.0
    #: Default deadline stamped on queries that don't carry one.
    default_deadline: float | None = None


@dataclass
class _Job:
    """One admitted op traversing scheduler → pump → response writer."""

    connection: "_Connection"
    request_id: Any
    task: Task
    tenant: str
    subscription: "_Subscription | None" = None  # set for re-evaluations


@dataclass
class _Subscription:
    sub_id: int
    location: int
    k: int
    deadline: float | None
    last_key: tuple | None = None  # last pushed (status, neighbors)
    active: bool = True


class _Connection:
    """Per-connection state: identity, window, drain lock, subs."""

    _ids = itertools.count(1)

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        config: ServeConfig,
    ) -> None:
        self.id = next(self._ids)
        self.reader = reader
        self.writer = writer
        self.tenant = f"conn-{self.id}"
        self.weight = 1.0
        self.window = config.window
        self.inflight = 0
        self.below_window = asyncio.Event()
        self.below_window.set()
        self.write_lock = asyncio.Lock()
        self.subscriptions: dict[int, _Subscription] = {}
        self._sub_ids = itertools.count(1)
        self.closed = False

    def op_started(self) -> None:
        self.inflight += 1
        if self.inflight >= self.window:
            self.below_window.clear()

    def op_finished(self, ops: int = 1) -> None:
        self.inflight -= ops
        if self.inflight < self.window:
            self.below_window.set()

    async def send(self, payload: dict[str, Any]) -> None:
        """Write one frame; drops silently once the peer is gone.

        The write itself is synchronous, so frames leave a connection
        in the order they were produced, whoever produced them.
        """
        if self.closed:
            return
        self.writer.write(encode_frame(payload))
        await self.drained()

    async def drained(self) -> None:
        """Wait for the transport to fall below its low-water mark
        (one waiter at a time: the lock)."""
        try:
            async with self.write_lock:
                await self.writer.drain()
        except (ConnectionError, RuntimeError):
            self.closed = True

    async def close(self) -> None:
        self.closed = True
        for sub in self.subscriptions.values():
            sub.active = False
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class MPRServer:
    """Serve one :class:`MPRSystem` to many TCP clients.

    Usage::

        server = MPRServer(system, ServeConfig(port=0))
        await server.start()
        host, port = server.address
        ...
        await server.stop()

    ``stop()`` does not close the system — ownership stays with the
    caller (the CLI closes both; tests reuse the system across
    servers).
    """

    def __init__(
        self, system: MPRSystem, config: ServeConfig | None = None
    ) -> None:
        self.system = system
        self.config = config or ServeConfig()
        self.counters: dict[str, int] = {
            "connections": 0,
            "queries": 0,
            "updates": 0,
            "results": 0,
            "shed": 0,
            "retryable_errors": 0,
            "protocol_errors": 0,
            "pushes": 0,
            "subscriptions": 0,
        }
        self.tenant_completed: dict[str, int] = {}
        self._wfq = WeightedFairQueue()
        self._work = asyncio.Event()
        self._tokens: asyncio.Semaphore | None = None
        self._dispatched = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._closing = False
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._connections: set[_Connection] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Outcomes parked by the pump thread for the next flush.
        self._done: collections.deque[tuple[_Job, Future]] = (
            collections.deque()
        )
        self._flush_scheduled = False
        #: Above-high-water window releases still waiting on a drain.
        self._drains: set[asyncio.Task] = set()
        self._query_ids = itertools.count(1)
        self._reeval_scheduled = False
        #: Valid locations are ``range(_num_nodes)`` (None: unknown, so
        #: only a negative location is refused).
        self._num_nodes = system.num_nodes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MPRServer":
        self._tokens = asyncio.Semaphore(self.config.max_inflight)
        self._loop = asyncio.get_running_loop()
        self.system.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="mpr-serve-dispatch"
        )
        return self

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None and self._server.sockets
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def reconfigure(self, new_config: Any, **kwargs: Any) -> Any:
        """Change the pool's ``(x, y, z)`` live while serving.

        Awaitable wrapper over :meth:`MPRSystem.reconfigure
        <repro.mpr.api.MPRSystem.reconfigure>`: the request is enqueued
        FCFS with the RPC stream on the completion pump, and the
        blocking wait for the terminal event runs in a worker thread so
        the event loop keeps accepting connections throughout.  Returns
        the :class:`~repro.mpr.reconfig.ReconfigEvent`.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(self.system.reconfigure, new_config, **kwargs)
        )

    async def stop(self) -> None:
        """Graceful: answer or fail every accepted op, then close."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Fail everything still queued behind the fairness scheduler —
        # retryable, because the query never reached the executor.
        for _tenant, job in self._wfq.drain():
            self._fail_job(
                job,
                QueryResult.timed_out(
                    getattr(job.task, "query_id", -1), "server shutting down"
                ),
            )
        self._work.set()  # unblock the dispatcher so it can exit
        if self._dispatcher is not None:
            await self._dispatcher
        # Dispatched ops resolve through the pump; give them the grace
        # window, then close regardless (the pump's own drain timeout
        # bounds how stale they can be).
        try:
            await asyncio.wait_for(
                self._idle.wait(), self.config.shutdown_grace
            )
        except asyncio.TimeoutError:
            pass
        self._flush_done()  # whatever the pump parked meanwhile
        for task in list(self._drains):
            task.cancel()
        for connection in list(self._connections):
            await connection.send({"op": "bye"})
            await connection.close()
        self._connections.clear()

    # ------------------------------------------------------------------
    # Per-connection protocol loop
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer, self.config)
        self._connections.add(connection)
        self.counters["connections"] += 1
        try:
            while not self._closing and not connection.closed:
                # Backpressure: a connection at its window is not read.
                await connection.below_window.wait()
                try:
                    frame = await read_frame(reader)
                except FrameError as exc:
                    self.counters["protocol_errors"] += 1
                    await connection.send({
                        "op": "error", "code": "bad-frame",
                        "message": str(exc), "retryable": False,
                    })
                    break
                if frame is None:
                    break
                if not await self._handle_frame(connection, frame):
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            await connection.close()
            self._connections.discard(connection)

    async def _handle_frame(
        self, connection: _Connection, frame: dict[str, Any]
    ) -> bool:
        """Dispatch one frame; ``False`` ends the connection loop."""
        op = frame.get("op")
        try:
            if op == "hello":
                await self._on_hello(connection, frame)
            elif op == "query":
                self._enqueue_query(connection, frame)
            elif op in ("insert", "delete"):
                self._enqueue_update(connection, frame, op)
            elif op == "subscribe":
                await self._on_subscribe(connection, frame)
            elif op == "unsubscribe":
                await self._on_unsubscribe(connection, frame)
            elif op == "stats":
                await connection.send({
                    "op": "result", "id": frame.get("id"),
                    "result": self.stats(),
                })
            elif op == "bye":
                await connection.send({"op": "bye"})
                return False
            else:
                self.counters["protocol_errors"] += 1
                await connection.send({
                    "op": "error", "id": frame.get("id"), "code": "bad-op",
                    "message": f"unknown op {op!r}", "retryable": False,
                })
        except (KeyError, TypeError, ValueError) as exc:
            self.counters["protocol_errors"] += 1
            await connection.send({
                "op": "error", "id": frame.get("id"), "code": "bad-frame",
                "message": f"malformed {op!r} frame: {exc}",
                "retryable": False,
            })
        return True

    async def _on_hello(
        self, connection: _Connection, frame: dict[str, Any]
    ) -> None:
        tenant = frame.get("tenant")
        if tenant is not None:
            connection.tenant = str(tenant)
        weight = frame.get("weight")
        if weight is not None:
            connection.weight = float(weight)
            self._wfq.set_weight(connection.tenant, connection.weight)
        window = frame.get("window")
        if window is not None:
            connection.window = max(
                1, min(int(window), self.config.max_window)
            )
        await connection.send({
            "op": "welcome", "protocol": PROTOCOL_VERSION,
            "tenant": connection.tenant, "window": connection.window,
        })

    def _location(self, frame: dict[str, Any]) -> int:
        """A frame's ``location``, checked: an integer node of the
        served graph.  Past the last node a worker's kernel raises (and
        the worker exits); a negative one aliases a node from the end."""
        location = frame["location"]
        if (
            isinstance(location, bool)
            or not isinstance(location, int)
            or location < 0
            or (self._num_nodes is not None and location >= self._num_nodes)
        ):
            raise ValueError(
                f"location {location!r} is not a node of the served graph "
                f"(0 <= location < {self._num_nodes})"
            )
        return location

    @staticmethod
    def _k(frame: dict[str, Any]) -> int:
        k = int(frame["k"])
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return k

    def _enqueue_query(
        self, connection: _Connection, frame: dict[str, Any]
    ) -> None:
        deadline = frame.get("deadline")
        task = QueryTask(
            arrival_time=time.monotonic(),
            query_id=next(self._query_ids),
            location=self._location(frame),
            k=self._k(frame),
            deadline=(
                float(deadline) if deadline is not None
                else self.config.default_deadline
            ),
            tenant=connection.tenant,
        )
        self.counters["queries"] += 1
        self._admit(
            _Job(connection, frame["id"], task, connection.tenant)
        )

    def _enqueue_update(
        self, connection: _Connection, frame: dict[str, Any], op: str
    ) -> None:
        if op == "insert":
            task: Task = InsertTask(
                time.monotonic(), int(frame["object"]), self._location(frame)
            )
        else:
            task = DeleteTask(time.monotonic(), int(frame["object"]))
        self.counters["updates"] += 1
        self._admit(
            _Job(connection, frame["id"], task, connection.tenant)
        )

    async def _on_subscribe(
        self, connection: _Connection, frame: dict[str, Any]
    ) -> None:
        deadline = frame.get("deadline")
        sub = _Subscription(
            sub_id=next(connection._sub_ids),
            location=self._location(frame),
            k=self._k(frame),
            deadline=float(deadline) if deadline is not None else None,
        )
        connection.subscriptions[sub.sub_id] = sub
        self.counters["subscriptions"] += 1
        await connection.send({
            "op": "result", "id": frame["id"], "result": {"sub": sub.sub_id},
        })
        # Seed the standing query so the client has a baseline answer.
        self._enqueue_subscription(connection, sub)

    async def _on_unsubscribe(
        self, connection: _Connection, frame: dict[str, Any]
    ) -> None:
        sub = connection.subscriptions.pop(int(frame["sub"]), None)
        if sub is not None:
            sub.active = False
        await connection.send({
            "op": "result", "id": frame.get("id"),
            "result": {"ok": sub is not None},
        })

    # ------------------------------------------------------------------
    # Scheduler: fairness queue → pump
    # ------------------------------------------------------------------
    def _admit(self, job: _Job) -> None:
        if job.subscription is None:
            job.connection.op_started()
        self._wfq.push(
            job.tenant, job,
            weight=(
                job.connection.weight
                if job.connection.tenant == job.tenant else None
            ),
        )
        self._work.set()

    async def _dispatch_loop(self) -> None:
        assert self._tokens is not None
        while True:
            await self._work.wait()
            if not self._wfq:
                if self._closing:
                    return
                self._work.clear()
                continue
            await self._tokens.acquire()
            if not self._wfq:  # raced with shutdown drain
                self._tokens.release()
                continue
            _tenant, job = self._wfq.pop()
            self._dispatched += 1
            self._idle.clear()
            try:
                future = self.system.submit_async(job.task)
            except Exception as exc:
                self._tokens.release()
                self._op_done()
                self._fail_job(
                    job,
                    QueryResult.failed(
                        getattr(job.task, "query_id", -1), str(exc)
                    ),
                )
                continue
            future.add_done_callback(functools.partial(self._park_done, job))

    def _op_done(self) -> None:
        self._dispatched -= 1
        if self._dispatched == 0:
            self._idle.set()

    def _park_done(self, job: _Job, future: Future) -> None:
        """Pump thread: park one outcome; wake the loop once per burst.

        The flag is cleared at the top of the flush, before the deque
        is emptied, so an outcome parked behind a scheduled flush is
        either seen by it or schedules the next one.
        """
        self._done.append((job, future))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            try:
                self._loop.call_soon_threadsafe(self._flush_done)
            except RuntimeError:  # loop closed: the server is gone
                pass

    def _flush_done(self) -> None:
        """Loop thread: answer every parked outcome, one socket write
        per connection."""
        self._flush_scheduled = False
        bursts: dict[_Connection, list] = {}
        while self._done:
            job, future = self._done.popleft()
            # Release executor capacity BEFORE talking to the client: a
            # slow reader must only throttle itself, never the pump.
            self._tokens.release()
            self._op_done()
            error: Exception | None = None
            try:
                result = future.result()
            except Exception as exc:
                if job.task.kind is TaskKind.QUERY:
                    result = QueryResult.failed(job.task.query_id, str(exc))
                else:
                    result, error = None, exc
            burst = bursts.setdefault(job.connection, [[], 0])
            frame = self._encode_outcome(job, result, error)
            if frame is not None:
                burst[0].append(frame)
            if job.subscription is None:
                burst[1] += 1
        for connection, (frames, ops) in bursts.items():
            self._write_burst(connection, frames, ops)

    def _encode_outcome(
        self,
        job: _Job,
        result: QueryResult | None,
        error: Exception | None = None,
    ) -> bytes | None:
        """Account one outcome and encode its frame: a ``push`` (None
        when the standing answer is unchanged), a query's ``result`` or
        retryable ``error``, or an update's ack — or, for an update the
        pool raised ``error`` on, a non-retryable ``error``: ``rejected``
        when the router refused it (a ``KeyError``: insert of a live
        object, delete of an unknown one), ``error`` when the pool
        failed under it.  Only an applied update re-evaluates the
        subscriptions."""
        sub = job.subscription
        if sub is not None:
            if not sub.active or job.connection.closed:
                return None
            key = (result.status.value, result.neighbors)
            if key == sub.last_key:
                return None  # unchanged answer: no push
            sub.last_key = key
            self.counters["pushes"] += 1
            return encode_frame({
                "op": "push", "sub": sub.sub_id, "result": result.to_wire(),
            })
        if job.task.kind is not TaskKind.QUERY:
            if error is not None:
                rejected = isinstance(error, KeyError)
                # A KeyError's str() is its message's repr, quotes included.
                cause = error.args[0] if rejected and error.args else error
                return encode_frame({
                    "op": "error", "id": job.request_id,
                    "code": "rejected" if rejected else "error",
                    "message": str(cause), "retryable": False,
                })
            if not self._closing:
                self._schedule_reevaluation()
            return encode_frame({
                "op": "result", "id": job.request_id, "result": {"ok": True},
            })
        self.tenant_completed[job.tenant] = (
            self.tenant_completed.get(job.tenant, 0) + 1
        )
        if result.retryable:
            if result.status is ResultStatus.OVERLOADED:
                self.counters["shed"] += 1
            self.counters["retryable_errors"] += 1
            hinted = result.with_retry_after(self._retry_after_hint())
            return encode_frame({
                "op": "error", "id": job.request_id,
                "code": hinted.status.value,
                "message": hinted.detail or "retryable; see retry_after",
                "retryable": True,
                "retry_after": hinted.retry_after,
                "result": hinted.to_wire(),
            })
        self.counters["results"] += 1
        return encode_frame({
            "op": "result", "id": job.request_id, "result": result.to_wire(),
        })

    def _write_burst(
        self, connection: _Connection, frames: list[bytes], ops: int
    ) -> None:
        """One socket write for ``frames``; ``ops`` requests then leave
        the connection's window — at once, or, with the transport above
        its high-water mark, after one ``drain()``: a reader that has
        stopped reading keeps its window full and is not read further.
        """
        if frames and not connection.closed:
            connection.writer.write(b"".join(frames))
        transport = connection.writer.transport
        if (
            connection.closed
            or transport.get_write_buffer_size()
            <= transport.get_write_buffer_limits()[1]
        ):
            connection.op_finished(ops)
            return
        task = asyncio.create_task(self._release_after_drain(connection, ops))
        self._drains.add(task)
        task.add_done_callback(self._drains.discard)

    @staticmethod
    async def _release_after_drain(connection: _Connection, ops: int) -> None:
        try:
            await connection.drained()
        finally:
            connection.op_finished(ops)

    def _retry_after_hint(self) -> float:
        """Backoff scaled by how far behind the scheduler is."""
        depth = len(self._wfq) + self._dispatched
        return self.config.retry_after_base * (
            1.0 + depth / max(1, self.config.max_inflight)
        )

    def _fail_job(self, job: _Job, result: QueryResult) -> None:
        if job.subscription is not None:
            return  # standing queries just miss one re-evaluation
        if job.task.kind is TaskKind.QUERY:
            frame = self._encode_outcome(job, result)
        else:
            frame = encode_frame({
                "op": "error", "id": job.request_id, "code": "timeout",
                "message": result.detail or "server shutting down",
                "retryable": True,
                "retry_after": self.config.retry_after_base,
            })
        self._write_burst(job.connection, [frame], 1)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def _schedule_reevaluation(self) -> None:
        """Debounced: one re-evaluation sweep per completed update burst."""
        if self._reeval_scheduled:
            return
        self._reeval_scheduled = True
        asyncio.get_running_loop().call_soon(self._run_reevaluation)

    def _run_reevaluation(self) -> None:
        self._reeval_scheduled = False
        if self._closing:
            return
        for connection in list(self._connections):
            for sub in list(connection.subscriptions.values()):
                if sub.active:
                    self._enqueue_subscription(connection, sub)

    def _enqueue_subscription(
        self, connection: _Connection, sub: _Subscription
    ) -> None:
        task = QueryTask(
            arrival_time=time.monotonic(),
            query_id=next(self._query_ids),
            location=sub.location,
            k=sub.k,
            deadline=sub.deadline,
            tenant=connection.tenant,
        )
        self._admit(
            _Job(connection, None, task, connection.tenant, subscription=sub)
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """JSON-ready server counters + scheduler occupancy."""
        stats = {
            "counters": dict(self.counters),
            "tenants": dict(self.tenant_completed),
            "queued": len(self._wfq),
            "dispatched": self._dispatched,
            "open_connections": len(self._connections),
        }
        history = self.system.reconfig_history
        if history:
            stats["reconfigurations"] = [
                event.to_dict() for event in history
            ]
        return stats
