"""The asyncio client for the MPR serving protocol.

One :class:`ServeClient` owns one TCP connection and demultiplexes
responses by request id, so any number of coroutines can issue
concurrent queries over it.  Query outcomes come back as the same
typed :class:`~repro.mpr.results.QueryResult` envelope the library API
returns — a shed query is a retryable ``error`` frame on the wire, but
:meth:`ServeClient.query` folds it back into an ``OVERLOADED``
envelope carrying the server's ``retry_after`` hint (and can retry
internally with that backoff via ``retries=``).  Only *protocol*
failures — malformed frames, unknown ops, a dead connection — raise
:class:`ServeError`; an envelope ``QueryResult.from_wire`` rejects
fails its one request with ``code="protocol"`` (a push is dropped and
counted in ``ServeClient.malformed_pushes``), never the connection.

The client pays per burst, not per request: the frames its coroutines
issue in one event-loop iteration leave in one ``transport.write``
(a request still awaits ``drain()`` while the transport is above its
high-water mark), and its reader parses every complete frame of one
``read()`` before it awaits the next (a
:class:`~repro.serve.protocol.FrameBuffer`).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, AsyncIterator

from ..mpr.results import QueryResult
from .protocol import (
    PROTOCOL_VERSION,
    FrameBuffer,
    FrameError,
    encode_frame,
    read_frame,
)

__all__ = ["RetryableServeError", "ServeClient", "ServeError", "Subscription"]


class ServeError(Exception):
    """A protocol-level failure (this request cannot just be resent)."""

    def __init__(
        self,
        message: str,
        *,
        code: str = "error",
        retryable: bool = False,
        retry_after: float | None = None,
        result: QueryResult | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retryable = retryable
        self.retry_after = retry_after
        self.result = result


class RetryableServeError(ServeError):
    """A retryable verdict (``overloaded``/``timeout``) with a backoff
    hint; ``result`` carries the enveloped verdict when the query got
    as far as admission control."""


def _envelope(payload: Any) -> QueryResult:
    """Parse a server's result payload; what :meth:`QueryResult.from_wire`
    rejects is a protocol failure of that one frame."""
    try:
        return QueryResult.from_wire(payload)
    except ValueError as exc:
        raise ServeError(str(exc), code="protocol") from exc


class Subscription:
    """A standing query's push stream (async-iterable of envelopes)."""

    def __init__(self, client: "ServeClient", sub_id: int) -> None:
        self._client = client
        self.sub_id = sub_id
        self.pushes: asyncio.Queue[QueryResult] = asyncio.Queue()

    async def next_push(self, timeout: float | None = None) -> QueryResult:
        if timeout is None:
            return await self.pushes.get()
        return await asyncio.wait_for(self.pushes.get(), timeout)

    def __aiter__(self) -> AsyncIterator[QueryResult]:
        return self._iterate()

    async def _iterate(self) -> AsyncIterator[QueryResult]:
        while True:
            yield await self.pushes.get()

    async def cancel(self) -> None:
        await self._client.unsubscribe(self)


class ServeClient:
    """Connect with :meth:`connect`; close with :meth:`aclose`.

    ::

        client = await ServeClient.connect(host, port, tenant="maps")
        result = await client.query(location=42, k=8, deadline=0.05)
        assert result.ok or result.retryable
        await client.aclose()
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._subscriptions: dict[int, Subscription] = {}
        self._closed = False
        self.welcome: dict[str, Any] = {}
        self._reader_task: asyncio.Task | None = None
        #: Frames issued since the last write; the first schedules it.
        self._outbox: list[bytes] = []
        #: Push frames dropped because their envelope did not parse.
        self.malformed_pushes = 0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        tenant: str | None = None,
        weight: float | None = None,
        window: int | None = None,
    ) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        hello: dict[str, Any] = {"op": "hello", "protocol": PROTOCOL_VERSION}
        if tenant is not None:
            hello["tenant"] = tenant
        if weight is not None:
            hello["weight"] = weight
        if window is not None:
            hello["window"] = window
        writer.write(encode_frame(hello))
        await writer.drain()
        welcome = await read_frame(reader)
        if welcome is None or welcome.get("op") != "welcome":
            raise ServeError(f"expected welcome frame, got {welcome!r}")
        client.welcome = welcome
        client._reader_task = asyncio.create_task(
            client._read_loop(), name="mpr-serve-client-reader"
        )
        return client

    # ------------------------------------------------------------------
    # Demultiplexing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        error: Exception = ServeError("connection closed", code="closed")
        frames = FrameBuffer()
        try:
            while await frames.fill(self._reader):
                while (frame := frames.pop()) is not None:
                    if not self._on_frame(frame):
                        return
        except (FrameError, ConnectionError, asyncio.CancelledError) as exc:
            if not isinstance(exc, asyncio.CancelledError):
                error = ServeError(str(exc), code="closed")
        finally:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    def _on_frame(self, frame: dict[str, Any]) -> bool:
        """Route one server frame; ``False`` on ``bye``."""
        op = frame.get("op")
        if op == "result":
            self._settle(frame.get("id"), frame.get("result"))
        elif op == "error":
            self._settle_error(frame)
        elif op == "push":
            sub = self._subscriptions.get(frame.get("sub"))
            if sub is not None:
                try:
                    sub.pushes.put_nowait(_envelope(frame.get("result")))
                except ServeError:
                    self.malformed_pushes += 1
        elif op == "bye":
            return False
        return True

    def _settle(self, request_id: Any, result: Any) -> None:
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_result(result)

    def _settle_error(self, frame: dict[str, Any]) -> None:
        future = self._pending.pop(frame.get("id"), None)
        if future is None or future.done():
            return
        result = frame.get("result")
        if result is not None:
            try:
                result = _envelope(result)
            except ServeError as exc:
                future.set_exception(exc)
                return
        cls = RetryableServeError if frame.get("retryable") else ServeError
        future.set_exception(cls(
            frame.get("message", "server error"),
            code=frame.get("code", "error"),
            retryable=bool(frame.get("retryable")),
            retry_after=frame.get("retry_after"),
            result=result,
        ))

    async def _request(self, payload: dict[str, Any]) -> Any:
        if self._closed:
            raise ServeError("client is closed", code="closed")
        request_id = next(self._ids)
        payload = dict(payload, id=request_id)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[request_id] = future
        if not self._outbox:
            loop.call_soon(self._flush)
        self._outbox.append(encode_frame(payload))
        transport = self._writer.transport
        if (
            transport.get_write_buffer_size()
            > transport.get_write_buffer_limits()[1]
        ):
            await self._writer.drain()
        return await future

    def _flush(self) -> None:
        """Write every frame issued since the last flush, in one write."""
        frames, self._outbox = self._outbox, []
        if not frames or self._writer.transport.is_closing():
            return  # closing: the reader fails the pending requests
        try:
            self._writer.write(b"".join(frames))
        except (ConnectionError, RuntimeError):
            pass  # likewise

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def query(
        self,
        location: int,
        k: int,
        *,
        deadline: float | None = None,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> QueryResult:
        """One kNN query; always returns a :class:`QueryResult`.

        Retryable verdicts are retried up to ``retries`` times, waiting
        the server's ``retry_after`` hint (else ``backoff``) between
        attempts; once attempts are exhausted the retryable envelope is
        *returned*, not raised — callers branch on ``result.status``,
        exactly as with the in-process API.
        """
        payload: dict[str, Any] = {"op": "query", "location": location, "k": k}
        if deadline is not None:
            payload["deadline"] = deadline
        attempt = 0
        while True:
            try:
                return _envelope(await self._request(payload))
            except RetryableServeError as exc:
                if attempt >= retries:
                    if exc.result is not None:
                        return exc.result
                    raise
                attempt += 1
                await asyncio.sleep(
                    exc.retry_after if exc.retry_after else backoff
                )

    async def insert(self, object_id: int, location: int) -> None:
        await self._request(
            {"op": "insert", "object": object_id, "location": location}
        )

    async def delete(self, object_id: int) -> None:
        await self._request({"op": "delete", "object": object_id})

    async def subscribe(
        self, location: int, k: int, *, deadline: float | None = None
    ) -> Subscription:
        payload: dict[str, Any] = {
            "op": "subscribe", "location": location, "k": k,
        }
        if deadline is not None:
            payload["deadline"] = deadline
        result = await self._request(payload)
        subscription = Subscription(self, int(result["sub"]))
        self._subscriptions[subscription.sub_id] = subscription
        return subscription

    async def unsubscribe(self, subscription: Subscription) -> None:
        self._subscriptions.pop(subscription.sub_id, None)
        await self._request({"op": "unsubscribe", "sub": subscription.sub_id})

    async def stats(self) -> dict[str, Any]:
        return await self._request({"op": "stats"})

    async def aclose(self) -> None:
        """Best-effort ``bye``, then tear the connection down."""
        if not self._closed:
            self._closed = True
            self._outbox.append(encode_frame({"op": "bye"}))
            try:
                self._flush()
                await self._writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
