"""The serving tier: protocol, fairness, and server/client end-to-end.

No pytest-asyncio in the toolchain, so every async scenario drives its
own event loop via ``asyncio.run`` inside a synchronous test.  The
e2e tests bind an ephemeral localhost port per test.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import time
from concurrent.futures import Future

import pytest

from repro.graph import grid_network
from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    MPRSystem,
    QueryResult,
    ResilienceConfig,
    ResultStatus,
)
from repro.knn.base import KNNSolution, Neighbor
from repro.serve import (
    FrameError,
    MPRServer,
    ServeClient,
    ServeConfig,
    WeightedFairQueue,
    encode_frame,
    read_frame,
)
from repro.serve.client import RetryableServeError, ServeError
from tests.conftest import place_objects

CONFIG = MPRConfig(2, 1, 1)


def make_system(small_grid, grid_objects, *, resilience=None, **options):
    return MPRSystem(
        CONFIG, DijkstraKNN(small_grid), grid_objects,
        resilience=resilience, **options,
    )


async def start_server(system, **overrides):
    server = MPRServer(system, ServeConfig(port=0, **overrides))
    await server.start()
    return server


# ----------------------------------------------------------------------
# QueryResult envelope: wire round-trip shared byte-for-byte
# ----------------------------------------------------------------------
def test_query_result_round_trips_every_status() -> None:
    samples = [
        QueryResult(1, ResultStatus.OK, neighbors=(Neighbor(1.5, 7),)),
        QueryResult(
            2, ResultStatus.PARTIAL,
            neighbors=(Neighbor(0.5, 3),), missing_columns=((0, 1),),
        ),
        QueryResult(3, ResultStatus.OVERLOADED, outstanding=9, bound=4,
                    retry_after=0.25),
        QueryResult(4, ResultStatus.TIMEOUT, detail="drain expired"),
        QueryResult(5, ResultStatus.ERROR, detail="poison"),
    ]
    for result in samples:
        assert QueryResult.from_wire(result.to_wire()) == result
        # Canonical JSON: the wire bytes are deterministic.
        assert encode_frame(result.to_wire()) == encode_frame(
            QueryResult.from_wire(result.to_wire()).to_wire()
        )


def test_from_answer_is_the_ok_envelope() -> None:
    """``from_answer`` is the plain OK constructor (the ledger's, and
    mprbench's): a complete neighbour list in, ``OK`` out, no ladder."""
    ok = QueryResult.from_answer(7, [Neighbor(1.0, 2)])
    assert ok == QueryResult(7, ResultStatus.OK, (Neighbor(1.0, 2),))
    assert ok.ok and not ok.retryable
    assert QueryResult.from_answer(8, []).status is ResultStatus.OK


@pytest.mark.parametrize("payload", [
    None,
    [],
    "ok",
    {"status": "ok"},  # no query_id
    {"query_id": 1},  # no status
    {"query_id": "x", "status": "ok"},
    {"query_id": 1, "status": "fine"},
    {"query_id": 1, "status": "ok", "neighbors": [[1.0]]},
    {"query_id": 1, "status": "ok", "neighbors": [[1.0, 2, 3]]},
    {"query_id": 1, "status": "ok", "neighbors": [["far", 2]]},
    {"query_id": 1, "status": "ok", "neighbors": 5},
    {"query_id": 1, "status": "partial", "missing_columns": [[0]]},
    {"query_id": 1, "status": "partial", "missing_columns": [0, 1]},
    {"query_id": 1, "status": "overloaded", "outstanding": "9", "bound": 4},
    {"query_id": 1, "status": "overloaded", "outstanding": 9, "bound": [4]},
    {"query_id": 1, "status": "overloaded", "outstanding": True, "bound": 4},
    {"query_id": 1, "status": "overloaded", "retry_after": "soon"},
    {"query_id": 1, "status": "error", "detail": 5},
])
def test_from_wire_rejects_every_malformed_field(payload) -> None:
    """The payload is outside input: whatever is wrong with it, the one
    exception callers have to handle is ``ValueError``."""
    with pytest.raises(ValueError, match="malformed result payload"):
        QueryResult.from_wire(payload)


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def test_frame_round_trip_and_errors() -> None:
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"op": "query", "id": 1}))
        frame = await read_frame(reader)
        assert frame == {"op": "query", "id": 1}
        # clean EOF between frames -> None
        reader.feed_eof()
        assert await read_frame(reader) is None

        bad = asyncio.StreamReader()
        bad.feed_data(b"\x00\x00\x00\x05notjs")
        with pytest.raises(FrameError, match="not valid JSON"):
            await read_frame(bad)

        oversized = asyncio.StreamReader()
        oversized.feed_data(b"\xff\xff\xff\xff")
        with pytest.raises(FrameError, match="exceeds"):
            await read_frame(oversized)

        truncated = asyncio.StreamReader()
        truncated.feed_data(b"\x00\x00\x00\x10{\"op\":")
        truncated.feed_eof()
        with pytest.raises(FrameError, match="mid-frame"):
            await read_frame(truncated)

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Weighted fairness (unit)
# ----------------------------------------------------------------------
def test_wfq_interleaves_a_hog_with_a_light_tenant() -> None:
    wfq = WeightedFairQueue()
    for i in range(10):
        wfq.push("hog", f"hog-{i}")
    for i in range(3):
        wfq.push("light", f"light-{i}")
    order = [wfq.pop() for _ in range(len(wfq))]
    # All three light items are served within the first 8 pops even
    # though ten hog items arrived first.
    light_positions = [
        pos for pos, (tenant, _) in enumerate(order) if tenant == "light"
    ]
    assert max(light_positions) < 8


def test_wfq_respects_weights_over_a_busy_interval() -> None:
    wfq = WeightedFairQueue()
    wfq.set_weight("heavy", 3.0)
    wfq.set_weight("light", 1.0)
    for i in range(30):
        wfq.push("heavy", i)
        wfq.push("light", i)
    first = [wfq.pop()[0] for _ in range(20)]
    heavy_share = first.count("heavy")
    # 3:1 weights -> ~15 of the first 20; allow slack for tag ties.
    assert heavy_share >= 12


def test_wfq_rejects_bad_weight() -> None:
    with pytest.raises(ValueError):
        WeightedFairQueue().set_weight("t", 0.0)


# ----------------------------------------------------------------------
# End-to-end: query/update/subscribe over TCP
# ----------------------------------------------------------------------
def test_serve_query_update_subscribe(small_grid, grid_objects) -> None:
    async def scenario():
        system = make_system(small_grid, grid_objects)
        server = await start_server(system)
        host, port = server.address
        try:
            client = await ServeClient.connect(host, port, tenant="t0")
            result = await client.query(5, 3)
            assert result.status is ResultStatus.OK
            assert len(result.neighbors) == 3
            # matches the in-process answer exactly
            free_object = max(grid_objects) + 1000
            await client.insert(free_object, 5)
            after = await client.query(5, 1)
            assert after.neighbors[0].object_id == free_object

            sub = await client.subscribe(5, 1)
            baseline = await sub.next_push(timeout=10)
            assert baseline.neighbors[0].object_id == free_object
            await client.delete(free_object)
            push = await sub.next_push(timeout=10)
            assert push.neighbors[0].object_id != free_object
            await sub.cancel()

            stats = await client.stats()
            assert stats["counters"]["queries"] >= 2
            await client.aclose()
        finally:
            await server.stop()
            system.close()

    asyncio.run(scenario())


def test_serve_deadline_propagates_to_query_task(
    small_grid, grid_objects
) -> None:
    """Client deadline → QueryTask.deadline → resilience miss counters."""

    async def scenario():
        system = make_system(
            small_grid, grid_objects,
            resilience=ResilienceConfig(default_deadline=30.0),
        )
        server = await start_server(system)
        host, port = server.address
        try:
            client = await ServeClient.connect(host, port)
            # An SLO no executor can meet: every query misses it, which
            # is only possible if the client's deadline reached
            # QueryTask.deadline (the 30s server default never misses).
            for _ in range(5):
                result = await client.query(5, 3, deadline=1e-9)
                assert result.status is ResultStatus.OK
            misses = system.telemetry.counters.get(
                "resilience.deadline_misses", 0
            )
            assert misses >= 5
            # Control: a lenient explicit deadline adds no misses.
            await client.query(5, 3, deadline=30.0)
            assert system.telemetry.counters.get(
                "resilience.deadline_misses", 0
            ) == misses
            await client.aclose()
        finally:
            await server.stop()
            system.close()

    asyncio.run(scenario())


def test_serve_overloaded_round_trip_is_retryable(
    small_grid, grid_objects
) -> None:
    async def scenario():
        system = make_system(
            small_grid, grid_objects,
            resilience=ResilienceConfig(max_outstanding=1),
        )
        server = await start_server(system, max_inflight=256)
        host, port = server.address
        try:
            client = await ServeClient.connect(
                host, port, tenant="burst", window=256
            )
            results = await asyncio.gather(
                *(client.query(5, 3) for _ in range(80))
            )
            statuses = {result.status for result in results}
            assert ResultStatus.OVERLOADED in statuses, (
                "a 1-deep admission bound must shed part of an 80-query "
                "burst"
            )
            assert ResultStatus.OK in statuses
            shed = [
                r for r in results if r.status is ResultStatus.OVERLOADED
            ]
            for result in shed:
                assert result.retryable
                assert result.retry_after is not None  # backoff hint
                assert result.bound == 1
            # Wire-level: those envelopes travelled as retryable errors.
            assert server.counters["retryable_errors"] >= len(shed)
            assert server.counters["shed"] >= len(shed)
            assert system.telemetry.counters.get("resilience.shed", 0) > 0

            # And the retry path converges once the burst is over.
            settled = await client.query(5, 3, retries=5)
            assert settled.status is ResultStatus.OK
            await client.aclose()
        finally:
            await server.stop()
            system.close()

    asyncio.run(scenario())


def test_serve_backpressure_slow_reader_does_not_starve_others(
    small_grid, grid_objects
) -> None:
    """A client that floods queries and never reads responses stalls
    only itself: its window stops the server reading its frames, and a
    well-behaved client on the same server stays fast."""

    async def scenario():
        system = make_system(small_grid, grid_objects)
        server = await start_server(system, window=4)
        host, port = server.address
        try:
            reader, writer = await asyncio.open_connection(host, port)
            # No hello: defaults apply (window=4).  Flood 100 query
            # frames and never read a byte of response.
            for i in range(100):
                writer.write(encode_frame(
                    {"op": "query", "id": i, "location": 5, "k": 3}
                ))
            await writer.drain()

            good = await ServeClient.connect(host, port, tenant="good")
            started = time.monotonic()
            result = await asyncio.wait_for(good.query(5, 3), timeout=10)
            elapsed = time.monotonic() - started
            assert result.status is ResultStatus.OK
            assert elapsed < 5.0
            # The slow reader's backlog is bounded by its window, not
            # its flood: the server has read at most window + a few
            # frames, everything else sits in socket buffers.
            assert server.stats()["queued"] <= 8
            await good.aclose()
            writer.close()
        finally:
            await server.stop()
            system.close()

    asyncio.run(scenario())


class _ThrottledSolution(KNNSolution):
    """Delegates to a real solution, adding a fixed per-query cost so
    scheduling order becomes observable in completion order."""

    def __init__(self, inner: KNNSolution, delay: float) -> None:
        self._inner = inner
        self._delay = delay

    def query(self, location: int, k: int):
        time.sleep(self._delay)
        return self._inner.query(location, k)

    def insert(self, object_id: int, location: int) -> None:
        self._inner.insert(object_id, location)

    def delete(self, object_id: int) -> None:
        self._inner.delete(object_id)

    def spawn(self, objects):
        return _ThrottledSolution(self._inner.spawn(objects), self._delay)

    def object_locations(self):
        return self._inner.object_locations()


def test_serve_fairness_hog_cannot_starve_light_tenant(
    small_grid, grid_objects
) -> None:
    async def scenario():
        # ~4ms per query + max_inflight=1 serializes the executor:
        # scheduling order is fully visible in completion order.
        system = MPRSystem(
            CONFIG,
            _ThrottledSolution(DijkstraKNN(small_grid), 0.004),
            grid_objects,
        )
        server = await start_server(system, max_inflight=1)
        host, port = server.address
        try:
            hog = await ServeClient.connect(
                host, port, tenant="hog", window=512
            )
            light = await ServeClient.connect(host, port, tenant="light")
            hog_futures = [
                asyncio.ensure_future(hog.query(5, 3)) for _ in range(60)
            ]
            await asyncio.sleep(0.05)  # hog's backlog is queued first
            for _ in range(5):
                result = await asyncio.wait_for(
                    light.query(5, 3), timeout=30
                )
                assert result.status is ResultStatus.OK
            # The light tenant finished all 5 while most of the hog's
            # backlog was still queued: SFQ interleaved ~1:1 rather
            # than draining the 60-deep FIFO first.
            assert server.tenant_completed.get("light", 0) == 5
            assert server.tenant_completed.get("hog", 0) < 50
            await asyncio.gather(*hog_futures)
            await hog.aclose()
            await light.aclose()
        finally:
            await server.stop()
            system.close()

    asyncio.run(scenario())


def test_serve_clean_shutdown_answers_or_fails_in_flight(
    small_grid, grid_objects
) -> None:
    async def scenario(**overrides):
        system = make_system(small_grid, grid_objects)
        server = await start_server(system, **overrides)
        host, port = server.address
        client = await ServeClient.connect(host, port, window=256)
        futures = [
            asyncio.ensure_future(client.query(5, 3)) for _ in range(30)
        ]
        await asyncio.sleep(0.02)
        await asyncio.wait_for(server.stop(), timeout=30)
        outcomes = await asyncio.wait_for(
            asyncio.gather(*futures, return_exceptions=True), timeout=30
        )
        answered = sum(
            1 for o in outcomes
            if isinstance(o, QueryResult) and o.status is ResultStatus.OK
        )
        failed_retryable = sum(
            1 for o in outcomes
            if isinstance(o, QueryResult) and o.retryable
        )
        errored = sum(1 for o in outcomes if isinstance(o, Exception))
        # Every single RPC settled (no hangs), each one either answered
        # or failed with a retryable verdict / closed-connection error.
        assert answered + failed_retryable + errored == 30
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                assert isinstance(
                    outcome, (ServeError, RetryableServeError,
                              asyncio.IncompleteReadError, ConnectionError)
                )
        await client.aclose()
        system.close()

    # Queued behind two tokens (most of the 30 fail retryable), and with
    # the default 512 (all 30 dispatched: stop() must answer whatever
    # the pump has parked for the next flush before it says bye).
    asyncio.run(scenario(max_inflight=2))
    asyncio.run(scenario())


class _ManualSystem:
    """Stands in for MPRSystem: ``submit_async`` hands out futures the
    test resolves itself, so the order and grouping of outcomes — what
    one flush of the front door sees — is under the test's control."""

    reconfig_history: list = []
    num_nodes = None

    def __init__(self) -> None:
        self.submitted: list[tuple] = []

    def start(self) -> None:
        pass

    def submit_async(self, task):
        future: Future = Future()
        self.submitted.append((task, future))
        return future

    async def futures(self, count: int) -> list[tuple]:
        for _ in range(500):
            if len(self.submitted) >= count:
                return self.submitted
            await asyncio.sleep(0.01)
        raise AssertionError(f"only {len(self.submitted)} ops dispatched")


def _ok(task, object_id: int) -> QueryResult:
    return QueryResult(
        task.query_id, ResultStatus.OK, neighbors=(Neighbor(1.0, object_id),)
    )


def test_serve_frames_leave_in_outcome_order_one_write_per_burst() -> None:
    """Results, retryable errors, pushes, update acks and control
    replies reach a connection in the order their outcomes were
    produced (not the order of the requests), and everything one flush
    answers for a connection leaves in a single socket write."""

    async def scenario():
        system = _ManualSystem()
        # The insert re-evaluates the subscription; that op is never
        # resolved, so stop() is not to wait for it.
        server = await start_server(system, shutdown_grace=0.2)
        reader, writer = await asyncio.open_connection(*server.address)

        async def roundtrip(payload):
            writer.write(encode_frame(payload))
            return await asyncio.wait_for(read_frame(reader), timeout=10)

        try:
            welcome = await roundtrip({"op": "hello", "tenant": "t"})
            assert welcome["op"] == "welcome"
            subscribed = await roundtrip(
                {"op": "subscribe", "id": 1, "location": 5, "k": 1}
            )
            assert subscribed["result"] == {"sub": 1}
            for frame in (
                {"op": "query", "id": 2, "location": 5, "k": 1},
                {"op": "query", "id": 3, "location": 6, "k": 1},
                {"op": "insert", "id": 4, "object": 99, "location": 5},
            ):
                writer.write(encode_frame(frame))
            (seed, f_seed), (q2, f2), (q3, f3), (_, f4) = (
                await system.futures(4)
            )
            (connection,) = server._connections
            writes: list[bytes] = []
            transport_write = connection.writer.write
            connection.writer.write = lambda data: (
                writes.append(data), transport_write(data)
            )
            # One burst, produced in an order unlike the request order.
            f4.set_result(None)
            f3.set_result(QueryResult(
                q3.query_id, ResultStatus.OVERLOADED, outstanding=9, bound=4,
            ))
            f_seed.set_result(_ok(seed, 7))
            f2.set_result(_ok(q2, 8))
            writer.write(encode_frame({"op": "stats", "id": 5}))
            frames = [
                await asyncio.wait_for(read_frame(reader), timeout=10)
                for _ in range(5)
            ]
            assert [(f["op"], f.get("id", f.get("sub"))) for f in frames] == [
                ("result", 4), ("error", 3), ("push", 1), ("result", 2),
                ("result", 5),
            ]
            assert frames[1]["retryable"] and frames[1]["code"] == "overloaded"
            assert frames[2]["result"] == _ok(seed, 7).to_wire()
            assert len(writes) == 2  # the burst of four, then the stats
            assert writes[0] == b"".join(
                encode_frame(frame) for frame in frames[:4]
            )
            assert connection.inflight == 0
        finally:
            writer.close()
            await server.stop()

    asyncio.run(scenario())


def test_serve_closed_connection_does_not_stop_the_rest_of_a_flush() -> None:
    async def scenario():
        system = _ManualSystem()
        server = await start_server(system)
        gone_reader, gone_writer = await asyncio.open_connection(
            *server.address
        )
        reader, writer = await asyncio.open_connection(*server.address)
        try:
            gone_writer.write(encode_frame(
                {"op": "query", "id": 1, "location": 5, "k": 1}
            ))
            await system.futures(1)
            writer.write(encode_frame(
                {"op": "query", "id": 2, "location": 5, "k": 1}
            ))
            (q1, f1), (q2, f2) = await system.futures(2)
            gone_writer.close()
            for _ in range(500):
                if len(server._connections) == 1:
                    break
                await asyncio.sleep(0.01)
            assert len(server._connections) == 1
            f1.set_result(_ok(q1, 7))  # same flush, closed peer first
            f2.set_result(_ok(q2, 8))
            frame = await asyncio.wait_for(read_frame(reader), timeout=10)
            assert frame["id"] == 2
            assert frame["result"] == _ok(q2, 8).to_wire()
            assert server.stats()["dispatched"] == 0
        finally:
            writer.close()
            await server.stop()

    asyncio.run(scenario())


def test_serve_slow_reader_of_large_answers_is_bounded_by_its_window(
    small_grid,
) -> None:
    """A client that asks for large answers and never reads them fills
    the transport past its high-water mark: its ops then stay in its
    window until a ``drain()`` that never comes, so the server stops
    reading it — its write buffer is bounded by the mark plus one
    burst — while tokens were released and other clients stay fast."""
    objects = place_objects(small_grid, 400)
    high_water = 16 * 1024

    async def scenario():
        system = MPRSystem(CONFIG, DijkstraKNN(small_grid), objects)
        server = await start_server(system, window=4)
        host, port = server.address
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, (host, port))
        _reader, writer = await asyncio.open_connection(sock=sock)
        good = None
        try:
            for _ in range(500):
                if server._connections:
                    break
                await asyncio.sleep(0.01)
            (connection,) = server._connections
            transport = connection.writer.transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            transport.set_write_buffer_limits(high=high_water)
            for i in range(60):  # ~12 KiB an answer, never read
                writer.write(encode_frame(
                    {"op": "query", "id": i, "location": 5, "k": 400}
                ))
            # The kernel's buffers swallow the first bursts; wait until
            # the server has stopped reading this connection for good.
            read_so_far = -1
            for _ in range(50):
                if (
                    server.counters["queries"] == read_so_far
                    and server.stats()["dispatched"] == 0
                ):
                    break
                read_so_far = server.counters["queries"]
                await asyncio.sleep(0.3)
            assert server._drains, "the high-water mark was never reached"
            assert connection.inflight == connection.window == 4
            assert server.counters["queries"] == read_so_far < 60
            burst = 4 * 16 * 1024
            assert transport.get_write_buffer_size() <= high_water + burst
            assert server.stats()["dispatched"] == 0  # tokens are back

            good = await ServeClient.connect(host, port, tenant="good")
            started = time.monotonic()
            result = await asyncio.wait_for(good.query(5, 3), timeout=10)
            assert result.status is ResultStatus.OK
            assert time.monotonic() - started < 5.0
        finally:
            if good is not None:
                await good.aclose()
            writer.close()
            await server.stop()
            system.close()

    asyncio.run(scenario())


def test_serve_weights_hold_when_tokens_are_contended(
    small_grid, grid_objects
) -> None:
    """Tenant weights bind while dispatch tokens are the contended
    resource: with ``max_inflight=4`` three saturating tenants weighted
    4:2:1 complete in that ratio.  (At the default 512 the token pool is
    never exhausted, the fair queue never holds a backlog, and each
    tenant's share is simply its window — ROADMAP 5B(b).)"""
    weights = {"gold": 4.0, "silver": 2.0, "bronze": 1.0}

    async def saturate(client, stop):
        async def one_slot():
            while not stop.is_set():
                await client.query(5, 3)

        await asyncio.gather(*(one_slot() for _ in range(16)))

    async def scenario():
        system = make_system(small_grid, grid_objects)
        server = await start_server(system, max_inflight=4)
        host, port = server.address
        clients = [
            await ServeClient.connect(
                host, port, tenant=tenant, weight=weight, window=16
            )
            for tenant, weight in weights.items()
        ]
        stop = asyncio.Event()
        try:
            load = asyncio.gather(*(saturate(c, stop) for c in clients))
            await asyncio.sleep(0.3)  # every tenant's window is full
            before = dict(server.tenant_completed)
            await asyncio.sleep(1.5)
            after = dict(server.tenant_completed)
            stop.set()
            await asyncio.wait_for(load, timeout=30)
        finally:
            for client in clients:
                await client.aclose()
            await server.stop()
            system.close()
        return {t: after[t] - before.get(t, 0) for t in weights}

    completed = asyncio.run(scenario())
    assert min(completed.values()) >= 50, completed
    unit = sum(completed.values()) / sum(weights.values())
    for tenant, weight in weights.items():
        assert completed[tenant] == pytest.approx(weight * unit, rel=0.2), (
            completed
        )


def test_serve_rejects_malformed_frames_without_dying(
    small_grid, grid_objects
) -> None:
    async def scenario():
        system = make_system(small_grid, grid_objects)
        server = await start_server(system)
        host, port = server.address
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"op": "query"}))  # missing fields
            await writer.drain()
            frame = await read_frame(reader)
            assert frame["op"] == "error"
            assert frame["code"] == "bad-frame"
            assert frame["retryable"] is False
            # The connection survives a malformed op...
            writer.write(encode_frame({"op": "nonsense"}))
            await writer.drain()
            frame = await read_frame(reader)
            assert frame["code"] == "bad-op"
            # ...but not a corrupt frame stream.
            writer.write(b"\x00\x00\x00\x04oops")
            await writer.drain()
            frame = await read_frame(reader)
            assert frame["code"] == "bad-frame"
            writer.close()
            # And the server still serves new connections.
            client = await ServeClient.connect(host, port)
            result = await client.query(5, 3)
            assert result.status is ResultStatus.OK
            await client.aclose()
        finally:
            await server.stop()
            system.close()

    asyncio.run(scenario())


def test_serve_refuses_updates_the_pool_rejected() -> None:
    """A delete of an unknown object and an insert of a live one are
    refused as non-retryable ``rejected`` errors naming the cause — not
    acknowledged — schedule no subscription re-evaluation, and leave the
    connection answering oracle-exact."""
    network = grid_network(8, 8, seed=1)

    async def scenario():
        system = MPRSystem(MPRConfig(1, 1, 1), DijkstraKNN(network), {1: 3})
        server = await start_server(system)
        try:
            client = await ServeClient.connect(*server.address)
            subscription = await client.subscribe(5, 1)
            await subscription.next_push(timeout=10)  # the one seed query
            for call, cause in (
                (client.delete(999), "delete of unknown object 999"),
                (client.insert(1, 5), "insert of live object 1"),
            ):
                with pytest.raises(ServeError) as info:
                    await call
                assert info.value.code == "rejected", info.value.code
                assert not info.value.retryable
                assert cause in str(info.value)
            result = await client.query(5, 1)
            assert result == QueryResult.from_answer(
                result.query_id, DijkstraKNN(network, {1: 3}).query(5, 1)
            )
            # The seed and the query; a re-evaluation would be a third.
            assert system.executor.metrics.queries_submitted == 2
            await client.aclose()
        finally:
            await server.stop()
            system.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


def test_serve_refuses_a_location_outside_the_graph(
    small_grid, grid_objects
) -> None:
    """A location that is not a node of the served graph (or a negative
    ``k``) fails its one request as ``bad-frame``: it reaches no worker,
    so no worker dies of an index past the end and no negative index
    aliases a node from the end; both connections keep answering
    oracle-exact."""
    bad_frames = [
        {"op": "query", "location": 10**6, "k": 2},
        {"op": "query", "location": -5, "k": 3},
        {"op": "query", "location": small_grid.num_nodes, "k": 1},
        {"op": "query", "location": 2.5, "k": 1},
        {"op": "query", "location": 5, "k": -1},
        {"op": "insert", "object": 500, "location": -1},
        {"op": "insert", "object": 501, "location": 10**6},
        {"op": "subscribe", "location": -1, "k": 1},
    ]
    oracle = DijkstraKNN(small_grid, grid_objects)
    last = small_grid.num_nodes - 1

    async def scenario():
        system = MPRSystem(
            MPRConfig(1, 2, 1), DijkstraKNN(small_grid), grid_objects,
            mode="thread",
        )
        server = await start_server(system)
        reader, writer = await asyncio.open_connection(*server.address)
        other = await ServeClient.connect(*server.address)

        async def roundtrip(payload):
            writer.write(encode_frame(payload))
            return await asyncio.wait_for(read_frame(reader), timeout=10)

        try:
            for request_id, frame in enumerate(bad_frames, start=1):
                reply = await roundtrip(dict(frame, id=request_id))
                assert reply["op"] == "error", (frame, reply)
                assert reply["code"] == "bad-frame" and reply["id"] == request_id
                assert reply["retryable"] is False
                reply = await roundtrip(
                    {"op": "query", "id": -request_id, "location": last, "k": 3}
                )
                assert reply["op"] == "result", (frame, reply)
                result = QueryResult.from_wire(reply["result"])
                assert result == QueryResult.from_answer(
                    result.query_id, oracle.query(last, 3)
                ), frame
                result = await other.query(last, 3)
                assert result == QueryResult.from_answer(
                    result.query_id, oracle.query(last, 3)
                ), frame
            await other.aclose()
        finally:
            writer.close()
            await server.stop()
            system.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


# ----------------------------------------------------------------------
# The client against a server that sends malformed envelopes
# ----------------------------------------------------------------------
async def stub_client(respond):
    """A client connected to a stub server that says ``welcome`` and
    then answers each request frame with the frames ``respond(frame)``
    returns — whatever they are."""

    async def handle(reader, writer):
        await read_frame(reader)  # hello
        writer.write(encode_frame({"op": "welcome", "protocol": 1}))
        while (frame := await read_frame(reader)) is not None:
            if frame["op"] == "bye":
                break
            for reply in respond(frame):
                writer.write(encode_frame(reply))
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return server, await ServeClient.connect("127.0.0.1", port)


GOOD = QueryResult(0, ResultStatus.OK, (Neighbor(1.0, 2),)).to_wire()
NO_STATUS = {key: GOOD[key] for key in GOOD if key != "status"}


@pytest.mark.parametrize("bad_reply", [
    pytest.param(
        lambda frame: {"op": "result", "id": frame["id"], "result": NO_STATUS},
        id="result-without-status",
    ),
    pytest.param(
        lambda frame: {"op": "result", "id": frame["id"]}, id="result-missing",
    ),
    pytest.param(
        lambda frame: {
            "op": "error", "id": frame["id"], "code": "overloaded",
            "retryable": True, "message": "shed", "result": NO_STATUS,
        },
        id="error-with-malformed-result",
    ),
])
def test_client_maps_a_malformed_envelope_to_one_protocol_error(
    bad_reply,
) -> None:
    """The request whose envelope does not parse fails as
    ``ServeError(code="protocol")`` — not a bare ``KeyError`` — and the
    connection, the next request and ``aclose()`` all keep working."""

    def respond(frame):
        if frame["location"] == 13:
            return [bad_reply(frame)]
        return [{"op": "result", "id": frame["id"], "result": GOOD}]

    async def scenario():
        server, client = await stub_client(respond)
        async with server:
            with pytest.raises(ServeError) as info:
                await client.query(13, 1)
            assert info.value.code == "protocol"
            assert not isinstance(info.value, RetryableServeError)
            assert (await client.query(5, 1)).ok  # same connection
            await asyncio.wait_for(client.aclose(), timeout=5.0)
            assert client._writer.is_closing()

    # Bounded: at the bug these scenarios hang, they do not raise.
    asyncio.run(asyncio.wait_for(scenario(), timeout=20.0))


def test_client_drops_and_counts_a_malformed_push() -> None:
    """A push without a parseable ``result`` used to kill the reader
    task (and ``aclose()`` re-raised its ``KeyError`` before closing
    the socket); now that one push is dropped and counted."""

    def respond(frame):
        if frame["op"] == "subscribe":
            return [{"op": "result", "id": frame["id"], "result": {"sub": 1}}]
        return [
            {"op": "push", "sub": 1},
            {"op": "push", "sub": 1, "result": NO_STATUS},
            {"op": "push", "sub": 1, "result": GOOD},
            {"op": "result", "id": frame["id"], "result": GOOD},
        ]

    async def scenario():
        server, client = await stub_client(respond)
        async with server:
            subscription = await client.subscribe(5, 1)
            assert (await client.query(5, 1)).ok  # the pushes ride ahead of it
            assert client.malformed_pushes == 2
            assert (await subscription.next_push(timeout=5.0)).ok
            assert (await client.query(5, 1)).ok  # the reader is alive
            await asyncio.wait_for(client.aclose(), timeout=5.0)
            assert client._writer.is_closing()

    # Bounded: at the bug these scenarios hang, they do not raise.
    asyncio.run(asyncio.wait_for(scenario(), timeout=20.0))


# ----------------------------------------------------------------------
# Chaos while serving (process mode)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_serve_chaos_kill_column_degraded_results_reach_clients(
    small_grid, grid_objects
) -> None:
    """SIGKILL a whole partition column mid-serving: clients must keep
    getting envelopes, and once the column's breakers open the answers
    degrade to PARTIAL naming the dead column — never a hang."""

    async def scenario():
        system = MPRSystem(
            MPRConfig(2, 1, 1), DijkstraKNN(small_grid), grid_objects,
            mode="process", batch_size=4,
            resilience=ResilienceConfig(
                default_deadline=0.5, breaker_failures=1,
                backoff_base=5.0, stall_timeout=None,
            ),
            pump_drain_timeout=20.0,
        )
        server = await start_server(system)
        host, port = server.address
        try:
            client = await ServeClient.connect(host, port)
            first = await asyncio.wait_for(client.query(5, 3), timeout=60)
            assert first.status is ResultStatus.OK

            pool = system.executor
            statuses = []
            killed = False
            for round_ in range(40):
                if not killed:
                    for worker_id, pid in pool.worker_pids().items():
                        if worker_id[2] == 0:
                            os.kill(pid, signal.SIGKILL)
                    killed = True
                result = await asyncio.wait_for(
                    client.query(5, 3), timeout=60
                )
                statuses.append(result)
                if result.status is ResultStatus.PARTIAL:
                    break
                if result.status is ResultStatus.OK:
                    # respawn beat the breaker: kill again next round
                    killed = False
                await asyncio.sleep(0.05)
            partials = [
                r for r in statuses if r.status is ResultStatus.PARTIAL
            ]
            assert partials, (
                "killing column 0 repeatedly must eventually surface a "
                f"degraded PARTIAL envelope; saw {[r.status for r in statuses]}"
            )
            degraded = partials[0]
            assert degraded.missing_columns  # names the dead cells
            for _layer, column in degraded.missing_columns:
                assert column == 0
            await client.aclose()
        finally:
            await asyncio.wait_for(server.stop(), timeout=60)
            system.close()

    asyncio.run(scenario())
