"""The wire codec and the per-burst paths at both ends of the socket.

The canonical encoder against ``json.dumps`` with the protocol's
arguments, :class:`~repro.serve.protocol.FrameBuffer` against
:func:`~repro.serve.protocol.read_frame` on every split of a stream,
the server's window over a buffered read, ``ServeClient``'s one write
per loop iteration against a counting transport, and ``Neighbor``'s
tuple contract.
"""

from __future__ import annotations

import asyncio
import json
import math
import pickle
from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.knn import Neighbor
from repro.mpr import QueryResult, ResultStatus
from repro.serve import (
    FrameBuffer,
    FrameError,
    MAX_FRAME_BYTES,
    ServeClient,
    encode_frame,
    read_frame,
)
from repro.serve.protocol import encode_payload
from tests.test_serve import _ManualSystem, start_server


def reference_payload(payload) -> bytes:
    """The canonical encoding as ``json.dumps`` spells it."""
    return json.dumps(
        payload, separators=(",", ":"), sort_keys=True, allow_nan=False
    ).encode("utf-8")


# ----------------------------------------------------------------------
# The canonical encoder
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False)
neighbors = st.builds(Neighbor, finite, st.integers())
leaves = st.none() | st.booleans() | st.integers() | finite | st.text()
values = st.recursive(
    leaves | neighbors,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=5)
    ),
    max_leaves=30,
)


@given(st.dictionaries(st.text(max_size=8), values, max_size=6))
def test_encode_payload_is_the_canonical_json_dumps(payload) -> None:
    assert encode_payload(payload) == reference_payload(payload)


@given(
    st.dictionaries(st.text(max_size=8), values, max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_a_non_finite_number_is_refused(payload, number) -> None:
    payload["x"] = [1, {"deep": number}]
    with pytest.raises(ValueError):
        encode_payload(payload)
    with pytest.raises(ValueError):
        reference_payload(payload)


# ----------------------------------------------------------------------
# FrameBuffer against read_frame
# ----------------------------------------------------------------------
class ChunkReader:
    """Hands a stream out in the given pieces, one per ``read()``."""

    def __init__(self, chunks) -> None:
        self.chunks = list(chunks)

    async def read(self, size: int) -> bytes:
        assert size > 0
        return self.chunks.pop(0) if self.chunks else b""


async def by_read_frame(stream: bytes):
    """Frames until EOF, and the refusal that ended them (or None)."""
    reader = asyncio.StreamReader()
    reader.feed_data(stream)
    reader.feed_eof()
    frames = []
    try:
        while (frame := await read_frame(reader)) is not None:
            frames.append(frame)
    except FrameError as exc:
        return frames, str(exc)
    return frames, None


async def by_buffer(chunks):
    reader = ChunkReader(chunks)
    buffer = FrameBuffer()
    frames = []
    try:
        while True:
            while (frame := buffer.pop()) is not None:
                frames.append(frame)
            if not await buffer.fill(reader):
                return frames, None
    except FrameError as exc:
        return frames, str(exc)


def framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


GOOD = [
    encode_frame({"op": "query", "id": 1, "location": 5, "k": 3}),
    encode_frame({"op": "hello", "tenant": "té", "weight": 2.5}),
    encode_frame({}),
    encode_frame({"op": "result", "id": 9, "result": QueryResult(
        9, ResultStatus.OK, (Neighbor(1.5, 2), Neighbor(2.25, 7)),
    ).to_wire()}),
]

STREAMS = {
    "frames": b"".join(GOOD),
    "empty": b"",
    "oversized": GOOD[0] + (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"{}",
    "nan": GOOD[0] + framed(b'{"op":"query","deadline":NaN}'),
    "infinity": framed(b'{"weight":Infinity}') + GOOD[1],
    "minus-infinity": GOOD[2] + framed(b'{"weight":-Infinity}'),
    "not-json": GOOD[0] + framed(b"notjs"),
    "not-utf8": framed(b'{"op":"\xff"}'),
    "non-object": GOOD[1] + framed(b"[1,2]"),
    "eof-mid-prefix": GOOD[0] + b"\x00\x00",
    "eof-mid-frame": GOOD[0] + GOOD[1][:-3],
    "eof-after-prefix": GOOD[3] + GOOD[0][:4],
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_the_buffer_reads_what_read_frame_reads_at_every_split(name) -> None:
    """One split at every byte offset, the stream whole, and the stream
    a byte per read: the same frames and the same refusal text."""
    stream = STREAMS[name]

    async def scenario():
        expected = await by_read_frame(stream)
        splits = [[stream[:at], stream[at:]] for at in range(len(stream) + 1)]
        splits.append([stream[at:at + 1] for at in range(len(stream))])
        for chunks in splits:
            got = await by_buffer([chunk for chunk in chunks if chunk])
            assert got == expected, chunks
        return expected

    frames, refusal = asyncio.run(scenario())
    if name == "frames":
        assert len(frames) == len(GOOD) and refusal is None
    elif name != "empty":
        assert refusal is not None


def test_refusal_texts_name_the_cause() -> None:
    expected = {
        "oversized": "exceeds MAX_FRAME_BYTES",
        "nan": "non-finite number NaN",
        "infinity": "non-finite number Infinity",
        "minus-infinity": "non-finite number -Infinity",
        "not-json": "not valid JSON",
        "not-utf8": "not valid JSON",
        "non-object": "must be a JSON object",
        "eof-mid-prefix": "mid-length-prefix",
        "eof-mid-frame": "mid-frame",
        "eof-after-prefix": "mid-frame",
    }
    for name, text in expected.items():
        _frames, refusal = asyncio.run(by_buffer([STREAMS[name]]))
        assert text in refusal, (name, refusal)


def test_several_frames_of_one_read_parse_without_another_read() -> None:
    buffer = FrameBuffer()
    buffer.feed(b"".join(GOOD) + GOOD[0][:5])
    assert [buffer.pop() for _ in GOOD] == [
        json.loads(frame[4:]) for frame in GOOD
    ]
    assert buffer.pop() is None  # a partial frame waits for more bytes
    buffer.feed(GOOD[0][5:])
    assert buffer.pop() == json.loads(GOOD[0][4:])
    assert buffer.pop() is None


def test_an_oversized_length_is_refused_before_its_body_arrives() -> None:
    buffer = FrameBuffer()
    buffer.feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
    with pytest.raises(FrameError, match="exceeds MAX_FRAME_BYTES"):
        buffer.pop()


# ----------------------------------------------------------------------
# The server's window over a buffered read
# ----------------------------------------------------------------------
def test_a_connection_at_its_window_parses_no_further_frame() -> None:
    """Five queries arrive in one write to a connection whose window is
    two: two are admitted, and the third only once one is answered."""

    async def scenario():
        system = _ManualSystem()
        server = await start_server(system, shutdown_grace=0.2)
        reader, writer = await asyncio.open_connection(*server.address)
        try:
            writer.write(encode_frame({"op": "hello", "window": 2}))
            assert (await read_frame(reader))["window"] == 2
            writer.write(b"".join(
                encode_frame({"op": "query", "id": i, "location": 5, "k": 1})
                for i in range(5)
            ))
            (task, future), _second = await system.futures(2)
            await asyncio.sleep(0.2)
            assert len(system.submitted) == 2
            future.set_result(QueryResult.from_answer(task.query_id, []))
            assert (await read_frame(reader))["id"] == 0
            await system.futures(3)
            await asyncio.sleep(0.2)
            assert len(system.submitted) == 3
        finally:
            writer.close()
            await server.stop()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# ServeClient: one write per loop iteration, drain above high water
# ----------------------------------------------------------------------
class CountingTransport(asyncio.Transport):
    """Records every ``write``; reports a chosen buffer size."""

    def __init__(self, buffered: int = 0) -> None:
        super().__init__()
        self.writes: list[bytes] = []
        self.buffered = buffered
        self.closing = False

    def write(self, data) -> None:
        self.writes.append(bytes(data))

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def get_write_buffer_limits(self) -> tuple[int, int]:
        return (16 * 1024, 64 * 1024)

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True


def counting_client(buffered: int = 0):
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    protocol = asyncio.StreamReaderProtocol(reader)
    transport = CountingTransport(buffered)
    writer = asyncio.StreamWriter(transport, protocol, reader, loop)
    client = ServeClient(reader, writer)
    drains = []

    async def drain() -> None:
        drains.append(transport.get_write_buffer_size())

    writer.drain = drain
    return client, transport, drains


def answer(client: ServeClient, request_id: int) -> None:
    client._settle(request_id, QueryResult.from_answer(
        request_id, [Neighbor(1.0, request_id)],
    ).to_wire())


def test_queries_issued_in_one_iteration_leave_in_one_write() -> None:
    async def scenario():
        client, transport, drains = counting_client()
        queries = [
            asyncio.ensure_future(client.query(location, 1))
            for location in range(8)
        ]
        for _ in range(3):
            await asyncio.sleep(0)
        assert transport.writes == [b"".join(
            encode_frame({"op": "query", "id": i + 1, "location": i, "k": 1})
            for i in range(8)
        )]
        assert drains == []  # below the high-water mark: no drain
        for request_id in range(1, 9):
            answer(client, request_id)
        results = await asyncio.gather(*queries)
        assert [r.neighbors for r in results] == [
            (Neighbor(1.0, i),) for i in range(1, 9)
        ]
        # The next burst is the next write.
        follow = asyncio.ensure_future(client.stats())
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert len(transport.writes) == 2
        client._settle(9, {})
        await follow
        transport.close()

    asyncio.run(scenario())


def test_a_client_above_its_high_water_mark_awaits_drain() -> None:
    async def scenario():
        client, transport, drains = counting_client(buffered=65 * 1024)
        queries = [
            asyncio.ensure_future(client.query(location, 1))
            for location in range(3)
        ]
        for _ in range(3):
            await asyncio.sleep(0)
        assert drains == [65 * 1024] * 3
        assert len(transport.writes) == 1
        for request_id in range(1, 4):
            answer(client, request_id)
        await asyncio.gather(*queries)
        transport.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Neighbor: a named (distance, object_id) tuple
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(finite, st.integers(-10, 10)), max_size=30))
def test_neighbors_sort_in_distance_then_id_order(pairs) -> None:
    entries = [Neighbor(*pair) for pair in pairs]
    assert sorted(entries) == sorted(
        entries, key=attrgetter("distance", "object_id")
    )


def test_a_neighbor_hashes_equals_and_pickles_as_its_pair() -> None:
    entry = Neighbor(2.5, 7)
    assert entry == (2.5, 7) and hash(entry) == hash((2.5, 7))
    assert {entry: 1}[(2.5, 7)] == 1
    assert (entry.distance, entry.object_id) == (2.5, 7)
    thawed = pickle.loads(pickle.dumps(entry))
    assert thawed == entry and type(thawed) is Neighbor
    assert encode_payload({"n": entry}) == b'{"n":[2.5,7]}'


def test_a_result_round_trips_with_neighbor_tuples() -> None:
    result = QueryResult(
        4, ResultStatus.PARTIAL, (Neighbor(0.5, 3), Neighbor(1.0, 1)),
        missing_columns=((0, 1),),
    )
    wire = result.to_wire()
    assert wire["neighbors"] == [[0.5, 3], [1.0, 1]]
    back = QueryResult.from_wire(json.loads(encode_payload(wire)))
    assert back == result
    assert all(type(entry) is Neighbor for entry in back.neighbors)
