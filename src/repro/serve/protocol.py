"""The wire protocol: length-prefixed canonical-JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON, encoded canonically (sorted keys, no
whitespace) so a payload has exactly one byte representation — the
property that lets :meth:`repro.mpr.results.QueryResult.to_wire`
round-trip byte-for-byte between library and network.  JSON keeps the
protocol inspectable (``nc`` + a hex dump reads it); the length prefix
keeps parsing O(frame) with no delimiter scanning, and bounds memory
via :data:`MAX_FRAME_BYTES` before a byte of payload is read.

Both ends pay per read, not per frame: :class:`FrameBuffer` holds what
one ``read()`` returned and yields every complete frame in it, and
:func:`encode_payload` reuses one module-level encoder.  A sender
joins the frames of one burst into one ``write``.

Frame schemas (``op`` selects; unknown keys are ignored for forward
compatibility; unknown *ops* are protocol errors):

Client → server
    ``hello``       ``{op, tenant?, weight?, window?, protocol?}``
                    — optional, first frame only; names the tenant for
                    weighted fairness and proposes a backpressure
                    window.
    ``query``       ``{op, id, location, k, deadline?}`` — ``deadline``
                    in seconds propagates into ``QueryTask.deadline``.
                    ``location`` (here, in ``insert`` and in
                    ``subscribe``) must be an integer node of the
                    served graph, ``0 <= location < num_nodes``, and
                    ``k >= 0``; anything else is a ``bad-frame`` error
                    for that request.
    ``insert``      ``{op, id, object, location}``
    ``delete``      ``{op, id, object}``
    ``subscribe``   ``{op, id, location, k}`` — continuous kNN; the
                    standing query re-evaluates after updates and
                    pushes changed answers.
    ``unsubscribe`` ``{op, id, sub}``
    ``stats``       ``{op, id}``
    ``bye``         ``{op}``

Server → client
    ``welcome`` ``{op, protocol, window, tenant}`` — reply to ``hello``
                (or implicitly before the first response).
    ``result``  ``{op, id, result}`` — terminal answer for a ``query``/
                ``insert``/``delete``/``subscribe``/``stats`` request;
                for queries ``result`` is a ``QueryResult.to_wire()``
                payload.
    ``error``   ``{op, id?, code, message, retryable, retry_after?,
                result?}`` — protocol- or admission-level failure.
                Retryable errors (``code`` ``"overloaded"``/
                ``"timeout"``) carry a ``retry_after`` backoff hint in
                seconds and, when the query got as far as admission,
                the enveloped ``result``.  Non-retryable codes:
                ``"bad-frame"``, ``"bad-op"``, ``"rejected"`` (an
                ``insert`` of a live object or a ``delete`` of an
                unknown one — nothing applied; ``message`` names the
                cause) and ``"error"`` (the pool failed under an
                update).  The connection outlives each of them.
    ``push``    ``{op, sub, result}`` — subscription re-evaluation.
    ``bye``     ``{op}`` — server is closing the connection.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Mapping

__all__ = [
    "FrameBuffer",
    "FrameError",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "encode_frame",
    "encode_payload",
    "read_frame",
    "write_frame",
]

#: Bumped on any incompatible change to the frame schemas above.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's JSON body.  A 1k-neighbor result is
#: ~30 KiB; 1 MiB leaves two orders of magnitude of headroom while
#: capping what a malicious or broken peer can make us buffer.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

#: Bytes one :meth:`FrameBuffer.fill` asks the stream for.
_READ_BYTES = 1 << 16


class FrameError(Exception):
    """A malformed frame (bad length, bad JSON, non-object payload)."""


#: Built once: ``json.dumps`` with arguments builds an encoder per call.
#: These are ``json.dumps``'s own defaults plus the canonical three, so
#: the bytes are those of ``json.dumps(payload, separators=(",", ":"),
#: sort_keys=True, allow_nan=False)``.
_ENCODER = json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, allow_nan=False
)


def encode_payload(payload: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes for one payload (no length prefix).  Strict
    JSON: a non-finite number raises ``ValueError`` instead of leaving
    as a ``NaN``/``Infinity`` literal no peer may send."""
    return _ENCODER.encode(payload).encode("utf-8")


def _refuse_constant(literal: str) -> None:
    """Decoder hook for ``NaN``/``Infinity``/``-Infinity``: literals
    Python's ``json`` accepts and JSON does not."""
    raise ValueError(f"non-finite number {literal} is not JSON")


#: Built once: ``json.loads`` with a hook builds a decoder per call.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """One full frame: length prefix + canonical JSON body."""
    body = encode_payload(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LENGTH.pack(len(body)) + body


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"declared frame length {length} exceeds MAX_FRAME_BYTES"
        )


def _decode_body(body: bytes | bytearray) -> dict[str, Any]:
    """One frame's payload: a JSON object, else :class:`FrameError`."""
    try:
        payload = _DECODER.decode(body.decode("utf-8"))
    except ValueError as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError("frame body must be a JSON object")
    return payload


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameError` on oversized lengths, truncated bodies,
    invalid JSON (a ``NaN`` or ``Infinity`` literal included), or a
    body that is not a JSON object.  Reads exactly one frame's bytes,
    so a :class:`FrameBuffer` can take the stream over afterwards.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise FrameError("connection closed mid-length-prefix") from exc
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    return _decode_body(body)


class FrameBuffer:
    """The frames of a byte stream, parsed from whole reads.

    :meth:`fill` awaits one ``read()`` of up to 64 KiB;
    :meth:`pop` then returns the complete frames it holds one at a
    time, so a caller may stop between any two (a server connection at
    its window parses nothing further), and ``None`` once it needs
    more bytes.  Refusals are :func:`read_frame`'s, with its
    :class:`FrameError` texts: an oversized declared length as soon as
    its prefix is in, bad JSON or a non-object body when the frame
    completes, and an end of stream inside a prefix or a body.
    """

    __slots__ = ("_data", "_offset")

    def __init__(self) -> None:
        self._data = bytearray()
        self._offset = 0  # start of the first unparsed frame

    def feed(self, data: bytes) -> None:
        """Append bytes read off the stream."""
        if self._offset:
            del self._data[:self._offset]
            self._offset = 0
        self._data += data

    async def fill(self, reader: asyncio.StreamReader) -> bool:
        """Feed one read; ``False`` on a clean end of stream at a frame
        boundary, :class:`FrameError` on one inside a frame."""
        data = await reader.read(_READ_BYTES)
        if data:
            self.feed(data)
            return True
        left = len(self._data) - self._offset
        if not left:
            return False
        if left < _LENGTH.size:
            raise FrameError("connection closed mid-length-prefix")
        raise FrameError("connection closed mid-frame")

    def pop(self) -> dict[str, Any] | None:
        """The next complete frame's payload, or ``None``."""
        data, start = self._data, self._offset + _LENGTH.size
        if len(data) < start:
            return None
        (length,) = _LENGTH.unpack_from(data, self._offset)
        _check_length(length)
        end = start + length
        if len(data) < end:
            return None
        self._offset = end
        return _decode_body(data[start:end])


def write_frame(
    writer: asyncio.StreamWriter, payload: Mapping[str, Any]
) -> None:
    """Queue one frame on the writer (caller awaits ``drain()``)."""
    writer.write(encode_frame(payload))
