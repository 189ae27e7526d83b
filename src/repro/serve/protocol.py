"""The wire protocol: length-prefixed canonical-JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON, encoded canonically (sorted keys, no
whitespace) so a payload has exactly one byte representation — the
property that lets :meth:`repro.mpr.results.QueryResult.to_wire`
round-trip byte-for-byte between library and network.  JSON keeps the
protocol inspectable (``nc`` + a hex dump reads it); the length prefix
keeps parsing O(frame) with no delimiter scanning, and bounds memory
via :data:`MAX_FRAME_BYTES` before a byte of payload is read.

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


class FrameError(Exception):
    """A malformed frame (bad length, bad JSON, non-object payload)."""


def encode_payload(payload: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes for one payload (no length prefix)."""
    return json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """One full frame: length prefix + canonical JSON body."""
    body = encode_payload(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LENGTH.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameError` on oversized lengths, truncated bodies,
    invalid JSON, or a body that is not a JSON object.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise FrameError("connection closed mid-length-prefix") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"declared frame length {length} exceeds MAX_FRAME_BYTES"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError("frame body must be a JSON object")
    return payload


def write_frame(
    writer: asyncio.StreamWriter, payload: Mapping[str, Any]
) -> None:
    """Queue one frame on the writer (caller awaits ``drain()``)."""
    writer.write(encode_frame(payload))
