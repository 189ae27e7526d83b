"""The network serving tier: asyncio front-end over one MPRSystem.

The library stops being in-process here: :class:`MPRServer` multiplexes
thousands of client connections onto one :class:`repro.mpr.MPRSystem`
through its future-returning ``submit_async`` surface, speaking the
length-prefixed JSON protocol of :mod:`repro.serve.protocol`.  Clients
use :class:`ServeClient`; per-tenant scheduling lives in
:mod:`repro.serve.fairness`.

See docs/API.md "Serving" for the wire contract.
"""

from .client import RetryableServeError, ServeClient, ServeError
from .fairness import WeightedFairQueue
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameBuffer,
    FrameError,
    encode_frame,
    read_frame,
)
from .server import MPRServer, ServeConfig

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FrameBuffer",
    "FrameError",
    "MPRServer",
    "RetryableServeError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "WeightedFairQueue",
    "encode_frame",
    "read_frame",
]
