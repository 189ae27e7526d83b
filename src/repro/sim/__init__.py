"""Discrete-event simulation of the multicore machine."""

from .des import FCFSServer, ServiceSampler
from .inloop import InLoopResult, simulate_with_execution
from .measurement import (
    Measurement,
    find_max_throughput,
    machine_spec_from_telemetry,
    measure_response_time,
    summarize,
    synthetic_stream,
)
from .system import QueryOutcome, SimulatedMPRSystem, SystemStats

__all__ = [
    "InLoopResult",
    "simulate_with_execution",
    "FCFSServer",
    "ServiceSampler",
    "Measurement",
    "find_max_throughput",
    "machine_spec_from_telemetry",
    "measure_response_time",
    "summarize",
    "synthetic_stream",
    "QueryOutcome",
    "SimulatedMPRSystem",
    "SystemStats",
]
