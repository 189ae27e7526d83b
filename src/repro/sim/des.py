"""Queueing primitives for the multicore discrete-event simulation.

The MPR system is a feed-forward queueing network: tasks flow
d-core → s-core → w-cores → a-core with no feedback, every station a
single FCFS server, and every service time determined at submission.
Under those conditions a full event calendar is unnecessary — each
server can be simulated by the classic Lindley recurrence
(``start = max(arrival, ready_at)``), provided submissions reach each
server in non-decreasing arrival order.  The system layer guarantees
that ordering (tasks are processed chronologically and the aggregator
stage is evaluated in a sorted post-pass).

This keeps the simulator fast enough, in pure Python, to sweep the
paper's 31 configurations and binary-search maximum throughput.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class FCFSServer:
    """A single FCFS server simulated via the Lindley recurrence.

    ``serve(arrival, service)`` returns the completion time and updates
    utilization accounting.  Submissions must be made in non-decreasing
    ``arrival`` order — enforced with an assertion because violating it
    silently corrupts FCFS semantics.
    """

    __slots__ = ("name", "ready_at", "busy_time", "served", "total_wait",
                 "_last_arrival")

    def __init__(self, name: str) -> None:
        self.name = name
        self.ready_at = 0.0
        self.busy_time = 0.0
        self.served = 0
        self.total_wait = 0.0
        self._last_arrival = 0.0

    def serve(self, arrival: float, service: float) -> float:
        if arrival < self._last_arrival - 1e-12:
            raise AssertionError(
                f"server {self.name}: submission at {arrival} after "
                f"{self._last_arrival} violates FCFS ordering"
            )
        self._last_arrival = arrival
        start = arrival if arrival > self.ready_at else self.ready_at
        wait = start - arrival
        done = start + service
        self.ready_at = done
        self.busy_time += service
        self.served += 1
        self.total_wait += wait
        return done

    def utilization(self, horizon: float) -> float:
        if horizon <= 0:
            return 0.0
        return self.busy_time / horizon

    def end_backlog(self, horizon: float) -> float:
        """Seconds of unfinished work queued when the run ends."""
        return max(self.ready_at - horizon, 0.0)

    def mean_wait(self) -> float:
        return self.total_wait / self.served if self.served else 0.0


@dataclass
class ServiceSampler:
    """Samples service times with a given mean and variance.

    Gamma-distributed (the standard choice for positive service times
    with a target squared coefficient of variation); degenerates to a
    constant when the variance is zero.  Deterministic given the RNG.
    """

    mean: float
    variance: float
    rng: random.Random = field(repr=False, default_factory=random.Random)

    def __post_init__(self) -> None:
        if self.mean < 0 or self.variance < 0:
            raise ValueError("mean and variance must be non-negative")
        if self.mean > 0 and self.variance > 0:
            self._shape = self.mean * self.mean / self.variance
            self._scale = self.variance / self.mean
        else:
            self._shape = 0.0
            self._scale = 0.0

    def sample(self) -> float:
        if self._shape == 0.0:
            return self.mean
        return self.rng.gammavariate(self._shape, self._scale)
