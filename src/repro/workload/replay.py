"""Paced replay: a task stream submitted at its own arrival times.

The generator (:mod:`.generator`) stamps every task with an arrival
time; :func:`replay_timed` makes a live executor experience those times
on the wall clock, so measured response times include the stream's
queueing (the validation harness's live cells use it).
"""

from __future__ import annotations

import time as _time
from typing import Sequence

from ..objects.tasks import Task


def replay_timed(executor, tasks: Sequence[Task], speed: float = 1.0):
    """Replay a stream against an executor at its real arrival times.

    ``ProcessPoolService.run`` submits as fast as the loop spins, so the pool
    never experiences the stream's λq/λu — fine for equivalence tests,
    wrong for measuring queueing behaviour.  This helper paces
    submission on the wall clock: task ``t`` is submitted no earlier
    than ``t.arrival_time / speed`` seconds after the replay starts
    (``speed > 1`` plays faster, ``< 1`` slower).  Buffered dispatch is
    flushed before every sleep so pacing gaps never add batcher fill
    latency to the measurement.

    Returns the executor's drained ``query_id -> QueryResult`` map.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    executor.start()
    origin = _time.monotonic()
    for task in tasks:
        due = origin + task.arrival_time / speed
        remaining = due - _time.monotonic()
        if remaining > 0:
            executor.flush()
            _time.sleep(remaining)
        executor.submit(task)
    executor.flush()
    return executor.drain()

