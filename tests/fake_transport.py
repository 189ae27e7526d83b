"""An in-memory :class:`repro.mpr.transport.Transport` on virtual time.

The pool's whole protocol — seq/unacked ledger, replay, hedging,
breakers, the stall watchdog, warm → cutover → retire — runs on this
fake without a process, a thread, a descriptor or a sleep, and every
interleaving the real transports produce by accident (an ack that
never left a dying worker, one that survived it, a clogged inbox, a
silent worker) is produced here on purpose.  It models the *process*
transport; ``tests/test_transport_contract.py`` runs one body over all
three so the fake cannot drift.

A w-core is a :class:`FakeHandle`: ``inbox`` (sent, not yet executed),
``outbox`` (acks written, not yet delivered — they outlive the w-core,
as bytes in a pipe do) and ``backlog`` (what a clogged inbox kept
parent-side).  It executes by running the real
:func:`repro.mpr.transport._worker_main` over one message at a time, so
per-handle FCFS and the worker's exit rules are the real ones.

Who decides what happens next:

* the test, through the controls — :meth:`FakeTransport.run`,
  :meth:`release`, :meth:`kill`, :meth:`stall`/:meth:`resume`,
  :meth:`clog`, :meth:`advance`;
* a non-blocking ``poll(0)`` finds ready only what the test released
  ("nothing was ready yet" is always a legal schedule);
* a blocking ``poll(timeout)`` asks the seeded scheduler: it lets some
  w-cores run, unclogs some inboxes and finds a random non-empty subset
  of the handles with something written ready; with nothing written it
  forces progress, and with no progress possible virtual time advances
  by ``timeout``.

Either way a poll delivers one message per handle it found ready, read
as the result is iterated — and asserts if someone else consumed that
message in between, where a real ``recv()`` would block forever.
"""

from __future__ import annotations

import random
import threading
from collections import deque

from repro.mpr.transport import EOF, _worker_main
from repro.obs import Telemetry


class _Idle(BaseException):
    """Raised by a drained one-shot inbox to hand control back."""


class _OneShotInbox:
    """Feeds ``_worker_main`` exactly one message, then yields."""

    def __init__(self, message: tuple) -> None:
        self._message = message

    def get(self) -> tuple:
        message, self._message = self._message, None
        if message is None:
            raise _Idle
        return message


class _Outbox(deque):
    send = deque.append  # ``results.send`` of ``_worker_main``


class FakeHandle:
    """One in-memory w-core (see the module docstring)."""

    def __init__(self, solution, worker_id, stamp_timings, pid) -> None:
        self.solution, self.worker_id = solution, worker_id
        self.stamp_timings, self.pid = stamp_timings, pid
        self.inbox: deque = deque()
        self.outbox = _Outbox()
        self.backlog: deque = deque()
        self.alive = True
        self.stalled = self.clogged = self.retired = False
        #: How many of the outbox's leading messages (the EOF of a dead
        #: w-core counts as one) a poll has been allowed to see.
        self.visible = 0
        self.owner = None

    def __repr__(self) -> str:
        return f"<w-core {self.worker_id} pid={self.pid}>"


class FakeTransport:
    """Duck-typed :class:`~repro.mpr.transport.Transport` (process
    flavour: ``killable``, every w-core has a pid)."""

    killable = True

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.clock = 1000.0
        self.handles: list[FakeHandle] = []  # started, not yet retired
        self.started = 0  # w-cores ever started (the next fake pid)
        self.polls = 0
        self.closed = False

    # -- the Transport surface -----------------------------------------
    def now(self) -> float:
        return self.clock

    def start(self, solution, worker_id, stamp_timings) -> FakeHandle:
        assert not self.closed, "start() on a closed transport"
        self.started += 1
        handle = FakeHandle(solution, worker_id, stamp_timings, self.started)
        self.handles.append(handle)
        return handle

    def send(self, handle: FakeHandle, message: tuple) -> None:
        if handle.retired or not handle.alive:
            return  # EPIPE / retired inbox: dropped, never raised
        (handle.backlog if handle.clogged else handle.inbox).append(message)

    def poll(self, timeout: float):
        self.polls += 1
        assert self.polls < 1_000_000, "livelock: a million polls, no end"
        found = [handle for handle in self.handles if handle.visible]
        if timeout > 0:
            self._schedule(timeout)
            found = [handle for handle in self.handles if handle.visible]
            self.rng.shuffle(found)  # else: start order, as a selector's
        return self._deliver(found)

    def _schedule(self, timeout: float) -> None:
        rng = self.rng
        for handle in self.handles:
            if handle.clogged and rng.random() < 0.5:
                self.unclog(handle)
            if self._runnable(handle) and rng.random() < 0.7:
                self.run(handle, rng.randint(1, len(handle.inbox)))
        ready = self._ready()
        if not ready:
            # Force progress: unclog, then let one w-core run dry.
            for handle in self.handles:
                self.unclog(handle)
            runnable = [h for h in self.handles if self._runnable(h)]
            if runnable:
                self.run(rng.choice(runnable), None)
                ready = self._ready()
        if not ready:
            self.clock += timeout
        else:
            for handle in rng.sample(ready, rng.randint(1, len(ready))):
                handle.visible = max(handle.visible, 1)

    def _deliver(self, found):
        for handle in found:
            if handle.retired:
                continue
            assert handle.visible, (
                f"{handle} was found ready, but its message was consumed "
                "from under the poll that found it: recv() would block here"
            )
            handle.visible -= 1
            if handle.outbox:
                yield handle, handle.outbox.popleft()
            else:
                self.retire(handle)
                yield handle, EOF

    def residue(self, handle: FakeHandle):
        while not handle.retired and (handle.outbox or not handle.alive):
            handle.visible = max(handle.visible - 1, 0)
            if handle.outbox:
                yield handle.outbox.popleft()
            else:
                self.retire(handle)
                yield EOF

    def alive(self, handle: FakeHandle) -> bool:
        return handle.alive

    def kill(self, handle: FakeHandle) -> None:
        """SIGKILL: what was not executed never will be; what was
        already written stays readable."""
        handle.alive = handle.stalled = handle.clogged = False
        handle.inbox.clear()
        handle.backlog.clear()

    def join(self, handle: FakeHandle, timeout: float) -> None:
        """Give the w-core ``timeout`` seconds: it serves its inbox (and
        so exits, if a stop is queued); if it is still up afterwards —
        no stop, or stalled — the time has passed."""
        self.unclog(handle)
        self.run(handle, None)
        if handle.alive:
            self.clock += timeout

    def pid(self, handle: FakeHandle) -> int | None:
        return None if handle.retired else handle.pid

    def retire(self, handle: FakeHandle) -> None:
        if not handle.retired:
            handle.retired, handle.alive = True, False
            handle.outbox.clear()
            handle.backlog.clear()
            self.handles.remove(handle)

    def close(self, timeout: float = 0.0) -> None:
        for handle in list(self.handles):
            self.kill(handle)
            self.retire(handle)
        self.closed = True

    # -- controls (the test's half of the schedule) --------------------
    def _runnable(self, handle: FakeHandle) -> bool:
        return handle.alive and not handle.stalled and bool(handle.inbox)

    def _ready(self) -> list[FakeHandle]:
        return [h for h in self.handles if h.outbox or not h.alive]

    def run(self, handle: FakeHandle, count: int | None = 1) -> None:
        """Let ``handle`` execute up to ``count`` inbox messages (None:
        until its inbox is empty or it exits)."""
        while self._runnable(handle) and (count is None or count > 0):
            if count is not None:
                count -= 1
            inbox = _OneShotInbox(handle.inbox.popleft())
            try:
                _worker_main(
                    handle.solution, handle.worker_id, inbox, handle.outbox,
                    handle.stamp_timings,
                )
            except _Idle:
                continue
            handle.alive = False  # stop, error or protocol guard: exited
            handle.inbox.clear()

    def release(self, handle: FakeHandle) -> None:
        """Let polls see one more of what ``handle`` has written (its
        EOF included, once it is dead)."""
        written = len(handle.outbox) + (not handle.alive)
        handle.visible = min(handle.visible + 1, written)

    def stall(self, handle: FakeHandle) -> None:
        """SIGSTOP: alive, silent."""
        if handle.alive:
            handle.stalled = True

    def resume(self, handle: FakeHandle) -> None:
        handle.stalled = False

    def clog(self, handle: FakeHandle) -> None:
        """The inbox pipe is full: sends wait parent-side from now on."""
        if handle.alive:
            handle.clogged = True

    def unclog(self, handle: FakeHandle) -> None:
        """The w-core made room: the backlog goes through, in order."""
        handle.clogged = False
        handle.inbox.extend(handle.backlog)
        handle.backlog.clear()

    def advance(self, seconds: float) -> None:
        self.clock += seconds


class CountingTelemetry(Telemetry):
    """An enabled :class:`~repro.obs.Telemetry` that counts how often
    its lock is taken (``locked``): every record, count, trace open and
    read is one acquisition, so this is the parent's bookkeeping cost in
    calls."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.locked = 0
        self._lock = self  # the context manager below, around a real lock
        self._real_lock = threading.Lock()

    def __enter__(self) -> None:
        self._real_lock.acquire()
        self.locked += 1

    def __exit__(self, *exc_info) -> None:
        self._real_lock.release()
