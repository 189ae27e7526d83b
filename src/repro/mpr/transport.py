"""What a w-core is made of: the one place that knows.

The paper's w-core is "a core plus its FCFS task queue" (Section IV-A)
and never says what carries the queue.  :class:`Transport` is that
carrier, sized to what the pool (:mod:`repro.mpr.process_executor`)
calls: start a w-core and get a handle, ``send`` without ever
blocking, ``poll`` what came back, read one handle's residue,
liveness/``kill``/``join``/``pid``, ``retire``, ``close``, ``now``.
Sequence numbers, the unacked log, replay and first-answer-wins are
the pool's.  Three carriers: an OS *process* (the literal
"multi-processing" of the paper's title, and the only kind that shows
wall-clock speedup under CPython's GIL); a *thread* running the same
:func:`_worker_main` over the same result pipe; and, in
``tests/fake_transport.py``, in-memory w-cores on virtual time — how
tier-1 reaches every ack/hedge/respawn/reconfigure interleaving
without a process, a thread or a sleep.

Thread workers exist for **correctness, not speed**: tests and
examples get the whole protocol without forking.  They share the
parent's memory (no graph publication, no ``KERNEL_CALLS`` delta to
fold) and cannot be signalled, so ``killable`` is False — the pool's
stall watchdog never fires for them — ``kill`` and ``close()``'s
terminate/kill rungs are just another queued stop, and a wedged thread
is abandoned (daemon) rather than reaped.  They are GIL-bound and pay
the pipe's pickling without gaining a core: against the bare
per-thread FCFS queues this mode replaced, a ``(2, 2, 1)`` DijkstraKNN
3,140-op mix on the 2-core build host moved 0.57–0.70 → 0.73–0.78
ms/op on a 32×32 grid and 2.2–2.4 → 2.8–3.0 ms/op on 96×96 (10×10 is
noise-bound, 0.14–0.43 ms/op on both sides), a zero-cost solution 11 →
49–59 μs/op.

Both directions are single-writer pipes, one pair per process worker,
rather than shared ``Queue`` objects.  A shared result queue serializes
every worker's acks through one cross-process write lock, and a worker
SIGKILLed inside that critical section leaks the semaphore forever —
deadlocking every *surviving* worker's acks (observed deterministically
in the respawn tests).  With one pipe per worker there is exactly one
writer per channel, no lock to leak, and a crash can only corrupt the
dead worker's own pipes, which the respawn replaces wholesale.  The
inbox (:class:`_PipeInbox`) is written inline by the thread that calls
``send`` — no ``mp.Queue``, so no feeder thread competing for the
parent's GIL before a batch may leave, and no read lock in the worker.
Its write end never blocks: what the 64 KiB pipe will not take waits
parent-side in FCFS byte order and is flushed by ``poll``, whose wait
set holds that write end exactly while it is clogged.  Blocking instead
would deadlock a long run against one worker — parent stuck writing the
inbox, worker stuck writing acks nobody reads, both pipes full.  The
backlog holds only bytes of batches still in the pool's ``unacked`` log
(or a stop), so death, respawn/replay, quarantine and the stall
watchdog — which keeps running because the parent never blocks — need
no new case; a write to a dead worker (``EPIPE``) is dropped and the
death is found at the pool's usual fault points.  Thread workers keep
an in-memory queue.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import selectors
import struct
import threading
import time
import weakref

from ..graph.kernels import KERNEL_CALLS
from ..knn.base import KNNSolution

_STOP = ("stop",)

#: What ``poll``/``residue`` yield in a message's place when a w-core's
#: result channel has ended: the w-core is gone and its handle retired.
EOF = ("eof",)


def _network_of(solution: KNNSolution):
    """The road network ``solution`` serves, where it exposes one."""
    network = getattr(solution, "network", None)
    if network is None:
        network = getattr(solution, "_network", None)
    return network


def _worker_main(
    solution: KNNSolution, worker_id, inbox, results, stamp_timings: bool = False
) -> None:
    """A w-core's main loop: serve batches from ``inbox`` (the read end
    of a bare pipe in a child process, a queue in a thread) until told
    to stop.

    One ``("batch", seq, ops)`` message is acknowledged by one
    ``("done", worker_id, seq, partials)`` message carrying every query
    partial of the batch — the ack doubles as the result envelope, so
    the return path is batch-amortized too.  The batch executes as one
    :meth:`~repro.knn.base.KNNSolution.run_ops` call, so how much work
    its queries share is the solution's business.  ``results`` is this
    worker's private pipe end: no lock is shared with sibling workers,
    so this process dying mid-send cannot wedge anyone else.

    With ``stamp_timings`` (telemetry enabled in the parent) the ack
    grows a compact timing tuple — ``(t_recv, t_ack_send, per-op
    timings, kernel_delta)`` in the shared ``time.monotonic`` clock —
    from which the parent stitches ``queue_wait``/``execute``/``ack``
    spans.  The per-op entries are ``run_ops``'s: ``("q", query_id, t0,
    t1)`` for a query answered alone, ``("qb", (query_ids...), t0, t1)``
    for queries answered together, and ``("u", t0, t1)`` for updates;
    ``kernel_delta`` is this batch's increment to the child's
    ``KERNEL_CALLS`` diagnostic counters, which the parent folds into
    its own copy (fork gives each child separate counter memory).
    """
    monotonic = time.monotonic
    receive = inbox.recv if hasattr(inbox, "recv") else inbox.get
    while True:
        message = receive()
        received = monotonic() if stamp_timings else 0.0
        kind = message[0]
        if kind == "stop":
            results.send(("stopped", worker_id))
            return
        if kind != "batch":  # pragma: no cover - protocol guard
            results.send(("error", worker_id, -1, f"unknown message {kind!r}"))
            return
        _, seq, ops = message
        op_timings: list[tuple] | None = [] if stamp_timings else None
        kernel_before = dict(KERNEL_CALLS) if stamp_timings else {}
        try:
            partials = solution.run_ops(ops, op_timings)
        except Exception as exc:
            results.send(("error", worker_id, seq, repr(exc)))
            return
        if stamp_timings:
            # A thread worker bumps the parent's own counters: no delta.
            kernel_delta = None if isinstance(
                threading.current_thread(), _ThreadWorker
            ) else {
                name: count - kernel_before.get(name, 0)
                for name, count in KERNEL_CALLS.items()
                if count != kernel_before.get(name, 0)
            }
            results.send((
                "done", worker_id, seq, partials,
                (received, monotonic(), op_timings, kernel_delta),
            ))
        else:
            results.send(("done", worker_id, seq, partials))


class _ThreadWorker(threading.Thread):
    """A w-core as a thread, behind the process surface the transport
    drives (``is_alive``/``join``/``terminate``/``kill``/``pid``).

    Runs the same :func:`_worker_main` against the same private result
    pipe; only the inbox is an in-memory queue.  A thread cannot be
    signalled, so it is stopped by message — ``kill()`` queues the stop
    behind whatever the worker is doing — and it closes its pipe end on
    the way out, so the parent reads EOF exactly as for a dead process.
    """

    pid = None  # nothing to signal: worker_pids() lists no thread

    def __init__(self, main_args: tuple) -> None:
        _solution, worker_id, inbox, writer, _stamp_timings = main_args
        super().__init__(name=f"w-core-{worker_id}", daemon=True)
        self._main_args, self._inbox, self._writer = main_args, inbox, writer

    def run(self) -> None:
        try:
            _worker_main(*self._main_args)
        except BrokenPipeError:  # reader retired: nobody is listening
            pass
        finally:
            self._writer.close()

    def kill(self) -> None:
        self._inbox.put(_STOP)

    terminate = kill


class _PipeInbox:
    """Parent end of a process worker's inbox: a bare pipe whose writer
    never blocks (see the module docstring for why it must not).

    Messages are framed as ``Connection.send`` frames them (``!i``
    length + pickle), so the child's plain ``Connection.recv()`` reads
    them and a partial ``os.write`` loses no boundary.  What the pipe
    will not take stays in ``backlog``, and the write end is registered
    with the transport's ``selector`` exactly while ``backlog`` is
    non-empty.
    """

    def __init__(self, writer, selector) -> None:
        os.set_blocking(writer.fileno(), False)
        self._writer, self._selector = writer, selector
        self.backlog = bytearray()
        self._watched = False  # write end registered with the selector

    def put(self, message: tuple) -> None:
        if self._writer.closed:
            return  # retired with its dead worker
        payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        clogged = bool(self.backlog)
        self.backlog += struct.pack("!i", len(payload))
        self.backlog += payload
        if not clogged:
            self.flush()

    def flush(self) -> None:
        """Write what the pipe takes now; never wait for the rest."""
        backlog = self.backlog
        try:
            while backlog:
                del backlog[:os.write(self._writer.fileno(), backlog)]
        except BlockingIOError:
            pass
        except BrokenPipeError:  # worker died: the respawn replays its log
            backlog.clear()
        if bool(backlog) != self._watched:
            self._watched = not self._watched
            if self._watched:
                self._selector.register(
                    self._writer, selectors.EVENT_WRITE, self
                )
            else:
                self._selector.unregister(self._writer)

    def close(self) -> None:
        if not self._writer.closed:
            self.backlog.clear()
            self.flush()  # nothing left to write: leaves the selector
            self._writer.close()


class _Handle:
    """One started w-core: the process (or thread) and this side's ends
    of its two channels.  ``owner`` is the caller's, never read here.
    A retired handle holds nothing (``reader`` is None, and ``process``
    once the w-core is down), so an owner that points back at it is a
    cycle of plain memory: no ``Popen`` finalizer, hence no descriptor,
    waits for the collector."""

    __slots__ = ("process", "inbox", "reader", "owner")


def _release(selector, handles: set) -> None:
    """Queue a stop for every w-core still held; close this side's ends
    and the wait set.  The tail of ``close()`` and, as a
    ``weakref.finalize`` (so it must not reference the transport), what
    a dropped transport still does: a forgotten pool leaks no
    descriptor and no blocked thread."""
    for handle in handles:
        handle.inbox.put(_STOP)
        handle.reader.close()
        handle.reader = handle.process = None
        if isinstance(handle.inbox, _PipeInbox):
            handle.inbox.close()
    handles.clear()
    selector.close()


class Transport:
    """Carrier of the pool's w-cores, a private result pipe each.

    The wait set is one ``selectors`` object kept for the transport's
    lifetime: every unretired handle's result-pipe reader (key ``data``
    = the handle, so messages route by pipe identity, never by worker
    id), plus the inbox write end of any process worker whose pipe is
    clogged (key ``data`` = the inbox).  :class:`ProcessTransport` and
    :class:`ThreadTransport` supply ``_launch``.
    """

    #: Whether a silent w-core can be killed out from under its stall.
    killable = True
    now = staticmethod(time.monotonic)

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._handles: set[_Handle] = set()  # started, not yet retired
        self._finalizer = weakref.finalize(
            self, _release, self._selector, self._handles
        )

    def start(
        self, solution: KNNSolution, worker_id, stamp_timings: bool
    ) -> _Handle:
        """Start a w-core serving ``solution`` (already ``spawn``-ed
        onto its cell) and hand back its handle."""
        handle = _Handle()
        handle.owner = None
        handle.reader, writer = mp.Pipe(duplex=False)
        self._launch(handle, solution, worker_id, writer, stamp_timings)
        self._selector.register(handle.reader, selectors.EVENT_READ, handle)
        self._handles.add(handle)
        return handle

    def _launch(self, handle, solution, worker_id, writer, stamp_timings):
        raise NotImplementedError

    def send(self, handle: _Handle, message: tuple) -> None:
        """Put ``message`` on ``handle``'s FCFS inbox.  Never blocks; to
        a dead or retired w-core it is dropped, never an error."""
        handle.inbox.put(message)

    def poll(self, timeout: float):
        """Wait up to ``timeout`` seconds, then yield one ``(handle,
        message)`` per ready result pipe — :data:`EOF` for a w-core
        that is gone, its handle retired — and flush each clogged inbox
        that has room.  The wait happens in the call; messages are read
        one at a time as the result is iterated."""
        return self._deliver(self._selector.select(timeout))

    def _deliver(self, ready):
        for key, events in ready:
            if events & selectors.EVENT_WRITE:
                key.data.flush()  # a clogged inbox: the worker made room
            else:
                yield key.data, self._read(key.data)

    def _read(self, handle: _Handle):
        """One message off ``handle``'s result pipe.  EOF means the
        writing w-core is gone (its buffered messages stay readable
        until then, so no surviving ack is lost)."""
        try:
            return handle.reader.recv()
        except (EOFError, OSError):
            self.retire(handle)
            return EOF

    def residue(self, handle: _Handle):
        """Yield, without waiting, what ``handle``'s w-core wrote and
        ``poll`` has not delivered.  Only this handle's pipe: the pool
        calls it inside a ``poll`` iteration that holds ready siblings."""
        while handle.reader is not None and handle.reader.poll():
            yield self._read(handle)

    def alive(self, handle: _Handle) -> bool:
        process = handle.process
        return process is not None and process.is_alive()

    def kill(self, handle: _Handle) -> None:
        handle.process.kill()

    def join(self, handle: _Handle, timeout: float) -> None:
        if handle.process is not None:
            handle.process.join(timeout)

    def pid(self, handle: _Handle) -> int | None:
        """None when there is nothing to signal (thread, retired)."""
        return getattr(handle.process, "pid", None)

    def retire(self, handle: _Handle) -> None:
        """Close this side's ends of a gone w-core's channels: the
        result reader (out of the wait set first) and a pipe inbox's
        write end (what it had not taken is still in the pool's log).
        Once the w-core is down, reap and let go of it (at an EOF it
        may not be waitable yet; a later call gets it).  Idempotent."""
        reader = handle.reader
        if reader is not None:
            self._handles.discard(handle)
            self._selector.unregister(reader)
            reader.close()
            handle.reader = None
            if isinstance(handle.inbox, _PipeInbox):
                handle.inbox.close()
        if handle.process is not None and not handle.process.is_alive():
            handle.process = None

    def close(self, timeout: float = 0.0) -> None:
        """Bring every w-core still held down within ``timeout``
        seconds, then release every descriptor.

        W-cores already told to stop get the patient part: keep polling
        — the stop may sit behind a clogged inbox, the ack pipe may be
        full — until each has hung up (EOF retires it).  The rest is
        escalated: join → ``terminate()`` (SIGTERM) → ``kill()``
        (SIGKILL).  The last rung matters: a worker wedged mid-``recv``
        or SIGSTOPped leaves SIGTERM pending forever, but SIGKILL
        cannot be blocked or deferred.  A w-core that hung up is not yet
        gone (its pipe end closes before its thread or process ends), so
        the ones retired here are joined too.  Idempotent, and safe
        before any ``start``.
        """
        deadline = self.now() + timeout
        held = list(self._handles)
        try:
            while self._handles and self.now() < deadline:
                for _ in self.poll(min(deadline - self.now(), 0.1)):
                    pass
            for handle in held:
                process = handle.process
                if process is None:
                    continue  # reaped at its EOF
                process.join(timeout=max(deadline - self.now(), 0.1))
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
                if handle.reader is None:
                    self.retire(handle)  # let go of the reaped w-core
        finally:
            self._finalizer()


class ThreadTransport(Transport):
    """w-cores as daemon threads of this process."""

    killable = False

    def _launch(self, handle, solution, worker_id, writer, stamp_timings):
        # The thread holds the only copy of its writer; closes it on exit.
        handle.inbox = queue.SimpleQueue()
        handle.process = _ThreadWorker(
            (solution, worker_id, handle.inbox, writer, stamp_timings)
        )
        handle.process.start()


class ProcessTransport(Transport):
    """w-cores as child processes under a ``multiprocessing`` start
    method.  Under ``fork`` workers inherit the parent's memory
    copy-on-write and nothing is pickled, so nothing is published.
    Under ``spawn``/``forkserver`` the worker payload is pickled —
    which is why, for a solution that exposes its
    :class:`~repro.graph.road_network.RoadNetwork`, the first ``start``
    publishes the network's CSR arrays to a
    ``multiprocessing.shared_memory`` segment.  Workers — respawned
    ones included — then attach it zero-copy while unpickling;
    ``close()`` unlinks it."""

    def __init__(self, start_method: str) -> None:
        super().__init__()
        self._context = mp.get_context(start_method)
        #: Whether a worker payload is pickled, so worth a segment.
        self._share_graph = start_method != "fork"
        self._shared_graph = None  # owning handle, set by the first start

    def _launch(self, handle, solution, worker_id, writer, stamp_timings):
        if self._share_graph:
            self._share_graph = False
            self._publish_graph(solution)
        inbox, inbox_writer = mp.Pipe(duplex=False)
        handle.inbox = _PipeInbox(inbox_writer, self._selector)
        handle.process = self._context.Process(
            target=_worker_main,
            args=(solution, worker_id, inbox, writer, stamp_timings),
            daemon=True,
        )
        handle.process.start()
        # Drop the parent's copies of the worker's ends *before* any
        # later fork: the worker must be the result pipe's only writer
        # so its death raises EOF on our end, and the inbox's only
        # reader so a write after its death raises EPIPE (and no
        # sibling inherits a stray fd).
        writer.close()
        inbox.close()

    def _publish_graph(self, solution: KNNSolution) -> None:
        """Put the solution's road network into shared memory, if any.

        Every subsequent worker pickle — initial spawn and respawn alike
        — then ships a ~100-byte attach token instead of the CSR arrays.
        Networks already published by an outer owner are borrowed as-is
        (their token is inherited by the pickles; lifecycle untouched).
        Networks attached from a disk cache (``RoadNetwork.open_cache``)
        need no segment at all: their pickle already ships the memmap
        attach token, and each worker maps the same files in O(1), so
        shared-memory publication is skipped for them.
        """
        network = _network_of(solution)
        if (
            network is None
            or getattr(network, "_shared_meta", None) is not None
            or getattr(network, "_cache_meta", None) is not None
        ):
            return
        from ..graph.shared import publish_shared_graph

        self._shared_graph = publish_shared_graph(network)

    def close(self, timeout: float = 0.0) -> None:
        try:
            super().close(timeout)
        finally:
            # Only after every worker is down: no process can still be
            # mid-attach, so unlinking the segment cannot race a respawn.
            if self._shared_graph is not None:
                self._shared_graph.close()
                self._shared_graph = None


def make_transport(kind: str) -> Transport:
    """The real transport for worker kind ``kind``: ``"thread"``, or a
    ``multiprocessing`` start method."""
    if kind == "thread":
        return ThreadTransport()
    return ProcessTransport(kind)
