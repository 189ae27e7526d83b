"""Process handling: launch targets, reap them, read ``/proc``.

A target (``bench/launcher.py``) runs in its own session, so one
``killpg`` reaps it and every pool worker it forked whatever path the
benchmark leaves by.  The polite path comes first — the launcher owns a
shared-memory segment that only its own ``close()`` unlinks.

The run itself is a child of :func:`supervise`, which adopts whatever the
run orphans (``multiprocessing``'s resource trackers outlive the process
that started them, and a killed launcher's is nobody's child) and returns
only when each has ended.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
LAUNCHER = BENCH_DIR / "launcher.py"

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def child_env() -> dict[str, str]:
    """The environment of the run and every child it starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Target:
    """One launcher subprocess: ``Popen`` to its READY line and back."""

    def __init__(self, workload: str, serve: bool) -> None:
        command = [sys.executable, str(LAUNCHER), "--workload", workload]
        if serve:
            command.append("--serve")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True, env=child_env(), cwd=ROOT,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.stop()
            raise
        #: Popen -> READY: interpreter, imports, graph, objects, pool, bind.
        self.setup_s = time.perf_counter() - started
        self.pid: int = self.ready["pid"]
        self.worker_pids: list[int] = self.ready["worker_pids"]
        self.port: int | None = self.ready.get("port")

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"launcher exited with code {self.process.wait()} before "
                "answering"
            )
        return json.loads(line)

    def stats(self) -> dict:
        """The target's public ledgers, as its control channel dumps them."""
        self.process.stdin.write("stats\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Ask, then insist: quit line, SIGTERM, SIGKILL to the group."""
        process = self.process
        try:
            if process.poll() is None:
                try:
                    process.stdin.write("quit\n")
                    process.stdin.flush()
                    process.wait(timeout=5.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
            for signum in (signal.SIGTERM, signal.SIGKILL):
                if process.poll() is not None:
                    break
                _killpg(process.pid, signum)
                try:
                    process.wait(timeout=3.0)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            if process.poll() != 0:
                # It died without closing its pool.  Its orphaned workers
                # are still in its group: SIGTERM ends them, and leaves
                # the launcher's resource tracker (which ignores it) a
                # moment to unlink the shared-memory segment.
                _killpg(process.pid, signal.SIGTERM)
                deadline = time.monotonic() + 1.0
                while _killpg(process.pid, 0) and time.monotonic() < deadline:
                    time.sleep(0.01)
            _killpg(process.pid, signal.SIGKILL)
            process.wait()
            for stream in (process.stdin, process.stdout):
                if stream is not None:
                    stream.close()

    def __enter__(self) -> "Target":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def supervise(command: list[str], env: dict[str, str]) -> int:
    """Run ``command`` as a child and leave no process behind it.

    This process becomes the subreaper of its descendants, so everything
    the child orphans on its way out is re-parented here, not to init:
    it is waited for, killed after ``grace`` if it does not end by
    itself.  SIGTERM is handed on to the child, whose own exit paths
    close pools and targets.  Returns the child's exit code.
    """
    ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    child = subprocess.Popen(command, env=env)
    # Handlers, not SIG_IGN: an ignored signal would stay ignored in the
    # child.  A terminal's Ctrl-C reaches the child by itself.
    signal.signal(signal.SIGTERM, lambda *_: child.send_signal(signal.SIGTERM))
    signal.signal(signal.SIGINT, lambda *_: None)
    try:
        code = child.wait()
    finally:
        reap_orphans()
    return code if code >= 0 else 128 - code


def reap_orphans(grace: float = 3.0) -> None:
    """Wait until this process has no child left, SIGKILLing those that
    outlive ``grace`` seconds."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _children() -> list[int]:
    """Pids whose parent is this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def ledgers(system, server=None) -> dict:
    """The public ledgers of a system in *this* process: what
    :meth:`Target.stats` returns for a launched one."""
    from repro.graph.kernels import KERNEL_CALLS

    return {
        "time": time.perf_counter(),
        "system": system.stats(),
        "pool": system.executor.metrics.to_dict(),
        "kernel_calls": dict(KERNEL_CALLS),
        "server": server.stats() if server is not None else None,
    }


def _killpg(pgid: int, signum: int) -> bool:
    """Signal a process group; False once it has no member left."""
    try:
        os.killpg(pgid, signum)
    except (ProcessLookupError, PermissionError):
        return False
    return True


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """``utime + stime`` of a process (all threads, reaped children not
    included); 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def pss_mb(pid: int) -> float:
    """Proportional set size; resident set size where PSS is hidden."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_MB
    except OSError:
        return 0.0


class TreeSampler:
    """CPU and memory of a target's process tree: parent + pool workers."""

    def __init__(self, parent_pid: int, worker_pids: list[int]) -> None:
        self.parent_pid = parent_pid
        self.worker_pids = list(worker_pids)

    @classmethod
    def of_pool(cls, system) -> "TreeSampler":
        """This process as the library caller, plus ``system``'s workers."""
        return cls(
            os.getpid(), sorted(system.executor.worker_pids().values())
        )

    def cpu(self) -> tuple[float, float]:
        """``(parent, workers)`` CPU seconds so far."""
        return (
            cpu_seconds(self.parent_pid),
            sum(cpu_seconds(pid) for pid in self.worker_pids),
        )

    def pss(self) -> float:
        return pss_mb(self.parent_pid) + sum(
            pss_mb(pid) for pid in self.worker_pids
        )
