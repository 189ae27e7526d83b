"""Every exit path reaps the launcher and its pool workers, and the
supervisor what a run orphans."""

import os
import signal
import subprocess
import sys
import time

import pytest

from mprbench import proc


def _gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] == "Z"
    except OSError:
        return True


def _all_gone(pids, within: float = 3.0) -> bool:
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        if all(_gone(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


def test_launcher_runs_in_its_own_session_and_answers_stats():
    with proc.Target("serve_open", serve=True) as target:
        pids = [target.pid, *target.worker_pids]
        assert os.getsid(target.pid) == target.pid != os.getsid(0)
        assert all(os.getpgid(pid) == target.pid for pid in pids)
        assert target.port and target.setup_s > 0
        ledgers = target.stats()
        assert {"system", "pool", "kernel_calls", "server", "time"} <= set(ledgers)
        assert proc.cpu_seconds(target.pid) > 0
        assert proc.pss_mb(target.pid) > 1
    assert target.process.returncode == 0  # the polite path was enough
    assert _all_gone(pids)


def test_an_exception_in_the_benchmark_still_reaps_the_tree():
    with pytest.raises(RuntimeError, match="oracle"):
        with proc.Target("pool_update_heavy", serve=False) as target:
            pids = [target.pid, *target.worker_pids]
            raise RuntimeError("oracle mismatch")
    assert _all_gone(pids)


def test_workers_orphaned_by_a_dead_launcher_are_reaped_by_killpg():
    target = proc.Target("pool_update_heavy", serve=False)
    workers = list(target.worker_pids)
    os.kill(target.pid, signal.SIGKILL)  # the launcher dies first
    target.process.wait(timeout=5)
    target.stop()
    assert _all_gone(workers)


def test_the_supervisor_waits_for_what_its_child_orphans(tmp_path):
    """A grandchild in a session of its own, orphaned by the child and deaf
    to SIGTERM, is gone when ``supervise`` returns the child's code."""
    pidfile = tmp_path / "pid"
    orphan = (
        "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
        "time.sleep(60)"
    )
    child = (
        "import subprocess, sys; "
        f"p = subprocess.Popen([sys.executable, '-c', {orphan!r}], "
        "start_new_session=True); "
        f"open({str(pidfile)!r}, 'w').write(str(p.pid)); sys.exit(7)"
    )
    supervisor = (
        "import os, sys; from mprbench import proc; "
        f"sys.exit(proc.supervise([sys.executable, '-c', {child!r}], "
        "dict(os.environ)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", supervisor], env=proc.child_env(), timeout=30
    )
    assert done.returncode == 7
    # Reaped, not merely dead: no zombie is left for anyone else.
    assert not os.path.exists(f"/proc/{int(pidfile.read_text())}")
