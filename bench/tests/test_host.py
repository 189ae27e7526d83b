"""Host-speed correction: probes, factors, corrected metrics."""

import pytest

from mprbench import host, metrics
from mprbench.drive import PhaseLog
from mprbench.spec import BY_NAME, WINDOWS

REF = host.PROBE_REF_MS


def test_probe_measures_this_threads_cpu_time():
    samples = [host.probe() for _ in range(20)]
    assert all(0.1 < sample < 20 for sample in samples)
    assert host.probe_mean(5) > 0


def test_factors_average_probes_over_an_interval():
    factors = host.Factors([(0.5, REF), (1.5, 2 * REF), (2.5, 3 * REF)])
    assert factors.overall == pytest.approx(2.0)
    assert factors.between(0, 1) == pytest.approx(1.0)
    assert factors.between(1, 3) == pytest.approx(2.5)
    # No probe in the interval: the phase's factor, never a guess of 1.
    assert factors.between(5, 6) == pytest.approx(2.0)
    # A workload that feels the host more than the probe does: what its
    # times are divided by grows, what the probe read does not.
    sensitive = host.Factors([(0.5, REF), (1.5, 4 * REF)], sensitivity=1.5)
    assert sensitive.between(1, 2) == pytest.approx(8.0)
    assert sensitive.overall == pytest.approx(2.5)
    with pytest.raises(ValueError):
        host.Factors([])


def _phase(factor_of_window, sensitivity=1.0):
    """A 20 s closed-loop phase of 10 ms chunks of 32 operations whose
    cost follows the host: in window w the probe runs
    ``factor_of_window(w)`` slow, the workload that to the power of
    ``sensitivity``."""
    log = PhaseLog(0.0, 20.0, False)
    clock, cpu = 0.0, 0.0
    log.cpu.append((0.0, cpu, 0.0, 0.0))
    for window in range(WINDOWS):
        probed = factor_of_window(window)
        factor = probed ** sensitivity
        end = window + 1.0
        while clock + 0.010 * factor <= end + 1e-9:
            begin, clock = clock, clock + 0.010 * factor
            ms = (clock - begin) * 1e3
            cpu += 0.008 * factor
            log.rq.append((clock, ms))
            log.done.append((clock, 32))
            log.answered.append((clock, ms, 32))
            log.attempted += 32
            log.ops += 32
            log.probes.append((clock, REF * probed))
        clock = end
        log.cpu.append((end, cpu, 0.0, 0.0))
    log.pss_mb.append(100.0)
    return log


@pytest.mark.parametrize("name", ["pool_update_heavy", "pool_longrange"])
@pytest.mark.parametrize("factor_of_window", [
    lambda w: 1.0,  # the reference host
    lambda w: 2.0,  # a run wholly inside a slow spell
    lambda w: 1.0 + 0.1 * (w % 5),  # a host that keeps changing speed
])
def test_corrected_metrics_do_not_move_with_host_speed(factor_of_window, name):
    workload = BY_NAME[name]
    values = metrics.end_to_end(
        _phase(factor_of_window, workload.host_sensitivity), workload, 0.5
    )
    assert values["rq_p50_ms"] == pytest.approx(10.0, rel=0.01)
    assert values["rq_p95_ms"] == pytest.approx(10.0, rel=0.01)
    assert values["throughput_ops"] == pytest.approx(3200.0, rel=0.02)
    assert values["cpu_ms_per_op"] == pytest.approx(0.25, rel=0.02)
    # 10 ms on the reference host is inside the 15 ms limit even when
    # the host made it 20 ms of wall.
    assert values["within_limit_ratio"] == 1.0


def test_a_slower_product_still_shows():
    workload = BY_NAME["pool_update_heavy"]
    log = _phase(lambda w: 1.0)
    slow = PhaseLog(0.0, 20.0, False)
    slow.__dict__.update(log.__dict__)
    slow.rq = [(when, ms * 1.2) for when, ms in log.rq]
    values = metrics.end_to_end(slow, workload, 0.5)
    assert values["rq_p50_ms"] == pytest.approx(12.0, rel=0.01)


def test_open_loop_throughput_is_not_corrected():
    log = _phase(lambda w: 2.0)
    open_loop = metrics.end_to_end(log, BY_NAME["serve_open"], 0.5)
    closed = metrics.end_to_end(log, BY_NAME["serve_closed"], 0.5)
    assert closed["throughput_ops"] == pytest.approx(
        2 * open_loop["throughput_ops"], rel=0.02
    )
