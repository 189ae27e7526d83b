"""The statistic: quiet quartile, samples-beyond rule, window halving."""

import pytest

from mprbench import stats


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert stats.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert stats.percentile([10, 20], 0.25) == 12.5
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_quiet_quartile_takes_the_undisturbed_side():
    # Interference only ever slows a window down: three disturbed
    # windows out of twenty leave the quiet quartile where it was.
    latency = [5.0] * 17 + [9.0, 12.0, 30.0]
    assert stats.quiet_quartile(latency, "lower") == 5.0
    rate = [1000.0] * 17 + [700.0, 650.0, 300.0]
    assert stats.quiet_quartile(rate, "higher") == 1000.0
    assert stats.quiet_quartile([1, 2, 3, 4, 5], "lower") == 2
    assert stats.quiet_quartile([1, 2, 3, 4, 5], "higher") == 4


def test_samples_beyond_rule():
    # p50 needs 10 samples on either side, p95 needs 10 above it.
    assert not stats.supported(19, 0.50)
    assert stats.supported(20, 0.50)
    assert not stats.supported(199, 0.95)
    assert stats.supported(200, 0.95)
    assert stats.supported(1000, 0.99)
    assert not stats.supported(999, 0.99)


def _uniform(per_second: int, seconds: float):
    count = int(per_second * seconds)
    return [(index * seconds / count, float(index % 7)) for index in range(count)]


def test_window_count_halves_until_every_window_is_supported():
    # 20 windows of 1 s; 30 samples a second support p50 in each.
    value, windows = stats.windowed_percentile(_uniform(30, 20), 0, 20, 0.5)
    assert windows == 20 and value is not None
    # 15 a second do not (15 // 2 < 10): 10 windows of 2 s do.
    _, windows = stats.windowed_percentile(_uniform(15, 20), 0, 20, 0.5)
    assert windows == 10
    # p95 of 22 chunks a second needs 200 per window: 2 windows of 10 s.
    _, windows = stats.windowed_percentile(_uniform(22, 20), 0, 20, 0.95)
    assert windows == 2
    # 15 a second: 300 samples support p95 only over the whole phase.
    _, windows = stats.windowed_percentile(_uniform(15, 20), 0, 20, 0.95)
    assert windows == 1


def test_too_thin_is_unsupported_never_guessed():
    assert stats.windowed_percentile(_uniform(5, 20), 0, 20, 0.95) == (None, 0)
    assert stats.windowed_percentile([], 0, 20, 0.5) == (None, 0)


def test_a_phase_just_short_reports_the_highest_supported_quantile():
    # 189 chunks (a run slowed 2.3x) have 9 samples beyond p95 but 10
    # beyond p94.7: that is reported, flagged by windows_used == 0.
    samples = [(20 * (i + 0.5) / 189, float(i)) for i in range(189)]
    value, windows = stats.windowed_percentile(samples, 0, 20, 0.95)
    assert windows == 0
    assert value == pytest.approx(stats.percentile(range(189), 1 - 10 / 189))
    # ... but 120 chunks support no more than p91.7: unsupported.
    samples = samples[:120]
    assert stats.windowed_percentile(samples, 0, 12.7, 0.95) == (None, 0)


def test_one_empty_window_forces_longer_windows():
    samples = [s for s in _uniform(40, 20) if not 7.0 <= s[0] < 8.0]
    _, windows = stats.windowed_percentile(samples, 0, 20, 0.5)
    assert windows == 10


def test_windowed_value_is_the_quiet_quartile_of_window_percentiles():
    # Window w holds 30 samples of value w: its p50 is w.
    samples = [(w + (i + 0.5) / 30, float(w)) for w in range(20) for i in range(30)]
    value, windows = stats.windowed_percentile(samples, 0, 20, 0.5, "lower")
    assert (value, windows) == (4.75, 20)
    value, _ = stats.windowed_percentile(samples, 0, 20, 0.5, "higher")
    assert value == 14.25


def test_spread_is_the_drivers():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / median


def test_worse_follows_the_metric_direction():
    assert stats.worse("rq_p50_ms", 10.0, 11.0) == pytest.approx(0.10)
    assert stats.worse("throughput_ops", 1000.0, 900.0) == pytest.approx(0.10)
    assert stats.worse("throughput_ops", 1000.0, 1100.0) == pytest.approx(-0.10)
