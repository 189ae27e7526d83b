"""The adaptive batch-size model and recommender."""

from __future__ import annotations

import math

import pytest

from repro.knn import DijkstraKNN
from repro.mpr import (
    MPRConfig,
    build_executor,
    modeled_batch_rq,
    recommend_batch_size,
)
from repro.mpr.analysis import MachineSpec
from repro.obs import Telemetry
from tests.conftest import place_objects


def ack_heavy_telemetry(ack_mean: float = 1e-3) -> Telemetry:
    """A handle whose calibration yields a large per-message cost."""
    telemetry = Telemetry()
    telemetry.record("ack", ack_mean)
    telemetry.record("dispatch", 2e-6)
    telemetry.record("merge", 2e-6)
    return telemetry


class TestModeledRq:
    def test_batch_one_has_no_fill_wait(self) -> None:
        machine = MachineSpec()
        rq = modeled_batch_rq(1, 0.0, machine)
        assert rq == (
            machine.queue_write_time + machine.dispatch_time
            + machine.merge_time
        )

    def test_no_arrivals_makes_batching_infinite(self) -> None:
        machine = MachineSpec()
        assert math.isinf(modeled_batch_rq(2, 0.0, machine))
        assert math.isfinite(modeled_batch_rq(1, 0.0, machine))

    def test_fanout_multiplies_merge(self) -> None:
        machine = MachineSpec()
        base = modeled_batch_rq(4, 100.0, machine, fanout=1)
        assert modeled_batch_rq(4, 100.0, machine, fanout=3) == pytest.approx(
            base + 2 * machine.merge_time
        )

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            modeled_batch_rq(0, 1.0, MachineSpec())
        with pytest.raises(ValueError):
            modeled_batch_rq(1, 1.0, MachineSpec(), fanout=0)


class TestRecommendBatchSize:
    def test_idle_stream_gets_per_task_dispatch(self) -> None:
        assert recommend_batch_size(ack_heavy_telemetry(), 0.0) == 1

    def test_monotone_in_arrival_rate(self) -> None:
        telemetry = ack_heavy_telemetry()
        sizes = [
            recommend_batch_size(telemetry, rate)
            for rate in (1.0, 1e3, 1e4, 1e5, 1e6)
        ]
        assert sizes == sorted(sizes)
        assert sizes[0] == 1 and sizes[-1] > 1

    def test_empty_candidates_rejected(self) -> None:
        with pytest.raises(ValueError):
            recommend_batch_size(ack_heavy_telemetry(), 1.0, candidates=())

    def test_defaults_without_recorded_stages(self) -> None:
        # A fresh handle calibrates to MachineSpec defaults: tiny
        # per-message cost, so even fast streams stay near b = 1.
        assert recommend_batch_size(Telemetry(), 10.0) == 1


class TestPoolPlumbing:
    def test_set_batch_size_without_start(self, small_grid) -> None:
        solution = DijkstraKNN(small_grid, place_objects(small_grid, 5))
        pool = build_executor(
            MPRConfig(1, 1, 1), solution, mode="process", batch_size=4
        )
        assert pool.batch_size == 4
        pool.set_batch_size(9)
        assert pool.batch_size == 9
        pool.close()

    def test_retune_applies_recommendation(self, small_grid) -> None:
        solution = DijkstraKNN(small_grid, place_objects(small_grid, 5))
        telemetry = ack_heavy_telemetry()
        pool = build_executor(
            MPRConfig(1, 1, 1), solution,
            mode="process", batch_size=4, telemetry=telemetry,
        )
        choice = pool.retune_batch_size(1e5)
        assert choice == pool.batch_size > 1
        assert telemetry.counters.get("pool.batch_retunes") == 1
        # Retuning again at the same rate is a no-op.
        assert pool.retune_batch_size(1e5) == choice
        assert telemetry.counters.get("pool.batch_retunes") == 1
        pool.close()

    def test_system_facade_delegates(self, small_grid) -> None:
        from repro.mpr import MPRSystem

        solution = DijkstraKNN(small_grid, place_objects(small_grid, 5))
        for mode in ("thread", "process"):  # one executor: both retune
            system = MPRSystem(
                MPRConfig(1, 1, 1), solution, mode=mode, batch_size=4,
                telemetry=ack_heavy_telemetry(),
            )
            try:
                choice = system.retune_batch_size(1e5)
                assert choice == system.executor.batch_size > 1
                assert system.telemetry.counters["pool.batch_retunes"] == 1
            finally:
                system.close()  # never started: no worker was forked
