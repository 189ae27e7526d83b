"""Tests for the analytical models (Equations 2, 3, 5, 7)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knn.calibration import AlgorithmProfile, paper_profile
from repro.mpr import (
    MachineSpec,
    MPRConfig,
    Workload,
    control_plane_overloaded,
    full_partitioning_config,
    full_replication_config,
    max_throughput,
    max_throughput_closed_form,
    optimize_response_time,
    optimize_throughput,
    response_time,
    single_queue_response_time,
    worker_sojourn_time,
)


def make_profile(tq=1e-4, gamma_q=1.0, tu=1e-5, gamma_u=1.0) -> AlgorithmProfile:
    return AlgorithmProfile(
        "test", tq=tq, vq=gamma_q * tq * tq, tu=tu, vu=gamma_u * tu * tu
    )


class TestSingleQueueFormula:
    def test_reduces_to_mm1_waiting(self) -> None:
        """With exponential services (γ=1) and no updates, Equation 3 is
        the M/M/1 response time λE[S²]/(2(1−ρ)) + E[S]."""
        profile = make_profile(tq=0.01, gamma_q=1.0, tu=0.0, gamma_u=0.0)
        lam = 50.0
        rho = lam * profile.tq
        expected = lam * 2 * profile.tq**2 / (2 * (1 - rho)) + profile.tq
        assert single_queue_response_time(lam, 0.0, profile) == pytest.approx(expected)

    def test_zero_load_equals_service_time(self) -> None:
        profile = make_profile()
        assert single_queue_response_time(0.0, 0.0, profile) == pytest.approx(
            profile.tq
        )

    def test_overload_returns_inf(self) -> None:
        profile = make_profile(tq=0.01)
        assert math.isinf(single_queue_response_time(100.0, 0.0, profile))

    def test_updates_add_delay(self) -> None:
        profile = make_profile()
        base = single_queue_response_time(100.0, 0.0, profile)
        with_updates = single_queue_response_time(100.0, 1000.0, profile)
        assert with_updates > base

    @settings(max_examples=50, deadline=None)
    @given(
        lam_q=st.floats(min_value=0, max_value=5000),
        lam_u=st.floats(min_value=0, max_value=5000),
    )
    def test_monotone_in_load(self, lam_q, lam_u) -> None:
        profile = make_profile()
        a = single_queue_response_time(lam_q, lam_u, profile)
        b = single_queue_response_time(lam_q * 1.1 + 1, lam_u, profile)
        assert b >= a - 1e-12


class TestWorkerSojourn:
    def test_equals_single_queue_when_1x1x1(self) -> None:
        profile = make_profile()
        workload = Workload(100.0, 50.0)
        direct = single_queue_response_time(100.0, 50.0, profile)
        assert worker_sojourn_time(
            MPRConfig(1, 1, 1), workload, profile
        ) == pytest.approx(direct)

    def test_rows_divide_query_load(self) -> None:
        profile = make_profile()
        workload = Workload(1000.0, 0.0)
        wide = worker_sojourn_time(MPRConfig(1, 10, 1), workload, profile)
        narrow = worker_sojourn_time(MPRConfig(1, 2, 1), workload, profile)
        assert wide < narrow

    def test_columns_divide_update_load(self) -> None:
        profile = make_profile(tu=1e-4)
        workload = Workload(10.0, 5000.0)
        wide = worker_sojourn_time(MPRConfig(8, 1, 1), workload, profile)
        narrow = worker_sojourn_time(MPRConfig(2, 1, 1), workload, profile)
        assert wide < narrow

    def test_layers_divide_query_load(self) -> None:
        profile = make_profile()
        workload = Workload(2000.0, 0.0)
        layered = worker_sojourn_time(MPRConfig(1, 3, 3), workload, profile)
        flat = worker_sojourn_time(MPRConfig(1, 3, 1), workload, profile)
        assert layered < flat


class TestResponseTime:
    def test_case_study_shape(self) -> None:
        """The paper's Table II: F-Rep and F-Part overload, MPR does not."""
        profile = paper_profile("TOAIN", "BJ")
        machine = MachineSpec(total_cores=19)
        workload = Workload(15_000.0, 50_000.0)
        assert math.isinf(
            response_time(full_replication_config(19), workload, profile, machine)
        )
        assert math.isinf(
            response_time(full_partitioning_config(19), workload, profile, machine)
        )
        best = optimize_response_time(workload, profile, machine, max_layers=5)
        assert math.isfinite(best.objective_value)
        assert best.config.x == 1  # the paper's pick is also x = 1
        assert best.config.z > 1

    def test_case_study_1mpr_picks_paper_config(self) -> None:
        """Regression: our optimizer lands on the paper's exact (3,5,1)."""
        profile = paper_profile("TOAIN", "BJ")
        machine = MachineSpec(total_cores=19)
        result = optimize_response_time(
            Workload(15_000.0, 50_000.0), profile, machine, fixed_layers=1
        )
        assert result.config == MPRConfig(3, 5, 1)

    def test_overhead_grows_with_x(self) -> None:
        profile = make_profile()
        machine = MachineSpec(total_cores=40)
        workload = Workload(10.0, 10.0)
        small_x = response_time(MPRConfig(2, 2, 1), workload, profile, machine)
        large_x = response_time(MPRConfig(8, 2, 1), workload, profile, machine)
        assert large_x > small_x

    def test_config_larger_than_machine_is_infeasible(self) -> None:
        profile = make_profile()
        machine = MachineSpec(total_cores=4)
        assert math.isinf(
            response_time(MPRConfig(4, 4, 1), Workload(1, 1), profile, machine)
        )

    def test_scheduler_overload_detected(self) -> None:
        """Section IV-C: (λq·x + λu·y)·τ' > 1 overloads the s-core."""
        profile = make_profile(tq=1e-7, tu=1e-8)  # workers infinitely fast
        machine = MachineSpec(total_cores=19, queue_write_time=3e-6)
        config = MPRConfig(1, 18, 1)  # F-Rep: y=18 writes per update
        workload = Workload(0.0, 50_000.0)  # 50K×18 writes/s × 3μs = 2.7
        assert control_plane_overloaded(config, workload, machine)
        assert math.isinf(response_time(config, workload, profile, machine))


class TestThroughput:
    def test_closed_form_matches_binary_search(self) -> None:
        profile = paper_profile("TOAIN", "BJ")
        machine = MachineSpec(total_cores=19)
        for config in (MPRConfig(1, 5, 3), MPRConfig(3, 5, 1), MPRConfig(2, 8, 1)):
            closed = max_throughput_closed_form(
                config, 50_000.0, profile, machine, rq_bound=0.1
            )
            searched = max_throughput(
                config, 50_000.0, profile, machine, rq_bound=0.1, tolerance=0.5
            )
            assert closed == pytest.approx(searched, rel=0.01)

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.integers(1, 4),
        y=st.integers(1, 4),
        z=st.integers(1, 3),
        lambda_u=st.floats(min_value=0, max_value=20_000),
    )
    def test_closed_form_equals_search_property(self, x, y, z, lambda_u) -> None:
        profile = make_profile()
        machine = MachineSpec(total_cores=64)
        config = MPRConfig(x, y, z)
        closed = max_throughput_closed_form(
            config, lambda_u, profile, machine, rq_bound=0.05
        )
        searched = max_throughput(
            config, lambda_u, profile, machine, rq_bound=0.05, tolerance=0.5
        )
        assert closed == pytest.approx(searched, rel=0.02, abs=2.0)

    def test_throughput_at_boundary(self) -> None:
        """Feasibility flips exactly at G(x): the invariant DESIGN.md
        lists — (1−ε)G meets the bound, (1+ε)G violates it."""
        profile = make_profile()
        machine = MachineSpec(total_cores=19)
        config = MPRConfig(2, 4, 1)
        bound = 0.02
        g = max_throughput_closed_form(config, 1000.0, profile, machine, bound)
        assert g > 0
        below = response_time(
            config, Workload(g * 0.98, 1000.0), profile, machine
        )
        above = response_time(
            config, Workload(g * 1.02, 1000.0), profile, machine
        )
        assert below <= bound
        assert above > bound or math.isinf(above)

    def test_f_rep_zero_throughput_case_study(self) -> None:
        """Table III: F-Rep gives 0 throughput under λu = 50K."""
        profile = paper_profile("TOAIN", "BJ")
        machine = MachineSpec(total_cores=19)
        assert max_throughput_closed_form(
            full_replication_config(19), 50_000.0, profile, machine, 0.1
        ) == 0.0

    def test_optimizer_beats_fixed_baselines(self) -> None:
        profile = paper_profile("TOAIN", "BJ")
        machine = MachineSpec(total_cores=19)
        best = optimize_throughput(50_000.0, profile, machine, rq_bound=0.1,
                                   max_layers=5)
        for baseline in (full_replication_config(19), full_partitioning_config(19)):
            assert best.objective_value >= max_throughput_closed_form(
                baseline, 50_000.0, profile, machine, 0.1
            )

    def test_throughput_optimizer_never_worse_than_rt_pick(self) -> None:
        """Switching the objective to throughput can only improve the
        achievable throughput relative to the response-time pick (the
        'performance adaptability' of Section V-B)."""
        profile = paper_profile("TOAIN", "BJ")
        machine = MachineSpec(total_cores=19)
        rt = optimize_response_time(
            Workload(15_000.0, 50_000.0), profile, machine, max_layers=5
        )
        tp = optimize_throughput(50_000.0, profile, machine, rq_bound=0.1,
                                 max_layers=5)
        rt_config_throughput = max_throughput_closed_form(
            rt.config, 50_000.0, profile, machine, 0.1
        )
        assert tp.objective_value >= rt_config_throughput

    def test_optimizer_reconfigures_with_tight_bound(self) -> None:
        """A tight Rq* forces the throughput optimizer away from the
        throughput-maximal config toward a low-latency one."""
        profile = paper_profile("TOAIN", "BJ")
        machine = MachineSpec(total_cores=19)
        loose = optimize_throughput(50_000.0, profile, machine, rq_bound=0.1,
                                    max_layers=5)
        tight = optimize_throughput(50_000.0, profile, machine,
                                    rq_bound=0.0004, max_layers=5)
        assert tight.objective_value <= loose.objective_value


class TestMachineSpec:
    def test_tau_is_write_plus_merge(self) -> None:
        machine = MachineSpec(queue_write_time=2e-6, merge_time=3e-6)
        assert machine.tau == pytest.approx(5e-6)

    def test_invalid_specs(self) -> None:
        for spec in (
            {"total_cores": 1},
            {"total_cores": 19.5},
            {"total_cores": 19.0},
            {"queue_write_time": -1.0},
            {"queue_write_time": math.nan},
            {"merge_time": math.inf},
            {"dispatch_time": math.nan},
        ):
            with pytest.raises(ValueError):
                MachineSpec(**spec)

    def test_workload_validation(self) -> None:
        for lambdas in (
            (-1.0, 0.0), (math.nan, 10.0), (10.0, math.nan),
            (math.inf, 0.0), (0.0, math.inf),
        ):
            with pytest.raises(ValueError):
                Workload(*lambdas)
