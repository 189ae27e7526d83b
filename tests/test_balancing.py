"""Tests for update-load balancing strategies (Section III)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpr import (
    MPRConfig,
    MPRRouter,
    balance_by_update_rate,
    column_loads,
    hashed_columns,
    imbalance,
    round_robin_columns,
)
from repro.mpr.core_matrix import check_matrix_invariants
from tests.conftest import ok_results


class TestRoundRobin:
    def test_balanced_counts(self) -> None:
        assignment = round_robin_columns(range(10), 3)
        loads = column_loads(assignment, 3)
        assert max(loads) - min(loads) <= 1

    def test_deterministic_order_independent(self) -> None:
        a = round_robin_columns([3, 1, 2], 2)
        b = round_robin_columns([1, 2, 3], 2)
        assert a == b  # sorted internally

    def test_invalid_columns(self) -> None:
        with pytest.raises(ValueError):
            round_robin_columns([1], 0)


class TestHashed:
    def test_reproducible(self) -> None:
        a = hashed_columns(range(100), 4)
        b = hashed_columns(range(100), 4)
        assert a == b

    def test_roughly_balanced(self) -> None:
        assignment = hashed_columns(range(1000), 4)
        loads = column_loads(assignment, 4)
        assert imbalance(loads) < 1.25


class TestRateBalancing:
    def test_heavy_hitters_spread(self) -> None:
        rates = {0: 100.0, 1: 100.0, 2: 100.0, 3: 1.0, 4: 1.0, 5: 1.0}
        assignment = balance_by_update_rate(rates, 3)
        loads = column_loads(assignment, 3, update_rates=rates)
        # Each column gets one heavy hitter.
        assert imbalance(loads) < 1.05

    def test_beats_round_robin_on_skewed_rates(self) -> None:
        rng = random.Random(3)
        # Zipf-ish rates: a few taxis report constantly, most rarely.
        rates = {i: 1.0 / (1 + i) ** 1.2 * 100 for i in range(60)}
        lpt = balance_by_update_rate(rates, 5)
        rr = round_robin_columns(rates, 5)
        lpt_imbalance = imbalance(column_loads(lpt, 5, update_rates=rates))
        rr_imbalance = imbalance(column_loads(rr, 5, update_rates=rates))
        assert lpt_imbalance <= rr_imbalance
        del rng

    def test_negative_rate_rejected(self) -> None:
        with pytest.raises(ValueError):
            balance_by_update_rate({1: -1.0}, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        rates=st.dictionaries(
            st.integers(0, 50),
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=1, max_size=30,
        ),
        columns=st.integers(min_value=1, max_value=6),
    )
    def test_greedy_bound(self, rates, columns) -> None:
        """Greedy list scheduling guarantees makespan <= mean + max job
        (the machine that sets the makespan was at or below the mean
        when it received its final job)."""
        assignment = balance_by_update_rate(rates, columns)
        loads = column_loads(assignment, columns, update_rates=rates)
        mean = sum(rates.values()) / columns
        biggest = max(rates.values(), default=0.0)
        assert max(loads) <= mean + biggest + 1e-9


class TestRouterIntegration:
    def test_custom_assignment_respected(self) -> None:
        config = MPRConfig(x=3, y=2, z=1)
        router = MPRRouter(config)
        objects = {i: i for i in range(9)}
        custom = {i: (2 - i % 3) for i in range(9)}  # reversed round-robin
        contents = router.preload_objects(objects, column_of=custom)
        check_matrix_invariants(contents, config)
        for object_id, column in custom.items():
            assert object_id in contents[(0, 0, column)]

    def test_incomplete_assignment_rejected(self) -> None:
        router = MPRRouter(MPRConfig(x=2, y=1, z=1))
        with pytest.raises(ValueError, match="misses objects"):
            router.preload_objects({1: 0, 2: 0}, column_of={1: 0})

    def test_rate_balanced_preload_end_to_end(self, small_grid) -> None:
        from repro.knn import DijkstraKNN
        from repro.mpr import build_executor, run_serial_reference
        from repro.workload import generate_workload

        workload = generate_workload(
            small_grid, 12, lambda_q=40.0, lambda_u=40.0, duration=0.5, seed=8
        )
        rates = {obj: float(obj % 5 + 1) for obj in workload.initial_objects}
        assignment = balance_by_update_rate(rates, 2)
        prototype = DijkstraKNN(small_grid)
        executor = build_executor(
            MPRConfig(2, 2, 1), prototype, workload.initial_objects
        )
        # Re-preload with the custom assignment through the router API.
        router_contents = MPRRouter(MPRConfig(2, 2, 1)).preload_objects(
            workload.initial_objects, column_of=assignment
        )
        check_matrix_invariants(router_contents, MPRConfig(2, 2, 1))
        # The default executor still answers correctly.
        reference = run_serial_reference(
            prototype, workload.initial_objects, workload.tasks
        )
        with executor:
            assert executor.run(workload.tasks) == ok_results(reference)


class TestImbalance:
    def test_perfectly_balanced(self) -> None:
        assert imbalance([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_degenerate(self) -> None:
        assert imbalance([]) == 1.0
        assert imbalance([0.0, 0.0]) == 1.0
