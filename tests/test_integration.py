"""End-to-end integration: the full pipeline on materialized scenarios.

These tests run the complete story of the paper in miniature: build a
scaled replica network, generate a real workload, run it through the
actual threaded core matrix, compare against serial execution — then
measure the same schemes on the simulator and check the paper's
qualitative conclusions hold.
"""

import math

import pytest

from repro.knn import DijkstraKNN, GTreeKNN, measure_profile, paper_profile
from repro.mpr import (
    MachineSpec,
    Objective,
    Scheme,
    Workload,
    configure_all_schemes,
    configure_scheme,
    build_executor,
    run_serial_reference,
)
from repro.sim import find_max_throughput, measure_response_time
from repro.workload import CASE_STUDY, materialize


@pytest.fixture(scope="module")
def instance():
    return materialize(
        CASE_STUDY, network_scale=1.0 / 3000.0, load_scale=1.0 / 400.0,
        duration=0.8, seed=3,
    )


def test_full_pipeline_functional_equivalence(instance):
    """Materialized scenario -> MPR executor == serial execution."""
    prototype = GTreeKNN(instance.network)
    machine = MachineSpec(total_cores=11)
    profile = paper_profile("TOAIN", "BJ")
    choice = configure_scheme(
        Scheme.MPR,
        Workload(instance.scenario.lambda_q, instance.scenario.lambda_u),
        profile, machine,
    )
    reference = run_serial_reference(
        prototype, instance.workload.initial_objects, instance.workload.tasks
    )
    executor = build_executor(
        choice.config, prototype, instance.workload.initial_objects,
        check_invariants=True,
    )
    with executor:
        answers = executor.run(instance.workload.tasks)
    assert answers.keys() == reference.keys()
    for query_id in reference:
        assert answers[query_id].ok
        got = [
            (round(n.distance, 6), n.object_id)
            for n in answers[query_id].neighbors
        ]
        expect = [
            (round(n.distance, 6), n.object_id) for n in reference[query_id]
        ]
        assert got == expect


def test_measured_profile_feeds_optimizer(instance):
    """The paper's workflow: profile the solution empirically, then let
    MPR self-configure from the measured characteristics."""
    solution = DijkstraKNN(instance.network, instance.workload.initial_objects)
    profile = measure_profile(
        solution, k=5, num_queries=10, num_updates=10,
        num_nodes=instance.network.num_nodes,
    )
    machine = MachineSpec(total_cores=19)
    # Scale the workload so the measured (slow, Python) service times
    # produce a loaded-but-feasible system; cap the update rate so the
    # control plane (3 us per queue write) stays within capacity.
    lambda_q = 0.3 / profile.tq / 18
    lambda_u = min(0.2 / max(profile.tu, 1e-9), 10_000.0)
    choices = configure_all_schemes(
        Workload(lambda_q, lambda_u), profile, machine
    )
    mpr = choices[Scheme.MPR]
    assert mpr.config.total_cores <= 19
    assert math.isfinite(mpr.predicted_value)
    measurement = measure_response_time(
        mpr.config, profile, machine, lambda_q, lambda_u, duration=2.0
    )
    assert not measurement.overloaded


def test_case_study_table2_shape():
    """Table II reproduced end to end on the simulator: baselines
    overload; 1MPR works; MPR is markedly faster than 1MPR."""
    profile = paper_profile("TOAIN", "BJ")
    machine = MachineSpec(total_cores=19)
    workload = Workload(15_000.0, 50_000.0)
    choices = configure_all_schemes(workload, profile, machine)
    results = {}
    for scheme, choice in choices.items():
        results[scheme] = measure_response_time(
            choice.config, profile, machine,
            workload.lambda_q, workload.lambda_u, duration=1.0, seed=1,
        )
    assert results[Scheme.F_REP].overloaded
    assert results[Scheme.F_PART].overloaded
    assert not results[Scheme.ONE_MPR].overloaded
    assert not results[Scheme.MPR].overloaded
    # The paper's 2.5x gap; accept anything clearly better.
    assert (
        results[Scheme.MPR].mean_response_time
        < 0.75 * results[Scheme.ONE_MPR].mean_response_time
    )


def test_case_study_table3_shape():
    """Table III: throughput ordering F-Rep < F-Part << 1MPR <= MPR."""
    profile = paper_profile("TOAIN", "BJ")
    machine = MachineSpec(total_cores=19)
    lambda_u = 50_000.0
    workload = Workload(0.0, lambda_u)
    choices = configure_all_schemes(
        workload, profile, machine, objective=Objective.THROUGHPUT, rq_bound=0.1
    )
    throughputs = {}
    for scheme, choice in choices.items():
        throughputs[scheme] = find_max_throughput(
            choice.config, profile, machine, lambda_u,
            rq_bound=0.1, duration=0.25, initial_lambda_q=100.0,
        )
    assert throughputs[Scheme.F_REP] < 200.0  # effectively zero
    # The paper's gap is ~220x; ours is smaller because our modelled
    # F-Part is only capacity-bound (y=1 query serialization), but the
    # ordering — the claim under test — is robust.
    assert throughputs[Scheme.ONE_MPR] > 3 * max(throughputs[Scheme.F_PART], 1.0)
    assert throughputs[Scheme.MPR] >= 0.95 * throughputs[Scheme.ONE_MPR]
    assert throughputs[Scheme.MPR] > 20_000


def test_model_selects_simulation_best_config():
    """Figure 4's punchline: 'MPR is successful in locating the best
    configuration based on the analytical formula' — the config the
    model picks must be within a whisker of the simulated optimum."""
    from repro.mpr import enumerate_configs, optimize_response_time

    profile = paper_profile("TOAIN", "BJ")
    machine = MachineSpec(total_cores=19)
    workload = Workload(15_000.0, 50_000.0)
    simulated = {}
    for config in enumerate_configs(19, max_layers=5):
        measurement = measure_response_time(
            config, profile, machine, workload.lambda_q, workload.lambda_u,
            duration=0.5, seed=2,
        )
        simulated[config] = (
            math.inf if measurement.overloaded
            else measurement.mean_response_time
        )
    sim_best = min(simulated.values())
    model_pick = optimize_response_time(
        workload, profile, machine, max_layers=5
    ).config
    assert simulated[model_pick] <= 1.5 * sim_best
