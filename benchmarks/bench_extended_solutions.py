"""Extension bench: MPR across the *full* solution zoo.

The paper evaluates three solutions (Dijkstra, V-tree, TOAIN), and
those three are the live classes of :data:`repro.knn.SOLUTIONS`.
G-tree, ROAD and IER are paper profiles only: rows of
:func:`repro.knn.paper_profile`, with no class behind them (the
per-regime table in EXPERIMENTS.md found no regime where one beat the
others).  The bench runs the case-study workload under MPR for all six
profiles, showing the framework's system adaptability claim at full
width: the same wrapper self-configures around any Q/I/D cost profile,
and the chosen (x, y, z) tracks each solution's query/update costs.
"""

import math

from common import PAPER_MACHINE, SIM_DURATION, publish

from repro.harness import format_microseconds, format_table
from repro.knn import paper_profile
from repro.mpr import Scheme, Workload, configure_scheme
from repro.sim import measure_response_time

SOLUTIONS = ("Dijkstra", "G-tree", "ROAD", "V-tree", "TOAIN", "IER")
LAMBDA_Q, LAMBDA_U = 10_000.0, 20_000.0


def run_zoo():
    workload = Workload(LAMBDA_Q, LAMBDA_U)
    results = {}
    for solution in SOLUTIONS:
        profile = paper_profile(solution, "BJ")
        choice = configure_scheme(
            Scheme.MPR, workload, profile, PAPER_MACHINE
        )
        measurement = measure_response_time(
            choice.config, profile, PAPER_MACHINE, LAMBDA_Q, LAMBDA_U,
            duration=SIM_DURATION, seed=14,
        )
        results[solution] = (
            profile,
            choice.config,
            math.inf if measurement.overloaded
            else measurement.mean_response_time,
        )
    return results


def test_extended_solution_zoo(benchmark) -> None:
    results = benchmark.pedantic(run_zoo, rounds=1, iterations=1)
    rows = []
    for solution in SOLUTIONS:
        profile, config, response = results[solution]
        rows.append(
            [
                solution,
                f"{profile.tq*1e6:,.0f}",
                f"{profile.tu*1e6:,.1f}",
                f"({config.x},{config.y},{config.z})",
                format_microseconds(response),
            ]
        )
    table = format_table(
        ["solution", "tq (us)", "tu (us)", "MPR (x,y,z)", "Rq (us)"],
        rows,
        title=(
            f"MPR across all six solutions (BJ, λq={LAMBDA_Q:,.0f}, "
            f"λu={LAMBDA_U:,.0f}, 19 cores)"
        ),
    )
    publish("extended_solutions", table)

    # MPR keeps every solution out of overload at this load.
    for solution, (_, _, response) in results.items():
        assert math.isfinite(response), solution
    # Configurations track cost profiles: the slow-update V-tree gets
    # at least as many partition columns as the cheap-update Dijkstra.
    assert results["V-tree"][1].x >= results["Dijkstra"][1].x
