"""Extension bench: closed-loop adaptation over a drifting day.

The paper configures MPR once per workload; deployed services see the
workload drift (Section I's peak hours).  This bench runs a six-phase
"day" through the control loop that reshapes the live pool
(:class:`repro.mpr.ReconfigManager`, polled once per estimator window
over a stand-in system) and compares three policies on the simulated
19-core machine:

* **adaptive MPR** — the loop re-optimizes as the estimate moves (with
  hysteresis), starting from the night optimum;
* **static morning config** — MPR configured once for the first phase
  and never changed (what a one-shot deployment would do);
* **F-Rep** — the fixed replication baseline.

Expected shape: the static config is fine until the workload leaves
its comfort zone, then overloads or degrades; adaptive MPR tracks the
drift and stays finite everywhere.
"""

import math
import random

from common import PAPER_MACHINE, SIM_DURATION, publish

from repro.harness import format_microseconds, format_table
from repro.knn import paper_profile
from repro.mpr import (
    RateEstimator,
    ReconfigManager,
    ReconfigPolicy,
    Scheme,
    Workload,
    configure_scheme,
    full_replication_config,
)
from repro.obs import Telemetry
from repro.sim import measure_response_time

PROFILE = paper_profile("TOAIN", "BJ")

#: A day in six phases: (name, λq, λu), one simulated second each.
DAY = (
    ("night", 1_000.0, 2_000.0),
    ("morning commute", 12_000.0, 30_000.0),
    ("midday", 6_000.0, 15_000.0),
    ("evening peak", 15_000.0, 50_000.0),
    ("late evening", 18_000.0, 8_000.0),
    ("wind down", 3_000.0, 3_000.0),
)

#: Estimator window, and the loop's poll period.
WINDOW = 0.25


class Deployment:
    """What the loop drives, without workers: router counters the day's
    arrivals are counted into, the serving shape, and a ``reconfigure``
    that adopts a proposal on the spot."""

    def __init__(self, config) -> None:
        self.telemetry = Telemetry(max_traces=0)
        self.config = config
        self.reconfigurations = 0

    def reconfigure(self, new_config, **_timeouts) -> None:
        self.config = new_config
        self.reconfigurations += 1


def run_day():
    static = configure_scheme(
        Scheme.MPR, Workload(DAY[0][1], DAY[0][2]), PROFILE, PAPER_MACHINE
    ).config
    frep = full_replication_config(PAPER_MACHINE.total_cores)
    system = Deployment(static)
    manager = ReconfigManager(
        system, PROFILE, PAPER_MACHINE,
        policy=ReconfigPolicy(cooldown=0.0, recalibrate=False),
        estimator=RateEstimator(window=WINDOW, alpha=0.7),
    )

    results = []
    clock = 0.0
    rng = random.Random(11)
    windows = round(1.0 / WINDOW)
    for name, lambda_q, lambda_u in DAY:
        # One simulated second of Poisson arrivals, counted per window.
        arrivals = {"router.queries": [0] * windows,
                    "router.updates": [0] * windows}
        for counter, rate in (("router.queries", lambda_q),
                              ("router.updates", lambda_u)):
            t = clock
            while True:
                t += rng.expovariate(rate)
                if t >= clock + 1.0:
                    break
                arrivals[counter][int((t - clock) / WINDOW)] += 1
        for index in range(windows):
            for counter, counts in arrivals.items():
                system.telemetry.count(counter, counts[index])
            manager.poll(now=clock + index * WINDOW)
        clock += 1.0
        adaptive_config = system.config

        row = {"phase": name}
        for label, config in (
            ("adaptive", adaptive_config),
            ("static", static),
            ("F-Rep", frep),
        ):
            measurement = measure_response_time(
                config, PROFILE, PAPER_MACHINE, lambda_q, lambda_u,
                duration=SIM_DURATION, seed=13,
            )
            row[label] = (
                math.inf if measurement.overloaded
                else measurement.mean_response_time
            )
        row["config"] = (
            f"({adaptive_config.x},{adaptive_config.y},{adaptive_config.z})"
        )
        results.append(row)
    return results, system.reconfigurations


def test_adaptive_controller_day(benchmark) -> None:
    results, reconfigurations = benchmark.pedantic(
        run_day, rounds=1, iterations=1
    )
    rows = [
        [
            row["phase"], row["config"],
            format_microseconds(row["adaptive"]),
            format_microseconds(row["static"]),
            format_microseconds(row["F-Rep"]),
        ]
        for row in results
    ]
    table = format_table(
        ["phase", "adaptive (x,y,z)", "adaptive Rq", "static Rq", "F-Rep Rq"],
        rows,
        title="Adaptive reconfiguration over a drifting day (19 cores)",
    )
    table += f"\nreconfigurations: {reconfigurations}"
    publish("adaptive_controller_day", table)

    # Adaptive stays finite through the whole day.
    assert all(math.isfinite(row["adaptive"]) for row in results)
    # The fixed baseline breaks somewhere (evening peak at the latest).
    assert any(math.isinf(row["F-Rep"]) for row in results)
    # Adaptive never loses badly to static, and wins where static dies.
    for row in results:
        if math.isinf(row["static"]):
            assert math.isfinite(row["adaptive"])
        else:
            assert row["adaptive"] <= row["static"] * 1.25
    # Hysteresis keeps the reconfiguration count modest.
    assert reconfigurations <= len(DAY)
