"""Location-based game events: the paper's Pokémon GO application.

Game objects appear at and disappear from points of interest — the
paper's NW-RU setting, where "an insert update will only place an
object at one of the POIs" and updates are unpaired appear/disappear
events rather than movements.

The example demonstrates **workload adaptability** (Section I): the
same game backend sees very different query/update mixtures over a day
(quiet morning vs. raid-hour evening), and MPR reconfigures its core
matrix for each — which a fixed F-Rep or F-Part deployment cannot do.

Run:  python examples/pokemon_events.py
"""

from repro.graph import generate_pois, scaled_replica
from repro.harness import format_table
from repro.knn import VTreeKNN, paper_profile
from repro.mpr import (
    MachineSpec,
    Scheme,
    Workload,
    build_executor,
    configure_all_schemes,
    run_serial_reference,
)
from repro.sim import measure_response_time
from repro.workload import UpdateMode, generate_workload

#: Day phases as (name, λq, λu) at paper scale — players issue "nearby
#: tracking" queries; the game spawns/despawns Pokémon at POIs.
DAY_PHASES = (
    ("quiet morning", 2_000.0, 500.0),
    ("lunch spike", 12_000.0, 2_000.0),
    ("raid hour", 20_000.0, 10_000.0),
    ("spawn rotation", 4_000.0, 30_000.0),
)


def functional_demo() -> None:
    network = scaled_replica("NW", scale=1.0 / 2000.0, seed=3)
    pois = generate_pois(network, 40, seed=3)
    print(
        f"North-West replica: {network.num_nodes} junctions, "
        f"{len(pois)} POIs hosting spawns"
    )
    workload = generate_workload(
        network, num_objects=50, lambda_q=60.0, lambda_u=60.0,
        duration=1.0, mode=UpdateMode.RANDOM, k=5, seed=5,
        insert_sites=pois,
    )
    game_index = VTreeKNN(network)
    config = configure_all_schemes(
        Workload(60.0, 60.0), paper_profile("V-tree", "NW"),
        MachineSpec(total_cores=8),
    )[Scheme.MPR].config
    with build_executor(
        config, game_index, workload.initial_objects, check_invariants=True
    ) as executor:
        answers = executor.run(workload.tasks)
    reference = run_serial_reference(
        game_index, workload.initial_objects, workload.tasks
    )
    exact = all(
        answers[q].ok and list(answers[q].neighbors) == reference[q]
        for q in reference
    )
    print(
        f"served {len(answers)} nearby-tracking queries over "
        f"{workload.num_updates} spawn/despawn events "
        f"(exact vs serial: {exact})\n"
    )


def day_cycle() -> None:
    profile = paper_profile("V-tree", "NW", object_count=13_132)
    machine = MachineSpec(total_cores=19)
    rows = []
    for phase, lambda_q, lambda_u in DAY_PHASES:
        choices = configure_all_schemes(
            Workload(lambda_q, lambda_u), profile, machine
        )
        mpr = choices[Scheme.MPR]
        measurement = measure_response_time(
            mpr.config, profile, machine, lambda_q, lambda_u,
            duration=1.0, seed=2,
        )
        frep = measure_response_time(
            choices[Scheme.F_REP].config, profile, machine,
            lambda_q, lambda_u, duration=1.0, seed=2,
        )
        rows.append(
            [
                phase,
                f"{lambda_q:,.0f}/{lambda_u:,.0f}",
                f"({mpr.config.x},{mpr.config.y},{mpr.config.z})",
                measurement.display,
                frep.display,
            ]
        )
    print(
        format_table(
            ["phase", "λq/λu", "MPR (x,y,z)", "MPR Rq", "F-Rep Rq"],
            rows,
            title="A game day on 19 cores: MPR re-configures per phase",
        )
    )


if __name__ == "__main__":
    functional_demo()
    day_cycle()
