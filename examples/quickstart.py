"""Quickstart: kNN search on a road network, then MPR in five minutes.

Walks the full public API surface:

1. build a road network and place moving objects on it;
2. answer kNN queries with three interchangeable solutions;
3. profile a solution's (tq, Vq, tu, Vu) characteristics;
4. let MPR self-configure a core matrix for a workload;
5. run a real query/update stream through the threaded core matrix and
   check it against serial execution.

Run:  python examples/quickstart.py
"""

from repro.graph import grid_network
from repro.knn import DijkstraKNN, ToainKNN, VTreeKNN, measure_profile
from repro.mpr import (
    MachineSpec,
    Scheme,
    Workload,
    build_executor,
    configure_scheme,
    run_serial_reference,
)
from repro.workload import UpdateMode, generate_workload


def main() -> None:
    # 1. A 30x30 jittered grid standing in for a small city.
    network = grid_network(30, 30, seed=7, diagonal_fraction=0.2)
    print(f"network: {network.num_nodes} junctions, {network.num_edges} roads")

    # 2. Eighty taxis at random junctions; ask every solution for the
    #    5 nearest taxis to junction 443 — answers are identical.
    import random

    rng = random.Random(1)
    taxis = {taxi: rng.randrange(network.num_nodes) for taxi in range(80)}
    for solution_cls in (DijkstraKNN, VTreeKNN, ToainKNN):
        solution = solution_cls(network, taxis)
        nearest = solution.query(443, 5)
        print(
            f"{solution.name:>9s}: nearest taxi is #{nearest[0].object_id} "
            f"at {nearest[0].distance:,.0f} m "
            f"(k=5 ids: {[n.object_id for n in nearest]})"
        )

    # 3. Profile TOAIN the way the paper prescribes (isolated ops).
    solution = ToainKNN(network, taxis)
    profile = measure_profile(
        solution, k=5, num_queries=30, num_updates=30,
        num_nodes=network.num_nodes,
    )
    print(
        f"\nprofile({profile.name}): tq={profile.tq*1e6:,.0f}us "
        f"(γq={profile.gamma_q:.2f}), tu={profile.tu*1e6:,.1f}us"
    )

    # 4. MPR self-configures for a workload on a 12-core machine.
    machine = MachineSpec(total_cores=12)
    lambda_q = 0.5 / profile.tq  # half of one core's query capacity ...
    lambda_u = 2.0 * lambda_q    # ... plus twice as many updates
    choice = configure_scheme(
        Scheme.MPR, Workload(lambda_q, lambda_u), profile, machine
    )
    print(
        f"MPR chose x={choice.config.x} partitions, y={choice.config.y} "
        f"replicas, z={choice.config.z} layers "
        f"({choice.config.total_cores} cores); predicted "
        f"Rq={choice.predicted_value*1e6:,.0f}us"
    )

    # 5. Execute a real stream through the threaded core matrix.
    workload = generate_workload(
        network, num_objects=80, lambda_q=100.0, lambda_u=200.0,
        duration=1.0, mode=UpdateMode.RANDOM, k=5, seed=3,
    )
    executor = build_executor(
        choice.config, solution, workload.initial_objects,
        check_invariants=True,
    )
    answers = executor.run(workload.tasks)
    executor.close()
    reference = run_serial_reference(
        solution, workload.initial_objects, workload.tasks
    )
    agreement = all(
        answers[q].ok and list(answers[q].neighbors) == reference[q]
        for q in reference
    )
    print(
        f"\nexecuted {len(workload.tasks)} tasks "
        f"({workload.num_queries} queries) on the core matrix; "
        f"serial-equivalent answers: {agreement}"
    )


if __name__ == "__main__":
    main()
