"""The kNN engines measured: kernel vs heapq, and the two crossovers.

Three tables, all in ``benchmarks/results/knn_kernels.{json,txt}``:

1. **Kernel vs heapq.**  The acceptance bar for the vectorized CSR
   kernels (:mod:`repro.graph.kernels`): on a >=100k-node generated
   network, the kernel-backed Dijkstra-kNN query must run at least 3x
   faster than the classic per-edge ``heapq`` expansion while returning
   identical answers.  The sweep varies object density (sparse objects
   force deep expansions, where batching pays; dense objects terminate
   after a handful of buckets) and includes the full single-source
   search as the no-early-termination extreme.
2. **Heap vs sweep by rows.**  The evidence for the work model's
   constant (``repro.graph.kernels._HEAP_WORK``): per-query time of the
   heap expansion against the shared numpy sweep at 1-16 searches per
   group, in three cells — mprbench's ``serve_open`` w-core (also
   ``pool_update_heavy``'s: 1,000 objects on the 128² grid),
   ``pool_longrange``'s (64 objects on the 256² grid), and a middle
   density whose ``k * n / m`` is ~650.  The model sends a group to the
   heap when ``rows * k * n / m <= _HEAP_WORK``; the table's ``work``
   column is that product, so the crossover reads straight off it.
3. **heapq vs kernel SSSP by graph size.**  The evidence for
   ``repro.graph.shortest_path.KERNEL_MIN_NODES``: median time of a
   full single-source search as :func:`~repro.graph.dijkstra` returns
   it (a ``{node: distance}`` dict) from ``dijkstra_heapq`` and from
   ``kernels.sssp``, on mprbench-style grids of 256 to 16,384 nodes.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_knn_kernels.py
--benchmark-only -s`` (~1.5 min).
"""

import json
import random
import statistics
import time

import numpy as np
from common import RESULTS_DIR, publish

from repro.graph import grid_network
from repro.graph.kernels import _HEAP_WORK, _view
from repro.graph.shortest_path import (
    KERNEL_MIN_NODES,
    dijkstra_expansion,
    dijkstra_heapq,
)
from repro.harness import format_table
from repro.knn import DijkstraKNN

NETWORK = grid_network(
    320, 320, seed=11, diagonal_fraction=0.1, name="kernel-sweep-100k"
)
RNG = random.Random(5)
NUM_QUERIES = 10
K = 10

#: Object-set sizes of the sweep; the paper's workloads put m well
#: below n, where expansions settle a large fraction of the network.
OBJECT_COUNTS = [50, 200, 1000]

#: ``(cell, grid side, objects)`` of the crossover table.  The grids
#: are mprbench's (``grid_network(side, side, seed=7)``).
CELLS = [
    ("serve_open w-core", 128, 1000),
    ("middle density", 128, 250),
    ("pool_longrange w-core", 256, 64),
]
ROWS = [1, 2, 3, 4, 5, 6, 8, 16]
#: Searches timed per (cell, rows, engine); fewer where each is slow.
SEARCHES = {128: 96, 256: 16}

#: Grid sides of the SSSP-by-size table (``grid_network(side, side,
#: seed=7)``): 256 to 16,384 nodes, densest around the crossover.
SSSP_SIDES = [16, 23, 32, 40, 45, 48, 51, 54, 57, 60, 64, 90, 128]
#: Settled nodes timed per (size, engine): more searches on small grids.
SSSP_SETTLED = 60_000


def heapq_knn_query(obj_at, location, k):
    """The legacy per-edge expansion DijkstraKNN used before kernels."""
    found = []
    kth = float("inf")
    for node, distance in dijkstra_expansion(NETWORK, location):
        if len(found) >= k and distance > kth:
            break
        for object_id in obj_at.get(node, ()):
            found.append((distance, object_id))
        if len(found) >= k:
            found.sort()
            kth = found[k - 1][0]
    found.sort()
    return found[:k]


def timed(fn, args_list):
    start = time.perf_counter()
    results = [fn(*args) for args in args_list]
    return (time.perf_counter() - start) / len(args_list), results


def kernel_vs_heapq() -> list[dict]:
    queries = [RNG.randrange(NETWORK.num_nodes) for _ in range(NUM_QUERIES)]
    rows = []
    for num_objects in OBJECT_COUNTS:
        objects = {
            i: RNG.randrange(NETWORK.num_nodes) for i in range(num_objects)
        }
        obj_at: dict[int, list[int]] = {}
        for object_id, node in objects.items():
            obj_at.setdefault(node, []).append(object_id)
        solution = DijkstraKNN(NETWORK, dict(objects))
        solution.query(queries[0], K)  # warm the kernel buffers

        t_heapq, reference = timed(
            lambda q: heapq_knn_query(obj_at, q, K), [(q,) for q in queries]
        )
        t_kernel, answers = timed(
            lambda q: solution.query(q, K), [(q,) for q in queries]
        )
        for answer, expected in zip(answers, reference):
            assert [(n.distance, n.object_id) for n in answer] == expected
        rows.append({
            "workload": f"kNN m={num_objects} k={K}",
            "heapq_ms": t_heapq * 1e3,
            "kernel_ms": t_kernel * 1e3,
            "speedup": t_heapq / t_kernel,
        })

    # The no-early-termination extreme: settle the whole network.
    t_heapq, (ref, _) = timed(lambda s: dijkstra_heapq(NETWORK, s), [(0,), (1,)])
    kernels = NETWORK.kernels
    t_kernel, (got, _) = timed(lambda s: kernels.sssp(s), [(0,), (1,)])
    assert dict(zip(got[0].tolist(), got[1].tolist())) == ref
    rows.append({
        "workload": "full SSSP",
        "heapq_ms": t_heapq * 1e3,
        "kernel_ms": t_kernel * 1e3,
        "speedup": t_heapq / t_kernel,
    })
    return rows


def canonical(nodes, dists, counts):
    pairs = []
    for node, distance in zip(nodes.tolist(), dists.tolist()):
        pairs.extend([(distance, node)] * int(counts[node]))
    return sorted(pairs)[:K]


def heap_vs_sweep() -> list[dict]:
    """Per-query µs of each engine, by cell and searches per group."""
    table = []
    for cell, side, num_objects in CELLS:
        network = grid_network(side, side, seed=7)
        rng = random.Random(side * 1000 + num_objects)
        counts = np.zeros(network.num_nodes, dtype=np.int32)
        for _ in range(num_objects):
            counts[rng.randrange(network.num_nodes)] += 1
        kernels, view = network.kernels, _view(counts)
        settled = K * network.num_nodes / num_objects
        kernels.knn_batch([0, 1], [K, K], counts)  # size the sweep buffer
        for rows in ROWS:
            groups = max(SEARCHES[side] // rows, 2)
            heap_s, sweep_s = [], []
            for _ in range(groups):
                sources = rng.sample(range(network.num_nodes), rows)
                started = time.perf_counter()
                heap = [kernels._heap_topk(s, K, view, None) for s in sources]
                heap_s.append(time.perf_counter() - started)
                started = time.perf_counter()
                sweep = kernels.knn_batch(sources, [K] * rows, counts)
                sweep_s.append(time.perf_counter() - started)
                for one, other in zip(heap, sweep):
                    assert canonical(*one, counts) == canonical(*other, counts)
            heap_us = statistics.median(heap_s) / rows * 1e6
            sweep_us = statistics.median(sweep_s) / rows * 1e6
            table.append({
                "cell": cell,
                "nodes": network.num_nodes,
                "objects": num_objects,
                "rows": rows,
                "work": rows * settled,
                "heap_us": heap_us,
                "sweep_us": sweep_us,
                "faster": "heap" if heap_us < sweep_us else "sweep",
                "model": "heap" if rows * settled <= _HEAP_WORK else "sweep",
            })
    return table


def sssp_by_size() -> list[dict]:
    """Median ms of one full SSSP per engine, by grid size, as the
    ``{node: distance}`` dict :func:`~repro.graph.dijkstra` returns."""
    table = []
    for side in SSSP_SIDES:
        network = grid_network(side, side, seed=7)
        n = network.num_nodes
        kernels = network.kernels
        rng = random.Random(side)
        sources = [rng.randrange(n) for _ in range(max(SSSP_SETTLED // n, 8))]
        dijkstra_heapq(network, 0)  # build the list view
        kernels.sssp(0)  # size the distance buffer
        heapq_s, kernel_s = [], []
        for source in sources:
            started = time.perf_counter()
            reference = dijkstra_heapq(network, source)
            heapq_s.append(time.perf_counter() - started)
            started = time.perf_counter()
            nodes, dists = kernels.sssp(source)
            got = dict(zip(nodes.tolist(), dists.tolist()))
            kernel_s.append(time.perf_counter() - started)
            assert got == reference
        heapq_ms = statistics.median(heapq_s) * 1e3
        kernel_ms = statistics.median(kernel_s) * 1e3
        table.append({
            "nodes": n,
            "searches": len(sources),
            "heapq_ms": heapq_ms,
            "kernel_ms": kernel_ms,
            "faster": "heapq" if heapq_ms < kernel_ms else "kernel",
            "dijkstra": "kernel" if n >= KERNEL_MIN_NODES else "heapq",
        })
    return table


def crossover(table: list[dict]) -> dict[str, list[float]]:
    """Per cell: the largest work the heap won at and the smallest the
    sweep won at (``None`` where one engine won every row count)."""
    bounds = {}
    for cell, *_ in CELLS:
        entries = [row for row in table if row["cell"] == cell]
        heap = [row["work"] for row in entries if row["faster"] == "heap"]
        sweep = [row["work"] for row in entries if row["faster"] == "sweep"]
        bounds[cell] = [max(heap, default=None), min(sweep, default=None)]
    return bounds


def test_kernel_vs_heapq_sweep(benchmark) -> None:
    rows, table, by_size = benchmark.pedantic(
        lambda: (kernel_vs_heapq(), heap_vs_sweep(), sssp_by_size()),
        rounds=1, iterations=1,
    )
    bounds = crossover(table)
    size_bounds = [
        max((row["nodes"] for row in by_size if row["faster"] == "heapq"),
            default=None),
        min((row["nodes"] for row in by_size if row["faster"] == "kernel"),
            default=None),
    ]

    kernel_table = format_table(
        ["Workload", "heapq (ms)", "kernel (ms)", "speedup"],
        [
            [
                row["workload"],
                f"{row['heapq_ms']:.1f}",
                f"{row['kernel_ms']:.1f}",
                f"{row['speedup']:.1f}x",
            ]
            for row in rows
        ],
        title=(
            f"CSR kernels vs heapq on {NETWORK.name} "
            f"({NETWORK.num_nodes} nodes, {NETWORK.num_edges} edges, "
            f"{NUM_QUERIES} queries)"
        ),
    )
    crossover_table = format_table(
        ["Cell", "rows", "work", "heap (us/q)", "sweep (us/q)", "faster",
         "model"],
        [
            [
                row["cell"], row["rows"], f"{row['work']:.0f}",
                f"{row['heap_us']:.0f}", f"{row['sweep_us']:.0f}",
                row["faster"], row["model"],
            ]
            for row in table
        ],
        title=(
            f"Heap expansion vs shared sweep, k={K}; work = rows * k*n/m; "
            f"the model takes the heap at work <= {_HEAP_WORK}"
        ),
    )
    bound_lines = "\n".join(
        f"{cell}: heap won up to work {_fmt(heap)}, sweep from {_fmt(sweep)}"
        for cell, (heap, sweep) in bounds.items()
    )
    size_table = format_table(
        ["nodes", "searches", "heapq (ms)", "kernel (ms)", "faster",
         "dijkstra"],
        [
            [
                row["nodes"], row["searches"], f"{row['heapq_ms']:.2f}",
                f"{row['kernel_ms']:.2f}", row["faster"], row["dijkstra"],
            ]
            for row in by_size
        ],
        title=(
            "Full SSSP as dijkstra() returns it, heapq vs kernel, on "
            "grid_network(side, side, seed=7); dijkstra() takes the kernel "
            f"at >= {KERNEL_MIN_NODES} nodes"
        ),
    )
    size_line = (
        f"SSSP: heapq won up to {_fmt(size_bounds[0])} nodes, "
        f"kernel from {_fmt(size_bounds[1])}"
    )
    publish("knn_kernels", "\n\n".join([
        kernel_table, crossover_table, bound_lines, size_table, size_line
    ]))
    (RESULTS_DIR / "knn_kernels.json").write_text(
        json.dumps(
            {
                "network": {
                    "name": NETWORK.name,
                    "num_nodes": NETWORK.num_nodes,
                    "num_edges": NETWORK.num_edges,
                },
                "k": K,
                "num_queries": NUM_QUERIES,
                "rows": rows,
                "heap_work_limit": _HEAP_WORK,
                "crossover": table,
                "crossover_bounds": bounds,
                "kernel_min_nodes": KERNEL_MIN_NODES,
                "sssp_by_size": by_size,
                "sssp_crossover_nodes": size_bounds,
            },
            indent=2,
        )
        + "\n"
    )

    # The acceptance bar: >=3x on the sparse-object workload (deep
    # expansions, the regime the kernels exist for) and on full SSSP.
    by_name = {row["workload"]: row for row in rows}
    assert by_name[f"kNN m={OBJECT_COUNTS[0]} k={K}"]["speedup"] >= 3.0
    assert by_name["full SSSP"]["speedup"] >= 3.0
    # The model's routing of the two mprbench cells (work, not timing):
    # a lone serve_open search takes the heap, pool_longrange never does.
    model = {(row["cell"], row["rows"]): row["model"] for row in table}
    assert model[("serve_open w-core", 1)] == "heap"
    assert {model[("pool_longrange w-core", rows)] for rows in ROWS} == {
        "sweep"
    }


def _fmt(work) -> str:
    return "-" if work is None else f"{work:.0f}"
