"""The kNN engines measured: kernel vs heapq, and the crossovers.

Five tables, all in ``benchmarks/results/knn_kernels.{json,txt}``:

1. **Kernel vs heapq.**  The acceptance bar for the vectorized CSR
   kernels (:mod:`repro.graph.kernels`): on a >=100k-node generated
   network, the kernel-backed Dijkstra-kNN query must run at least 3x
   faster than the classic per-edge ``heapq`` expansion while returning
   identical answers.  The sweep varies object density (sparse objects
   force deep expansions, where batching pays; dense objects terminate
   after a handful of buckets) and includes the full single-source
   search as the no-early-termination extreme.
2. **Heap vs sweep by rows.**  The evidence for the work model's heap
   constant (``repro.graph.kernels._HEAP_WORK``): per-query time of the
   heap expansion against the shared sweep the model runs otherwise
   (one capped window or delta-wide windows, by density) at 1-16
   searches per group, in three cells — mprbench's ``serve_open`` and
   ``pool_update_heavy`` w-core (1,000 objects on the 128² grid),
   ``pool_longrange``'s (64 objects on the 256² grid), and a middle
   density whose ``k * n / m`` is ~650.  The model sends a group to the
   heap when ``rows * k * n / m <= _HEAP_WORK``; the table's ``work``
   column is that product, so the crossover reads straight off it.
3. **Windowed vs capped sweep by rows.**  The evidence for the work
   model's window constant (``repro.graph.kernels._ONE_WINDOW_WORK``):
   per-query time of the same shared sweep run as delta-wide windows
   and as one capped window relaxed to a fixpoint, at 1-16 rows, on the
   dense cell, the middle density and ``pool_longrange``'s cell, and on
   the 128² grid with log-uniform weights in [1, 100] (a wide weight
   band, where a fixpoint re-relaxes more).  The model runs one window
   on a narrow band, and on a wide one when a search's ``k * n / m`` is
   at most ``_ONE_WINDOW_WORK``.
4. **Windowed vs capped by weight band.**  The evidence for the band
   limit (``repro.graph.kernels._NARROW_BAND``) and the wide band's
   ``_ONE_WINDOW_WORK``: both sweeps at 1, 4 and 16 rows, at ``k * n /
   m`` of 655, 1,311, 2,621 and 10,240 (pool_longrange's), on the 128²
   grid, on its topology under log-uniform weights of max/min ratio 3,
   10, 100 and 1,000, on ``ring_radial_network`` and on the NY
   ``scaled_replica``.  Each network's row carries the probe statistic
   the model reads (relaxations per reached node of one capped probe
   search).  The bench asserts that the model's engine is the faster
   one, or at most 5 % slower, on every narrow-band row and on every
   row at pool_longrange's density; at a wide band's middle densities
   it reports the rows where it is not.
5. **heapq vs kernel SSSP by graph size.**  The evidence for
   ``repro.graph.shortest_path.KERNEL_MIN_NODES``: median time of a
   full single-source search as :func:`~repro.graph.dijkstra` returns
   it (a ``{node: distance}`` dict) from ``dijkstra_heapq`` and from
   ``kernels.sssp``, on mprbench-style grids of 256 to 16,384 nodes
   and on their log-uniform [1, 100] twins.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_knn_kernels.py
--benchmark-only -s`` (~1 min).
"""

import json
import random
import statistics
import time

import numpy as np
from common import RESULTS_DIR, publish

from repro.graph import (
    RoadNetwork,
    grid_network,
    ring_radial_network,
    scaled_replica,
)
from repro.graph.kernels import (
    _HEAP_WORK,
    _NARROW_BAND,
    _ONE_WINDOW_WORK,
    _view,
)
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

#: ``(cell, grid side, objects)`` of the heap table.  The grids are
#: mprbench's (``grid_network(side, side, seed=7)``).
CELLS = [
    ("serve_open w-core", 128, 1000),
    ("middle density", 128, 250),
    ("pool_longrange w-core", 256, 64),
]
#: ``(cell, grid side, objects, wide weights)`` of the window table.
WINDOW_CELLS = [
    ("pool_update_heavy w-core", 128, 1000, False),
    ("middle density", 128, 250, False),
    ("pool_longrange w-core", 256, 64, False),
    ("wide weights, dense", 128, 1000, True),
    ("wide weights, 500 objects", 128, 500, True),
    ("wide weights, middle", 128, 250, True),
]
#: ``(name, builder)`` of the band table: the mprbench grid (narrow),
#: its topology under log-uniform weights of four max/min ratios, and
#: two other generators' networks.
BAND_NETWORKS = [
    ("grid 128x128", lambda: grid_network(128, 128, seed=7)),
    ("log-uniform x3", lambda: wide_grid(128, 3.0)),
    ("log-uniform x10", lambda: wide_grid(128, 10.0)),
    ("log-uniform x100", lambda: wide_grid(128, 100.0)),
    ("log-uniform x1000", lambda: wide_grid(128, 1000.0)),
    ("ring-radial 60x250", lambda: ring_radial_network(60, 250, seed=3)),
    ("NY replica 1/20", lambda: scaled_replica("NY", scale=1 / 20)),
]
#: Expected settled nodes per search (``k * n / m``) of the band table:
#: two middle densities and pool_longrange's.
BAND_DENSITIES = [655, 1311, 2621, 10240]
BAND_ROWS = [1, 4, 16]
BAND_SEARCHES = 48
#: The band table's bar: the model's engine is at most 5 % slower than
#: the faster one.
WITHIN = 1.05
ROWS = [1, 2, 3, 4, 5, 6, 8, 16]
#: Searches timed per (cell, rows, engine); fewer where each is slow,
#: but never fewer than 8 groups (the band table's floor).
SEARCHES = {128: 96, 256: 16}

#: Grid sides of the SSSP-by-size table (``grid_network(side, side,
#: seed=7)``): 256 to 16,384 nodes, densest around the crossover.
SSSP_SIDES = [16, 23, 32, 40, 45, 48, 51, 54, 57, 60, 64, 90, 128]
#: Settled nodes timed per (size, engine): more searches on small grids.
SSSP_SETTLED = 60_000
#: The size tables' weight bands: mprbench's grid and its log-uniform
#: [1, 100] twin (:func:`wide_grid`).
SIZE_BANDS = ["narrow", "wide"]


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


def wide_grid(side: int, ratio: float = 100.0) -> RoadNetwork:
    """``grid_network(side, side, seed=7)``'s edges with log-uniform
    weights in [1, ``ratio``]: a road-like spread of travel times."""
    base = grid_network(side, side, seed=7)
    indptr, indices, _ = base.csr_arrays
    sources = np.repeat(np.arange(base.num_nodes), np.diff(indptr))
    forward = sources < indices
    u, v = sources[forward], indices[forward]
    weights = np.exp(
        np.random.default_rng(side).uniform(0, np.log(ratio), len(u))
    )
    return RoadNetwork.from_edge_arrays(base.num_nodes, u, v, weights)


def cell_counts(network, side: int, num_objects: int) -> np.ndarray:
    """The cell's per-node object counts (seeded by the cell)."""
    rng = random.Random(side * 1000 + num_objects)
    counts = np.zeros(network.num_nodes, dtype=np.int32)
    for _ in range(num_objects):
        counts[rng.randrange(network.num_nodes)] += 1
    return counts


def sweep(kernels, sources, counts, width):
    """One shared sweep of ``K``-searches at window ``width``."""
    rows = len(sources)
    return kernels._batch_topk(
        np.asarray(sources, dtype=np.int64), np.full(rows, K, dtype=np.int64),
        counts, np.zeros(rows, dtype=np.int64), np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64), width,
    )


def heap_vs_sweep() -> list[dict]:
    """Per-query µs of each engine, by cell and searches per group."""
    table = []
    for cell, side, num_objects in CELLS:
        network = grid_network(side, side, seed=7)
        counts = cell_counts(network, side, num_objects)
        rng = random.Random(side * 1000 + num_objects)
        kernels, view = network.kernels, _view(counts)
        settled = K * network.num_nodes / num_objects
        width = kernels._window_width(K, num_objects)
        sweep(kernels, [0, 1], counts, width)  # size the sweep buffer
        for rows in ROWS:
            groups = max(SEARCHES[side] // rows, 8)
            heap_s, sweep_s = [], []
            for _ in range(groups):
                sources = rng.sample(range(network.num_nodes), rows)
                started = time.perf_counter()
                heap = [kernels._heap_topk(s, K, view, None) for s in sources]
                heap_s.append(time.perf_counter() - started)
                started = time.perf_counter()
                swept = sweep(kernels, sources, counts, width)
                sweep_s.append(time.perf_counter() - started)
                for one, other in zip(heap, swept):
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


def model_engine(kernels, num_objects: int) -> str:
    """The sweep engine the work model picks for ``K``-searches."""
    width = kernels._window_width(K, num_objects)
    return "capped" if width == float("inf") else "windowed"


def engine_times(network, counts, rows, groups, rng) -> tuple[float, float]:
    """Per-query µs of one shared sweep of ``rows`` searches as
    delta-wide windows and as one capped window: the median over
    ``groups`` random groups, the two engines alternating first."""
    kernels = network.kernels
    timings: dict[str, list[float]] = {"windowed": [], "capped": []}
    for group in range(groups):
        sources = rng.sample(range(network.num_nodes), rows)
        answers = {}
        order = ("windowed", "capped")
        for engine in order if group % 2 else order[::-1]:
            started = time.perf_counter()
            answers[engine] = sweep(
                kernels, sources, counts,
                None if engine == "windowed" else float("inf"),
            )
            timings[engine].append(time.perf_counter() - started)
        for one, other in zip(answers["windowed"], answers["capped"]):
            assert canonical(*one, counts) == canonical(*other, counts)
    return tuple(
        statistics.median(timings[engine]) / rows * 1e6
        for engine in ("windowed", "capped")
    )


def windowed_vs_capped() -> list[dict]:
    """Per-query µs of one shared sweep as delta-wide windows and as one
    capped window, by cell and rows; the two alternate per group."""
    table = []
    for cell, side, num_objects, wide in WINDOW_CELLS:
        network = wide_grid(side) if wide else grid_network(side, side, seed=7)
        counts = cell_counts(network, side, num_objects)
        rng = random.Random(side * 1000 + num_objects + wide)
        kernels = network.kernels
        sweep(kernels, [0, 1], counts, None)  # size the sweep buffer
        for rows in ROWS:
            windowed_us, capped_us = engine_times(
                network, counts, rows, max(SEARCHES[side] // rows, 8), rng
            )
            table.append({
                "cell": cell,
                "nodes": network.num_nodes,
                "objects": num_objects,
                "rows": rows,
                "per_search": K * network.num_nodes / num_objects,
                "windowed_us": windowed_us,
                "capped_us": capped_us,
                "faster": "capped" if capped_us < windowed_us else "windowed",
                "model": model_engine(kernels, num_objects),
            })
    return table


def by_band() -> list[dict]:
    """Per-query µs of both sweep engines on every band network, at two
    middle densities and the sparse one, by rows; ``ok`` says the model's
    engine is the faster one or at most ``WITHIN`` slower."""
    table = []
    for name, build in BAND_NETWORKS:
        network = build()
        n = network.num_nodes
        kernels = network.kernels
        relaxations = kernels._relaxations_per_node()
        for density in BAND_DENSITIES:
            num_objects = max(round(K * n / density), 1)
            counts = cell_counts(network, n, num_objects)
            rng = random.Random(n * 1000 + num_objects)
            sweep(kernels, [0, 1], counts, None)  # size the sweep buffer
            model = model_engine(kernels, num_objects)
            for rows in BAND_ROWS:
                windowed_us, capped_us = engine_times(
                    network, counts, rows, max(BAND_SEARCHES // rows, 8), rng
                )
                times = {"windowed": windowed_us, "capped": capped_us}
                table.append({
                    "network": name,
                    "nodes": n,
                    "relaxations_per_node": relaxations,
                    "objects": num_objects,
                    "density": density,
                    "per_search": K * n / num_objects,
                    "rows": rows,
                    "windowed_us": windowed_us,
                    "capped_us": capped_us,
                    "faster": min(times, key=times.get),
                    "model": model,
                    "ok": times[model] <= WITHIN * min(times.values()),
                })
    return table


def size_network(side: int, band: str) -> RoadNetwork:
    """The SSSP tables' grid: mprbench's, or its log-uniform twin."""
    if band == "wide":
        return wide_grid(side)
    return grid_network(side, side, seed=7)


def sssp_by_size() -> list[dict]:
    """Median ms of one full SSSP per engine, by grid size and weight
    band, as the ``{node: distance}`` dict :func:`~repro.graph.dijkstra`
    returns."""
    table = []
    for band in SIZE_BANDS:
        for side in SSSP_SIDES:
            network = size_network(side, band)
            n = network.num_nodes
            kernels = network.kernels
            rng = random.Random(side)
            sources = [
                rng.randrange(n) for _ in range(max(SSSP_SETTLED // n, 8))
            ]
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
                "band": band,
                "nodes": n,
                "searches": len(sources),
                "heapq_ms": heapq_ms,
                "kernel_ms": kernel_ms,
                "faster": "heapq" if heapq_ms < kernel_ms else "kernel",
                "dijkstra": "kernel" if n >= KERNEL_MIN_NODES else "heapq",
            })
    return table


def size_crossover(table: list[dict]) -> dict[str, list]:
    """Per band: the largest size heapq won at and the smallest the
    kernel won at (``None`` where one engine won every size)."""
    return {
        band: [
            max((row["nodes"] for row in table
                 if row["band"] == band and row["faster"] == "heapq"),
                default=None),
            min((row["nodes"] for row in table
                 if row["band"] == band and row["faster"] == "kernel"),
                default=None),
        ]
        for band in SIZE_BANDS
    }


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


def window_crossover(table: list[dict]) -> dict[str, str]:
    """Per window-table cell: which engine won at every row count, or
    the row counts each won at."""
    verdicts = {}
    for cell, *_ in WINDOW_CELLS:
        entries = [row for row in table if row["cell"] == cell]
        winners = {row["faster"] for row in entries}
        if len(winners) == 1:
            verdicts[cell] = f"{winners.pop()} at every row count"
        else:
            verdicts[cell] = "; ".join(
                f"{engine} at rows "
                + ",".join(str(r["rows"]) for r in entries
                           if r["faster"] == engine)
                for engine in ("capped", "windowed")
            )
    return verdicts


def test_kernel_vs_heapq_sweep(benchmark) -> None:
    rows, table, windows, bands, by_size = benchmark.pedantic(
        lambda: (
            kernel_vs_heapq(), heap_vs_sweep(), windowed_vs_capped(),
            by_band(), sssp_by_size(),
        ),
        rounds=1, iterations=1,
    )
    bounds = crossover(table)
    window_verdicts = window_crossover(windows)
    size_bounds = size_crossover(by_size)

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
            f"Heap expansion vs the model's shared sweep, k={K}; work = "
            f"rows * k*n/m; the model takes the heap at work <= {_HEAP_WORK}"
        ),
    )
    window_table = format_table(
        ["Cell", "rows", "k*n/m", "windowed (us/q)", "capped (us/q)",
         "faster", "model"],
        [
            [
                row["cell"], row["rows"], f"{row['per_search']:.0f}",
                f"{row['windowed_us']:.0f}", f"{row['capped_us']:.0f}",
                row["faster"], row["model"],
            ]
            for row in windows
        ],
        title=(
            f"Delta-wide windows vs one capped window, k={K}; the model "
            f"runs one window on a narrow band, else at k*n/m <= "
            f"{_ONE_WINDOW_WORK}"
        ),
    )
    window_lines = "\n".join(
        f"{cell}: {verdict}" for cell, verdict in window_verdicts.items()
    )
    band_table = format_table(
        ["Network", "relax/node", "k*n/m", "rows", "windowed (us/q)",
         "capped (us/q)", "faster", "model", "within 5%"],
        [
            [
                row["network"], f"{row['relaxations_per_node']:.2f}",
                f"{row['per_search']:.0f}", row["rows"],
                f"{row['windowed_us']:.0f}", f"{row['capped_us']:.0f}",
                row["faster"], row["model"], "yes" if row["ok"] else "NO",
            ]
            for row in bands
        ],
        title=(
            f"Windowed vs capped by weight band, k={K}; relax/node is the "
            f"probe's relaxations per reached node, narrow at <= "
            f"{_NARROW_BAND} (one window at any density), else one window "
            f"at k*n/m <= {_ONE_WINDOW_WORK}"
        ),
    )
    misses = [row for row in bands if not row["ok"]]
    band_line = f"band table: the model's engine is within 5% of the " \
        f"faster one on {len(bands) - len(misses)} of {len(bands)} rows" + (
            "; slower on " + ", ".join(
                f"{row['network']} k*n/m {row['per_search']:.0f} "
                f"rows {row['rows']} (+{_loss(row):.0%})"
                for row in misses
            ) if misses else ""
        )
    bound_lines = "\n".join(
        f"{cell}: heap won up to work {_fmt(heap)}, sweep from {_fmt(sweep)}"
        for cell, (heap, sweep) in bounds.items()
    )
    size_table = format_table(
        ["band", "nodes", "searches", "heapq (ms)", "kernel (ms)", "faster",
         "dijkstra"],
        [
            [
                row["band"], row["nodes"], row["searches"],
                f"{row['heapq_ms']:.2f}", f"{row['kernel_ms']:.2f}",
                row["faster"], row["dijkstra"],
            ]
            for row in by_size
        ],
        title=(
            "Full SSSP as dijkstra() returns it, heapq vs kernel, on "
            "grid_network(side, side, seed=7) (narrow) and its log-uniform "
            "[1, 100] twin (wide); dijkstra() takes the kernel at >= "
            f"{KERNEL_MIN_NODES} nodes"
        ),
    )
    size_line = "\n".join(
        f"SSSP, {band} band: heapq won up to {_fmt(heapq_won)} nodes, "
        f"kernel from {_fmt(kernel_won)}"
        for band, (heapq_won, kernel_won) in size_bounds.items()
    )
    publish("knn_kernels", "\n\n".join([
        kernel_table, crossover_table, bound_lines, window_table,
        window_lines, band_table, band_line, size_table, size_line,
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
                "one_window_work_limit": _ONE_WINDOW_WORK,
                "narrow_band_limit": _NARROW_BAND,
                "window_crossover": windows,
                "window_verdicts": window_verdicts,
                "band_crossover": bands,
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
    # ... and of the window width: mprbench's grids are a narrow band,
    # so both cells run one capped window.
    widths = {row["cell"]: row["model"] for row in windows}
    assert widths["pool_update_heavy w-core"] == "capped"
    assert widths["pool_longrange w-core"] == "capped"
    # The band rule sends every narrow-band row, and every row at
    # pool_longrange's density, to the faster engine or to one at most
    # 5 % slower.  At the middle densities of a wide band the faster
    # engine turns with the row count and the network, which no
    # density limit follows: those rows are reported, not asserted.
    claimed = [
        row for row in misses
        if row["relaxations_per_node"] <= _NARROW_BAND
        or row["density"] == BAND_DENSITIES[-1]
    ]
    assert not claimed, band_line


def _loss(row: dict) -> float:
    """How much slower the model's engine ran than the faster one."""
    times = {"windowed": row["windowed_us"], "capped": row["capped_us"]}
    return times[row["model"]] / min(times.values()) - 1


def _fmt(work) -> str:
    return "-" if work is None else f"{work:.0f}"
