"""Graph-tier scaling curve: build, cache, O(1) attach, and kNN engines.

Sweeps synthetic integer-weight grids from thousands to ~1M nodes and
records, per size:

* ``build_s``   — vectorized ``from_edge_arrays`` construction;
* ``save_s``    — ``save_cache`` (write ``.npy`` files + manifest);
* ``attach_ms`` — ``open_cache`` memmap attach (median of 5).  The
  headline claim is that this column is *flat*: attach cost is
  independent of graph size because only the manifest is read eagerly;
* ``ch_build_s`` — ``ContractionHierarchy``: batched independent-set
  rounds down to the last node, serial (the checked-in artifact's
  ``ch_build`` row, 24x over the seed lazy-heap builder at 262k nodes,
  is historical: that builder is gone), plus ``ch_save_s`` and
  ``ch_attach_ms`` for the persisted hierarchy (``save_ch_cache`` /
  ``load_cached_ch`` — attach is an O(1) memmap like the graph's);
* long-range kNN latency (few objects, so a plain expansion settles a
  large region) for three engines — the vectorized ``CSRKernels`` top-k,
  the CH hub-label join (``repro.graph.ch``), and the classic ``heapq``
  expansion ("Simpler is More" head-to-head).  CH and heapq are capped
  at smaller sizes (CH construction is offline-but-Python; heapq is the
  point of the comparison).

Artifacts: ``benchmarks/results/graph_scale.{json,txt}``; run with
``--smoke`` for the ~1M-node assertion run of ``tools/ci.sh scale`` (build +
cache + attach flatness only, no engine sweep at the big sizes).

    PYTHONPATH=src python tools/bench_graph_scale.py [--smoke] [--sides 64 256]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from heapq import heappop, heappush
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.graph import (  # noqa: E402
    ContractionHierarchy,
    load_cached_ch,
    open_cache,
    save_ch_cache,
)
from repro.graph.road_network import RoadNetwork  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

SEED = 20250809
FULL_SIDES = (64, 128, 256, 512, 1024)
SMOKE_SIDES = (64, 512, 1024)
CH_MAX_SIDE = 256     # hub-label warm/query comparison: labels are RAM-heavy
CH_BUILD_MAX_SIDE = 1024  # batched builder: measured up to ~1M nodes
SMOKE_CH_MIN_SIDE = 512   # smoke builds+persists+attaches CH from here up
HEAPQ_MAX_SIDE = 256  # the baseline the kernels replaced; slow by design
NUM_OBJECTS = 32      # sparse objects => long-range queries
K = 8
NUM_QUERIES = 8
ATTACH_REPEATS = 5
#: Smoke acceptance: attach at ~1M nodes within this factor of the
#: smallest size's attach (i.e. flat, not O(n)).
ATTACH_FLAT_FACTOR = 25.0
#: Smoke acceptance: a persisted hierarchy attaches in O(1) — under
#: this bound even at ~1M nodes.
CH_ATTACH_BUDGET_MS = 10.0


def int_grid(side: int, seed: int = SEED) -> RoadNetwork:
    """A ``side``×``side`` grid with random *integral* weights in [1, 10].

    Integral weights make every path sum exact in float64, which is the
    precondition for CH answers being bit-identical (``ch.exact``).
    Built fully vectorized: ~1M nodes in well under a second.
    """
    rng = np.random.default_rng(seed)
    n = side * side
    idx = np.arange(n).reshape(side, side)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    w = rng.integers(1, 11, size=len(u)).astype(np.float64)
    ys, xs = np.divmod(np.arange(n), side)
    coords = np.stack([xs, ys], axis=1).astype(np.float64)
    return RoadNetwork.from_edge_arrays(
        n, u, v, w, coordinates=coords, name=f"int-grid-{side}"
    )


def heapq_topk(network: RoadNetwork, source: int, counts: np.ndarray, k: int):
    """The classic heap-based top-k expansion (pre-kernel baseline)."""
    offsets, targets, weights = network.csr
    remaining = int(counts.sum())
    found: list[tuple[int, float]] = []
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap and len(found) < k and remaining:
        d, node = heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        hits = int(counts[node])
        if hits:
            found.extend([(node, d)] * min(hits, k - len(found)))
            remaining -= hits
        for idx in range(offsets[node], offsets[node + 1]):
            nxt = targets[idx]
            if nxt not in dist:
                heappush(heap, (d + weights[idx], nxt))
    return found


def time_queries(run, sources) -> list[float]:
    perf = time.perf_counter
    samples = []
    for source in sources:
        t0 = perf()
        run(source)
        samples.append(perf() - t0)
    return samples


def bench_side(
    side: int, *, engines: bool, ch_build: bool
) -> dict:
    perf = time.perf_counter
    t0 = perf()
    network = int_grid(side)
    build_s = perf() - t0

    with tempfile.TemporaryDirectory() as tmp:
        t0 = perf()
        network.save_cache(tmp)
        save_s = perf() - t0
        attach_samples = []
        for _ in range(ATTACH_REPEATS):
            t0 = perf()
            open_cache(tmp)
            attach_samples.append(perf() - t0)
        cached = open_cache(tmp)
        attach_ms = statistics.median(attach_samples) * 1e3

        entry = {
            "side": side,
            "nodes": network.num_nodes,
            "arcs": int(2 * network.num_edges),
            "build_s": round(build_s, 3),
            "save_s": round(save_s, 3),
            "attach_ms": round(attach_ms, 2),
        }

        ch = None
        if ch_build:
            t0 = perf()
            ch = ContractionHierarchy(cached)
            entry["ch_build_s"] = round(perf() - t0, 2)
            entry["ch_shortcuts"] = ch.num_shortcuts
            assert ch.exact
            t0 = perf()
            save_ch_cache(ch, tmp)
            entry["ch_save_s"] = round(perf() - t0, 2)
            ch_attach_samples = []
            for _ in range(ATTACH_REPEATS):
                t0 = perf()
                load_cached_ch(cached)
                ch_attach_samples.append(perf() - t0)
            entry["ch_attach_ms"] = round(
                statistics.median(ch_attach_samples) * 1e3, 2
            )
        if not engines:
            return entry

        rng = np.random.default_rng(SEED + side)
        counts = np.zeros(network.num_nodes, dtype=np.int32)
        object_nodes = rng.choice(network.num_nodes, NUM_OBJECTS, replace=False)
        counts[object_nodes] += 1
        sources = rng.choice(network.num_nodes, NUM_QUERIES, replace=False)

        # Vectorized kernels over the *memmapped* attach — the serving
        # configuration.  Warm once to take buffer allocation out.
        kern = cached.kernels
        kern.topk_objects(int(sources[0]), counts, K)
        kernel_samples = time_queries(
            lambda s: kern.topk_objects(int(s), counts, K), sources
        )
        entry["kernel_knn_p50_us"] = round(
            statistics.median(kernel_samples) * 1e6, 1
        )

        if side <= HEAPQ_MAX_SIDE:
            mirrored = cached.allow_mirrors()  # heapq engines need lists
            heapq_samples = time_queries(
                lambda s: heapq_topk(mirrored, int(s), counts, K), sources
            )
            entry["heapq_knn_p50_us"] = round(
                statistics.median(heapq_samples) * 1e6, 1
            )

        if side <= CH_MAX_SIDE and ch is not None:
            chk = ch.kernels
            # One-time cost: object buckets + hub labels for every
            # source (the cached steady state is what's timed below —
            # the regime the routing cutoff is calibrated against).
            t0 = perf()
            for s in sources:
                chk.topk_objects(int(s), counts, K)
            entry["ch_label_warm_s"] = round(perf() - t0, 2)
            reference = {
                int(s): kern.topk_objects(int(s), counts, K) for s in sources
            }
            ch_samples = time_queries(
                lambda s: chk.topk_objects(int(s), counts, K), sources
            )
            entry["ch_knn_p50_us"] = round(
                statistics.median(ch_samples) * 1e6, 1
            )
            # Bit-identity of the routed path, asserted in the artifact.
            # Each engine returns its own superset of the true top-k
            # (the plain kernel: everything settled; CH: everything at
            # distance <= the k-th), so compare the canonical
            # (distance, node)-sorted answers truncated to k — exactly
            # what downstream kNN solutions consume.
            def canonical(pair):
                nodes_r, dists_r = pair
                order = np.lexsort((nodes_r, dists_r))[:K]
                return nodes_r[order], dists_r[order]

            for s in sources:
                nodes_a, dists_a = canonical(reference[int(s)])
                nodes_b, dists_b = canonical(chk.topk_objects(int(s), counts, K))
                assert np.array_equal(nodes_a, nodes_b)
                assert np.array_equal(dists_a, dists_b)
        return entry


def format_txt(report: dict) -> str:
    lines = [
        "graph-tier scaling curve (integer-weight grids, "
        f"{NUM_OBJECTS} objects, k={K})",
        "",
        f"{'nodes':>10} {'arcs':>10} {'build_s':>8} {'save_s':>8} "
        f"{'attach_ms':>10} {'ch_build_s':>10} "
        f"{'ch_att_ms':>9} {'kernel_us':>10} {'ch_us':>8} {'heapq_us':>9}",
    ]
    for entry in report["sizes"]:
        lines.append(
            f"{entry['nodes']:>10,} {entry['arcs']:>10,} "
            f"{entry['build_s']:>8.3f} {entry['save_s']:>8.3f} "
            f"{entry['attach_ms']:>10.2f} "
            f"{entry.get('ch_build_s', ''):>10} "
            f"{entry.get('ch_attach_ms', ''):>9} "
            f"{entry.get('kernel_knn_p50_us', float('nan')):>10} "
            f"{entry.get('ch_knn_p50_us', ''):>8} "
            f"{entry.get('heapq_knn_p50_us', ''):>9}"
        )
    lines.append("")
    lines.append(
        f"attach flatness: max/min = {report['attach_flatness']:.1f}x "
        f"across {report['sizes'][0]['nodes']:,}"
        f"-{report['sizes'][-1]['nodes']:,} nodes"
    )
    if "ch_speedup_vs_kernel" in report:
        lines.append(
            "long-range kNN at "
            f"{report['ch_at_nodes']:,} nodes: CH "
            f"{report['ch_speedup_vs_kernel']:.1f}x vs kernels, kernels "
            f"{report['kernel_speedup_vs_heapq']:.1f}x vs heapq "
            "(answers bit-identical, asserted)"
        )
        lines.append(
            "ch_us is the warm label-cache serving regime; the first "
            "touch of a source pays its label construction "
            "(ch_label_warm_s in the JSON)"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: build/cache/attach only, assert attach flatness",
    )
    parser.add_argument(
        "--sides", type=int, nargs="*",
        help="override the grid side lengths to sweep",
    )
    args = parser.parse_args(argv)

    sides = tuple(args.sides) if args.sides else (
        SMOKE_SIDES if args.smoke else FULL_SIDES
    )
    report: dict = {"seed": SEED, "k": K, "num_objects": NUM_OBJECTS,
                    "sizes": []}
    for side in sides:
        if args.smoke:
            ch_build = side >= SMOKE_CH_MIN_SIDE
        else:
            ch_build = side <= CH_BUILD_MAX_SIDE
        entry = bench_side(side, engines=not args.smoke, ch_build=ch_build)
        report["sizes"].append(entry)
        print(
            f"side {side:>5} ({entry['nodes']:>9,} nodes): "
            f"build {entry['build_s']:.3f}s save {entry['save_s']:.3f}s "
            f"attach {entry['attach_ms']:.2f}ms"
            + (
                f" ch_build {entry['ch_build_s']:.1f}s"
                if "ch_build_s" in entry else ""
            )
            + (
                f" ch_attach {entry['ch_attach_ms']:.2f}ms"
                if "ch_attach_ms" in entry else ""
            )
            + (
                f" kernel {entry['kernel_knn_p50_us']:.0f}us"
                if "kernel_knn_p50_us" in entry else ""
            )
            + (
                f" ch {entry['ch_knn_p50_us']:.0f}us"
                if "ch_knn_p50_us" in entry else ""
            )
            + (
                f" heapq {entry['heapq_knn_p50_us']:.0f}us"
                if "heapq_knn_p50_us" in entry else ""
            )
        )

    attaches = [entry["attach_ms"] for entry in report["sizes"]]
    report["attach_flatness"] = round(max(attaches) / min(attaches), 2)

    ch_entries = [e for e in report["sizes"] if "ch_knn_p50_us" in e]
    if ch_entries:
        best = ch_entries[-1]  # largest size with all engines
        report["ch_at_nodes"] = best["nodes"]
        report["ch_speedup_vs_kernel"] = round(
            best["kernel_knn_p50_us"] / best["ch_knn_p50_us"], 2
        )
        if "heapq_knn_p50_us" in best:
            report["kernel_speedup_vs_heapq"] = round(
                best["heapq_knn_p50_us"] / best["kernel_knn_p50_us"], 2
            )

    if args.smoke:
        biggest = report["sizes"][-1]
        assert biggest["nodes"] >= 1_000_000, "smoke must reach ~1M nodes"
        assert report["attach_flatness"] <= ATTACH_FLAT_FACTOR, (
            f"attach is not flat: {report['attach_flatness']}x spread "
            f"(bound {ATTACH_FLAT_FACTOR}x)"
        )
        ch_entries = [e for e in report["sizes"] if "ch_attach_ms" in e]
        assert ch_entries, "smoke must build+persist+attach a CH"
        assert ch_entries[0]["nodes"] >= 262_144, (
            "CH smoke must cover >= 262k nodes"
        )
        for e in ch_entries:
            assert e["ch_attach_ms"] < CH_ATTACH_BUDGET_MS, (
                f"CH attach not O(1): {e['ch_attach_ms']}ms at "
                f"{e['nodes']:,} nodes (budget {CH_ATTACH_BUDGET_MS}ms)"
            )
        print(
            f"smoke ok: {biggest['nodes']:,}-node attach "
            f"{biggest['attach_ms']:.2f}ms, flatness "
            f"{report['attach_flatness']:.1f}x <= {ATTACH_FLAT_FACTOR:.0f}x; "
            f"CH attach {ch_entries[-1]['ch_attach_ms']:.2f}ms at "
            f"{ch_entries[-1]['nodes']:,} nodes "
            f"(< {CH_ATTACH_BUDGET_MS:.0f}ms, build "
            f"{ch_entries[-1]['ch_build_s']:.0f}s)"
        )
        return 0

    RESULTS.mkdir(parents=True, exist_ok=True)
    json_out = RESULTS / "graph_scale.json"
    json_out.write_text(json.dumps(report, indent=2) + "\n")
    txt_out = RESULTS / "graph_scale.txt"
    txt_out.write_text(format_txt(report))
    print(f"wrote {json_out}")
    print(f"wrote {txt_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
