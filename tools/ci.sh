#!/usr/bin/env bash
# The CI gate, one lane per argument — runnable locally or from
# .github/workflows/ci.yml, whose matrix is exactly these lane names:
#
#   bash tools/ci.sh              # fast: tier-1 tests, figure-script imports, lint, API surface
#   bash tools/ci.sh slow         # full suite (slow markers included), figure-script imports, lint, API surface,
#                                 # the kernel-exactness, telemetry and graph-builder properties at the
#                                 # thorough profile, and two simulator figures regenerated byte-identical
#   bash tools/ci.sh chaos        # the real-signal pool fault tests twice, the protocol machine x10 + sweep counts
#   bash tools/ci.sh validate     # model-validation grid (simulator + live pool)
#   bash tools/ci.sh scale        # ~1M-node cache/attach smoke (incl. CH at 262k/1M)
#   bash tools/ci.sh serve        # serving tier: tests/test_serve.py, slow included (protocol e2e,
#                                 # fairness, shedding, deadlines, ~90 concurrent clients settling)
#   bash tools/ci.sh reconfig     # live-reconfiguration tests + soak
#   bash tools/ci.sh bench        # mprbench's own tests + manifest validator
#   bash tools/ci.sh slow chaos   # several lanes, in order
#
# Ruff is optional — environments without the binary skip the lint step
# instead of failing, so the gate works in the minimal container too.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

static_checks() {
    # No lane runs the figure scripts; importing them all (~3 s) catches
    # a public name deleted from under one.  Here, not in `fast`: the
    # hosted matrix runs `slow`, never `fast`.
    python -m pytest benchmarks --collect-only -q
    if command -v ruff >/dev/null 2>&1; then
        ruff check src tests tools benchmarks
    else
        echo "ruff not available; skipping lint"
    fi
    python tools/check_api_surface.py
}

run_lane() {
    case "$1" in
        fast)
            python -m pytest -x -q
            static_checks
            ;;
        slow)
            python -m pytest -x -q -m "slow or not slow"
            static_checks
            # Heap search = sweep = oracle, a capped sweep (one window or
            # delta-wide ones) = oracle, run_ops = the per-op loop,
            # a count-weighted telemetry record = one record per id, and
            # triples = arrays = the first-seen min-weight edge list, over
            # ten times the tier-1 examples.
            python -m pytest -x -q tests/test_kernels.py tests/test_run_ops.py \
                tests/test_obs.py tests/test_road_network.py \
                --hypothesis-profile=thorough
            # The simulator is deterministic given its seeds: two of its
            # figures (~20 s each) must regenerate byte-identical.
            python -m pytest -q --benchmark-only \
                benchmarks/bench_fig8_update_load.py \
                benchmarks/bench_fig9_query_load.py
            git diff --exit-code -- benchmarks/results/fig8_update_load.txt \
                benchmarks/results/fig9_query_load.txt
            ;;
        chaos)
            # Kill, stall, crash-loop and dropped-ack faults on real
            # w-cores, twice over: a fault that races a pipe shows up
            # as a flake here before it does in the slow lane.
            for _ in 1 2; do
                python -m pytest -x -q -m "slow or not slow" \
                    tests/test_process_pool_faults.py \
                    tests/test_pool_resilience.py \
                    tests/test_transport_contract.py
            done
            python -m pytest -x -q tests/test_pool_protocol.py \
                tests/test_sweep_dispatch.py --hypothesis-profile=thorough
            ;;
        validate)
            python -m pytest -x -q -m slow -k validation
            python -m repro.cli validate --no-artifacts
            ;;
        scale)
            python tools/bench_graph_scale.py --smoke
            ;;
        serve)
            python -m pytest -x -q tests/test_serve.py -m "slow or not slow"
            ;;
        reconfig)
            python -m pytest -x -q -m slow -k reconfig
            python tools/reconfig_soak.py
            ;;
        bench)
            # Read-only use of bench/: its tests and the manifest check.
            python -m pytest bench/tests -q
            python3 bench/mprbench/validate.py
            ;;
        *)
            echo "unknown lane '$1' (fast slow chaos validate scale serve reconfig bench)" >&2
            exit 2
            ;;
    esac
}

for lane in "${@:-fast}"; do
    echo "== lane: $lane"
    run_lane "$lane"
done

echo "ci OK"
