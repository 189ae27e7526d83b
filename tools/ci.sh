#!/usr/bin/env bash
# The CI gate, one lane per argument — runnable locally or from
# .github/workflows/ci.yml, whose matrix is exactly these lane names:
#
#   bash tools/ci.sh              # fast: tier-1 tests, figure-script imports, lint, API surface
#   bash tools/ci.sh slow         # full suite (slow markers included), figure-script imports, lint, API surface
#   bash tools/ci.sh chaos        # chaos tests, the protocol machine x10 + sweep counts, the sweep twice
#   bash tools/ci.sh validate     # model-validation grid (simulator + live pool)
#   bash tools/ci.sh scale        # ~1M-node cache/attach smoke (incl. CH at 262k/1M)
#   bash tools/ci.sh serve        # serving tier: protocol e2e + load smoke
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
            ;;
        chaos)
            python -m pytest -x -q -m slow -k chaos
            python -m pytest -x -q tests/test_pool_protocol.py \
                tests/test_sweep_dispatch.py --hypothesis-profile=thorough
            python -m repro.cli chaos --repeat 2
            ;;
        validate)
            python -m pytest -x -q -m slow -k "validation or continuous"
            python -m repro.cli validate --no-artifacts
            ;;
        scale)
            python tools/bench_graph_scale.py --smoke
            ;;
        serve)
            python -m pytest -x -q tests/test_serve.py -m "slow or not slow"
            python tools/serve_loadtest.py --smoke --no-artifacts
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
