"""Compare two sets of mprbench runs.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl [--markdown]

Each file holds the JSON lines ``run.py --append FILE`` wrote.  For
every (workload, end-to-end metric) pair this prints each set's median
and quartiles, by what share of the base's median the change's median is
worse, and the metric's bound from ``BENCHMARK.json``; it exits 1 when
any pair is worse by more than its bound.  With one set on both sides it
is the A/A check behind ``bench/AA.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from mprbench.stats import spread, worse  # noqa: E402


#: Not a metric: how slow the host ran each set (see mprbench/host.py).
HOST = "(host factor)"


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over a file's untraced runs."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            run = json.loads(line)
            if run["trace"]:
                continue
            for name, metric in run["metrics"].items():
                if metric["value"] is not None:
                    values[run["workload"], name].append(metric["value"])
            values[run["workload"], HOST].append(run["host_factor"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    manifest = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in manifest["end_to_end"]}
    base, change = load(args.base), load(args.change)

    header = (
        "workload", "metric", "n", "base q1", "base median", "base q3",
        "base spread", "change q1", "change median", "change q3",
        "change spread", "worse by", "bound", "",
    )
    rows = []
    breaches = 0
    for workload in [w["name"] for w in manifest["workloads"]]:
        for name, bound in {**bounds, HOST: None}.items():
            ours, theirs = base.get((workload, name)), change.get((workload, name))
            if not ours or not theirs:
                continue
            b1, b2, b3 = quartiles(ours)
            c1, c2, c3 = quartiles(theirs)
            if bound is None:
                gap, breach = (c2 - b2) / b2, False
            else:
                gap = worse(name, b2, c2)
                breach = gap > bound
                breaches += breach
            rows.append((
                workload, name, f"{len(ours)}+{len(theirs)}",
                f"{b1:.5g}", f"{b2:.5g}", f"{b3:.5g}",
                f"{spread(ours):.1%}" if len(ours) > 1 else "-",
                f"{c1:.5g}", f"{c2:.5g}", f"{c3:.5g}",
                f"{spread(theirs):.1%}" if len(theirs) > 1 else "-",
                f"{gap:+.1%}", f"{bound:.0%}" if bound else "-",
                "BREACH" if breach else "",
            ))
    if args.markdown:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for row in rows:
            print("| " + " | ".join(row) + " |")
    else:
        widths = [
            max(len(str(cell)) for cell in column)
            for column in zip(header, *rows)
        ]
        for row in (header, *rows):
            print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    pairs = sum(row[1] != HOST for row in rows)
    print(f"\n{pairs} pairs compared, {breaches} beyond their bound")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
