"""A performance claim as one command: interleaved parent/change pairs.

    python tools/bench_pairs.py --parent REF \\
        --workloads serve_closed,serve_open --pairs 10 --seconds 20 \\
        --seed-base 100 [--out DIR] [--no-run] [--markdown]

Checks ``REF`` out into a temporary ``git worktree`` (removed at exit),
then for pair ``i`` and each workload runs both trees' ``bench/run.py``
untraced on seed ``seed-base + i`` — the parent first on even pairs, the
working tree first on odd ones — appending the result lines to
``DIR/base.jsonl`` and ``DIR/change.jsonl`` (default ``DIR``:
``bench-pairs/`` under the current directory).  ``--no-run`` only
summarizes the two files already there.

The summary is ``bench/compare.py``'s table, then one row per
(workload, end-to-end metric): the change's wins out of the pairs run on
the same seed (a tie counts for neither side), the parent's spread
(inter-quartile range over median), the change of the median, and a
verdict — ``unresolved`` where the parent's spread exceeds the metric's
bound in ``BENCHMARK.json`` (the pair cannot tell a move from noise),
``gain`` where the change wins at least nine pairs in ten *and* its
median is better by more than the parent's spread — never while a run
of the change on that workload answered wrong or failed operations
(``failed`` instead).  Two more tables let a reader judge the runs
themselves: each side's correct runs and failed operations per
workload, and one line per pair — seed, which side ran first, each
side's host factor and generator lateness (``late_p95_ms``), which
give away a pair taken during a host spike.  The tool reads ``bench/``
and writes nothing there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _bench_compare():
    """``bench/compare.py`` as a module (``load``, ``spread``,
    ``worse``), imported without leaving bytecode under ``bench/``."""
    writing = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "_bench_compare", BENCH / "compare.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writing
    return module


compare = _bench_compare()


def load_runs(path: Path) -> dict[tuple[str, int], dict]:
    """``(workload, seed) -> run`` over a file's untraced runs (a seed
    run twice keeps its last line): the result line with ``metrics``
    flattened to ``name -> value``."""
    runs: dict[tuple[str, int], dict] = {}
    for line in path.read_text().splitlines():
        run = json.loads(line)
        if run["trace"]:
            continue
        run["metrics"] = {
            name: metric["value"]
            for name, metric in run["metrics"].items()
            if metric["value"] is not None
        }
        runs[run["workload"], run["seed"]] = run
    return runs


def _failed(run: dict) -> bool:
    """A run whose answers were wrong or whose operations failed."""
    return not run.get("correct", True) or run.get("failed", 0) > 0


def pair_rows(base_path: Path, change_path: Path, manifest: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) with pairs on both
    sides: wins, pairs, the parent's spread, the median's move (negative
    = better, as ``compare.worse``), and the verdict."""
    base, change = load_runs(base_path), load_runs(change_path)
    values: dict[tuple[str, str], tuple[list, list]] = defaultdict(
        lambda: ([], [])
    )
    for key in sorted(set(base) & set(change)):
        theirs = change[key]["metrics"]
        for name, value in base[key]["metrics"].items():
            if name in theirs:
                pair = values[key[0], name]
                pair[0].append(value)
                pair[1].append(theirs[name])
    broken = {workload for (workload, _seed), run in change.items()
              if _failed(run)}
    rows = []
    for workload in [entry["name"] for entry in manifest["workloads"]]:
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ours, theirs = values.get((workload, name), ([], []))
            if not ours:
                continue
            moves = [compare.worse(name, b, c) for b, c in zip(ours, theirs)]
            spread = compare.spread(ours) if len(ours) > 1 else math.inf
            move = compare.worse(
                name, statistics.median(ours), statistics.median(theirs)
            )
            wins = sum(step < 0 for step in moves)
            if spread > bound:
                verdict = "unresolved"
            elif 10 * wins >= 9 * len(moves) and -move > spread:
                verdict = "failed" if workload in broken else "gain"
            elif move > bound:
                verdict = "BREACH"
            else:
                verdict = ""
            rows.append({
                "workload": workload, "metric": name, "wins": wins,
                "losses": sum(step > 0 for step in moves),
                "pairs": len(moves), "spread": spread, "move": move,
                "bound": bound, "verdict": verdict,
            })
    return rows


def format_rows(rows: list[dict], markdown: bool) -> str:
    return _table(
        ("workload", "metric", "change wins", "parent spread",
         "median move", "bound", "verdict"),
        [(row["workload"], row["metric"], f"{row['wins']}/{row['pairs']}",
          f"{row['spread']:.1%}", f"{row['move']:+.1%}",
          f"{row['bound']:.0%}", row["verdict"])
         for row in rows],
        markdown,
    )


def side_rows(base_path: Path, change_path: Path) -> list[dict]:
    """Per workload and side: runs, runs that were correct, and the
    operations that failed over all of them."""
    rows = []
    for side, path in (("base", base_path), ("change", change_path)):
        tally: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for (workload, _seed), run in load_runs(path).items():
            counts = tally[workload]
            counts[0] += 1
            counts[1] += not _failed(run)
            counts[2] += run.get("failed", 0)
        rows += [
            {"workload": workload, "side": side, "runs": runs,
             "correct": correct, "failed": failed}
            for workload, (runs, correct, failed) in sorted(tally.items())
        ]
    return rows


def pair_table(base_path: Path, change_path: Path) -> list[dict]:
    """One row per pair: seed, which side ran first, and each side's
    host factor and generator lateness (``late_p95_ms``)."""
    base, change = load_runs(base_path), load_runs(change_path)
    rows = []
    for key in sorted(set(base) & set(change)):
        ours, theirs = base[key], change[key]
        rows.append({
            "workload": key[0], "seed": key[1],
            "first": "base" if ours.get("time", 0) <= theirs.get("time", 0)
            else "change",
            "host": (ours.get("host_factor"), theirs.get("host_factor")),
            "late": (ours.get("late_p95_ms"), theirs.get("late_p95_ms")),
            "failed": (_failed(ours), _failed(theirs)),
        })
    return rows


def _table(header: tuple, cells: list[tuple], markdown: bool) -> str:
    if markdown:
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(row) + " |" for row in cells]
        return "\n".join(lines)
    widths = [max(map(len, column)) for column in zip(header, *cells)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in (header, *cells)
    )


def format_sides(rows: list[dict], markdown: bool) -> str:
    return _table(
        ("workload", "side", "runs", "correct", "failed ops"),
        [(row["workload"], row["side"], str(row["runs"]),
          str(row["correct"]), str(row["failed"])) for row in rows],
        markdown,
    )


def format_pairs(rows: list[dict], markdown: bool) -> str:
    def number(value, spec):
        return "-" if value is None else format(value, spec)

    def mark(failed):
        return " FAILED" if failed else ""

    return _table(
        ("workload", "seed", "first", "host base", "host change",
         "late p95 base", "late p95 change"),
        [(row["workload"], str(row["seed"]), row["first"],
          number(row["host"][0], ".2f") + mark(row["failed"][0]),
          number(row["host"][1], ".2f") + mark(row["failed"][1]),
          number(row["late"][0], ".2f"), number(row["late"][1], ".2f"))
         for row in rows],
        markdown,
    )


def run_one(tree: Path, workload: str, seed: int, seconds: float,
            append: Path) -> None:
    """One untraced ``bench/run.py`` of ``tree``; prints its summary line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--append", str(append)],
        cwd=tree, capture_output=True, text=True,
        timeout=10 * seconds + 300,
    )
    summary = [line for line in done.stdout.splitlines() if line.startswith("# ")]
    side = "base  " if append.name == "base.jsonl" else "change"
    print(f"{side} {summary[-1] if summary else '(no summary)'}"
          f"{'' if done.returncode == 0 else f'  [exit {done.returncode}]'}",
          flush=True)
    if done.returncode not in (0, 1, 3):
        print(done.stderr[-2000:], file=sys.stderr)


def run_pairs(args: argparse.Namespace, out: Path) -> None:
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent = scratch / "parent"
    subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
         str(parent), args.parent],
        check=True,
    )
    try:
        sides = [(parent, out / "base.jsonl"), (ROOT, out / "change.jsonl")]
        for index in range(args.pairs):
            seed = args.seed_base + index
            for workload in args.workloads.split(","):
                for tree, append in sides if index % 2 == 0 else sides[::-1]:
                    run_one(tree, workload, seed, args.seconds, append)
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force",
             str(parent)],
            check=False,
        )
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                       check=False)
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1",
                        help="git ref of the base side (default HEAD~1)")
    parser.add_argument("--workloads", default="serve_closed,serve_open")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--out", type=Path, default=Path("bench-pairs"))
    parser.add_argument("--no-run", action="store_true",
                        help="only summarize the files already in --out")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = args.out.resolve()
    if BENCH.resolve() in (out, *out.parents):
        parser.error("--out must not be under bench/")
    if not args.no_run:
        out.mkdir(parents=True, exist_ok=True)
        # SIGTERM unwinds like Ctrl-C, so the worktree is removed.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        run_pairs(args, out)
    base, change = out / "base.jsonl", out / "change.jsonl"
    table = [str(BENCH / "compare.py"), str(base), str(change)]
    subprocess.run(
        [sys.executable, "-B", *table, *(["--markdown"] if args.markdown else [])],
        check=False,
    )
    for table in (
        format_sides(side_rows(base, change), args.markdown),
        format_pairs(pair_table(base, change), args.markdown),
        format_rows(pair_rows(base, change, manifest), args.markdown),
    ):
        print()
        print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
