"""Validate ``BENCHMARK.json`` against the driver's contract and the code.

    python3 bench/mprbench/validate.py [BENCHMARK.json]

Prints one line per problem and exits 1 if there is any.  Two kinds of
check: the file's shape (keys, counts, name and unit alphabets, bound
and time caps), and drift — the workloads and metrics the file lists
must be exactly the ones :mod:`mprbench.spec` defines, which are the
ones ``run.py`` prints.  :func:`check_result` applies the same names to
the JSON line a run ends with.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from mprbench import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BYTES = 64 * 1024
MAX_BOUND = 0.25
#: All runs, with their set-up, must end within this many seconds.
TOTAL_SECONDS = 3420


def _rows(
    manifest: dict, section: str, keys: set[str], low: int, high: int,
    problems: list[str],
) -> list[dict]:
    rows = manifest.get(section)
    if not isinstance(rows, list) or not low <= len(rows) <= high:
        problems.append(f"{section}: need a list of {low} to {high} entries")
        return []
    good = []
    for index, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != keys:
            problems.append(
                f"{section}[{index}]: keys must be exactly {sorted(keys)}"
            )
        else:
            good.append(row)
    return good


def check_manifest(text: str) -> list[str]:
    """Problems with a ``BENCHMARK.json`` given as text ([] if none)."""
    problems: list[str] = []
    if len(text.encode()) > MAX_BYTES:
        problems.append("file is larger than 64 KiB")
    try:
        manifest = json.loads(text)
    except ValueError as error:
        return [f"not JSON: {error}"]
    if not isinstance(manifest, dict) or set(manifest) != KEYS:
        return [f"top-level keys must be exactly {sorted(KEYS)}"]

    paths = manifest["paths"]
    if (
        not isinstance(paths, list) or not 1 <= len(paths) <= 16
        or not all(isinstance(path, str) for path in paths)
    ):
        problems.append("paths: need 1 to 16 strings")
        paths = []
    for path in paths:
        if (
            not PATH.fullmatch(path) or path.startswith("/")
            or ".." in path.split("/")
        ):
            problems.append(f"paths: {path!r} is not a plain relative path")

    command = manifest["command"]
    if (
        not isinstance(command, list) or not 1 <= len(command) <= 32
        or not all(isinstance(word, str) and len(word) <= 200 for word in command)
    ):
        problems.append("command: need 1 to 32 strings of at most 200 characters")
        command = []
    for word in command[1:]:
        if word.startswith("/") or ".." in word.split("/"):
            problems.append(f"command: {word!r} leaves the checkout")
        elif "/" in word and not any(
            word == path or word.startswith(path.rstrip("/") + "/")
            for path in paths
        ):
            problems.append(f"command: {word!r} is outside paths")

    seconds = manifest["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or not 1 <= seconds <= 60:
        problems.append("run_seconds: need a whole number from 1 to 60")
        seconds = 0

    names: list[str] = []
    workloads = _rows(manifest, "workloads", {"name", "why"}, 2, 8, problems)
    for row in workloads:
        names.append(row["name"])
        why = row["why"]
        if not isinstance(why, str) or "\n" in why or not 0 < len(why) <= 200:
            problems.append(f"workloads: {row['name']}: why must be one line of at most 200 characters")
    runs = 4 + 22 * len(workloads)
    if seconds and runs * seconds >= TOTAL_SECONDS:
        problems.append(
            f"run_seconds: {runs} runs of {seconds} s cannot end within "
            f"{TOTAL_SECONDS} s"
        )

    end_to_end = _rows(
        manifest, "end_to_end", {"name", "unit", "better", "bound"}, 1, 16,
        problems,
    )
    per_layer = _rows(
        manifest, "per_layer", {"name", "unit", "better"}, 1, 128, problems
    )
    for row in end_to_end + per_layer:
        names.append(row["name"])
        if not isinstance(row["unit"], str) or not UNIT.fullmatch(row["unit"]):
            problems.append(f"{row['name']}: bad unit {row['unit']!r}")
        if row["better"] not in ("lower", "higher"):
            problems.append(f"{row['name']}: better must be lower or higher")
    for row in end_to_end:
        bound = row["bound"]
        if isinstance(bound, bool) or not isinstance(bound, (int, float)) or not 0 < bound <= MAX_BOUND:
            problems.append(f"{row['name']}: bound must be in (0, {MAX_BOUND}]")
    if not any(
        (row["name"], row["unit"], row["better"]) == ("setup_s", "s", "lower")
        for row in end_to_end
    ):
        problems.append("end_to_end: needs setup_s in s, lower is better")
    for name in names:
        if not isinstance(name, str) or not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    for name in sorted({name for name in names if names.count(name) > 1}):
        problems.append(f"name {name!r} is used more than once")

    problems.extend(_drift(manifest, workloads, end_to_end, per_layer))
    return problems


def _drift(manifest, workloads, end_to_end, per_layer) -> list[str]:
    """Differences between the file and what the code defines and prints."""
    problems = []
    listed = [(row["name"], row["why"]) for row in workloads]
    defined = [(w.name, w.why) for w in spec.WORKLOADS]
    if listed != defined:
        problems.append("workloads differ from mprbench.spec.WORKLOADS")
    listed = [
        (row["name"], row["unit"], row["better"], row["bound"])
        for row in end_to_end
    ]
    if listed != list(spec.END_TO_END):
        problems.append("end_to_end differs from mprbench.spec.END_TO_END")
    listed = [(row["name"], row["unit"], row["better"]) for row in per_layer]
    if listed != list(spec.PER_LAYER):
        problems.append("per_layer differs from mprbench.spec.PER_LAYER")
    if manifest["paths"] != ["bench"]:
        problems.append("paths must be ['bench']")
    if manifest["command"] != ["python3", "bench/run.py"]:
        problems.append("command must be python3 bench/run.py")
    return problems


def check_result(manifest: dict, trace: int, line: str) -> list[str]:
    """Problems with the JSON line a run printed last."""
    try:
        result = json.loads(line)
    except ValueError as error:
        return [f"result is not JSON: {error}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be correct, attempted, failed, metrics"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number, at least 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number")
    expected = {
        row["name"]: row["unit"]
        for row in manifest["per_layer" if trace else "end_to_end"]
    }
    printed = {
        name: metric.get("unit") for name, metric in result["metrics"].items()
    }
    if printed != expected:
        problems.append(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(printed) ^ set(expected)) or 'units'}"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = Path(args[0]) if args else ROOT / "BENCHMARK.json"
    problems = check_manifest(path.read_text())
    for problem in problems:
        print(problem)
    print(f"{path}: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
