"""Fail if the public API surface drifted from the generated docs.

``tools/gen_api_docs.py`` snapshots every documented module's exported
names into ``docs/api_surface.json`` alongside ``docs/API.md``.  This
checker recomputes the live surface and diffs it against the snapshot,
then renders ``docs/API.md`` in memory and diffs it against the file,
so adding, removing, or renaming a public symbol — or a method, a
signature or a docstring summary — without regenerating the docs is a
hard failure:

    python tools/check_api_surface.py     # exit 0 iff docs are current

Run ``python tools/gen_api_docs.py`` to bring the snapshot (and the
reference docs) up to date.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "src"))

import difflib  # noqa: E402

from gen_api_docs import collect_surface, render_api  # noqa: E402

SNAPSHOT = ROOT / "docs" / "api_surface.json"
API_DOC = ROOT / "docs" / "API.md"


def main() -> int:
    if not SNAPSHOT.exists():
        print(f"missing {SNAPSHOT}; run: python tools/gen_api_docs.py")
        return 1
    recorded: dict[str, list[str]] = json.loads(SNAPSHOT.read_text())
    live = collect_surface()

    problems: list[str] = []
    for module in sorted(set(recorded) | set(live)):
        if module not in live:
            problems.append(f"{module}: documented but no longer walked")
            continue
        if module not in recorded:
            problems.append(f"{module}: public but undocumented")
            continue
        added = sorted(set(live[module]) - set(recorded[module]))
        removed = sorted(set(recorded[module]) - set(live[module]))
        if added:
            problems.append(f"{module}: undocumented new symbols {added}")
        if removed:
            problems.append(f"{module}: documented symbols gone {removed}")

    recorded_doc = API_DOC.read_text() if API_DOC.exists() else ""
    stale = list(difflib.unified_diff(
        recorded_doc.splitlines(), render_api().splitlines(),
        "docs/API.md", "rendered", lineterm="", n=0,
    ))
    if stale:
        problems.append(
            "docs/API.md differs from the rendered reference:\n"
            + "\n".join(f"      {line}" for line in stale[:40])
        )

    if problems:
        print("the generated docs drifted from the public API:")
        for problem in problems:
            print(f"  - {problem}")
        print("regenerate with: python tools/gen_api_docs.py")
        return 1
    count = sum(len(names) for names in live.values())
    print(f"API surface matches docs ({count} symbols, {len(live)} modules)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
