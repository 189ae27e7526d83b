"""Bench-side tracing: spans around calls into the product.

Nothing under ``src/`` is instrumented; spans are recorded from the
benchmark's own files, kept in memory, and written once at exit.  A
disabled tracer costs its callers one branch on :attr:`Tracer.enabled`.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.records: list[dict[str, Any]] = []
        self._ids = itertools.count(1)

    def open(self) -> int:
        """Reserve the id of a span whose children finish before it."""
        return next(self._ids)

    def span(
        self, name: str, start: float, end: float, *,
        parent: int | None = None, request: Any = None,
        span_id: int | None = None,
    ) -> None:
        """Record one finished span."""
        self.records.append({
            "span": span_id if span_id is not None else next(self._ids),
            "name": name, "start": start, "end": end,
            "parent": parent, "request": request,
        })

    def event(self, name: str, time: float, data: dict[str, Any]) -> None:
        """A point record: a ``stats`` poll or a per-process CPU sample."""
        self.records.append({"event": name, "time": time, **data})

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
