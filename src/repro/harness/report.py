"""Plain-text reporting helpers for the benchmark harness.

The benches print the same rows and series the paper's tables and
figures report; these helpers keep that output consistent and legible
in a terminal (no plotting dependencies).
"""

from __future__ import annotations

import math
from typing import Sequence


def format_microseconds(seconds: float) -> str:
    """Render a duration the way the paper's tables do (μs, 'Overload')."""
    if math.isinf(seconds) or math.isnan(seconds):
        return "Overload"
    return f"{seconds * 1e6:,.0f}"


def format_rate(rate: float) -> str:
    """Render a throughput in queries/second."""
    if math.isinf(rate):
        return "unbounded"
    return f"{rate:,.0f}"


def format_duration(seconds: float) -> str:
    """Render a wall-clock duration with an adaptive unit (s/ms/μs)."""
    if math.isinf(seconds) or math.isnan(seconds):
        return "Overload"
    if seconds >= 1.0:
        return f"{seconds:,.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:,.2f} ms"
    return f"{seconds * 1e6:,.1f} us"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """A boxless ASCII table with right-aligned numeric columns."""
    cells = [[_stringify(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def telemetry_report(telemetry) -> str:
    """Render a telemetry handle as per-stage latency + counter tables.

    Duck-typed against :class:`repro.obs.Telemetry` (``iter_stage_rows``,
    ``counters``, ``summary``) so the harness keeps zero imports from
    the observability layer.
    """
    rows = []
    for stage, stats in telemetry.iter_stage_rows():
        if not stats:
            continue
        rows.append([
            stage,
            stats["count"],
            format_duration(stats["mean"]),
            format_duration(stats["p50"]),
            format_duration(stats["p95"]),
            format_duration(stats["p99"]),
            format_duration(stats["max"]),
        ])
    sections = []
    if rows:
        sections.append(format_table(
            ["stage", "count", "mean", "p50", "p95", "p99", "max"],
            rows,
            title="Per-stage latency",
        ))
    else:
        sections.append("Per-stage latency\n(no samples recorded)")
    counters = telemetry.counters
    if counters:
        sections.append(format_table(
            ["counter", "value"],
            [[name, counters[name]] for name in sorted(counters)],
            title="Counters",
        ))
    traces = telemetry.summary()["traces"]
    sections.append(
        f"Traces: {traces['retained']} retained "
        f"({traces['complete']} complete, {traces['dropped']} dropped)"
    )
    return "\n\n".join(sections)


def _stringify(value: object) -> str:
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return "Overload"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.4g}"
    return str(value)
