"""Reporting helpers shared by benches and examples."""

from .metrics import PoolMetrics, StageTimer
from .records import (
    ExperimentRecord,
    filter_records,
    load_records,
    save_records,
)
from .report import (
    ascii_bar_chart,
    format_duration,
    format_microseconds,
    format_rate,
    format_series,
    format_table,
    telemetry_report,
)

__all__ = [
    "PoolMetrics",
    "StageTimer",
    "ExperimentRecord",
    "filter_records",
    "load_records",
    "save_records",
    "ascii_bar_chart",
    "format_duration",
    "format_microseconds",
    "format_rate",
    "format_series",
    "format_table",
    "telemetry_report",
]
