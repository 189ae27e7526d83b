"""Tests for the reporting helpers."""

import math

from repro.harness import (
    format_microseconds,
    format_rate,
    format_table,
)


class TestFormatting:
    def test_microseconds(self) -> None:
        assert format_microseconds(385e-6) == "385"
        assert format_microseconds(1.5e-3) == "1,500"
        assert format_microseconds(math.inf) == "Overload"
        assert format_microseconds(math.nan) == "Overload"

    def test_rate(self) -> None:
        assert format_rate(37_640.4) == "37,640"
        assert format_rate(math.inf) == "unbounded"

    def test_table_alignment(self) -> None:
        table = format_table(
            ["Scheme", "Rq"],
            [["MPR", 385.0], ["F-Rep", math.inf]],
            title="Table II",
        )
        lines = table.splitlines()
        assert lines[0] == "Table II"
        assert "Scheme" in lines[1]
        assert "Overload" in table
        assert "385" in table

    def test_empty_inputs(self) -> None:
        assert format_table(["a"], []) != ""
