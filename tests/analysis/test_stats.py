"""Tests for statistics helpers and table formatting."""

from repro.analysis.stats import format_table


class TestFormatTable:
    def test_alignment_and_floats(self):
        table = format_table(["name", "value"], [["a", 1.23456], ["bb", 2.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "1.235" in table
        assert "2.000" in table

    def test_column_width_adapts(self):
        table = format_table(["h"], [["wiiiiiiide"]])
        header, rule, row = table.splitlines()
        assert len(header) == len(rule) == len(row)

    def test_precision_override(self):
        table = format_table(["x"], [[3.14159]], float_precision=1)
        assert "3.1" in table

    def test_ints_and_strings_passthrough(self):
        table = format_table(["a", "b"], [[7, "seven"]])
        assert "7" in table and "seven" in table
