"""Tests for statistics helpers and table formatting."""

from repro.analysis.stats import format_table, message_rate_summary
from repro.core.program import RunResult


def rr(engine: str, wall: float, messages: int = 0, executions: int = 0) -> RunResult:
    return RunResult(
        engine=engine,
        records={},
        executions=[(1, p) for p in range(1, executions + 1)],
        message_count=messages,
        phases_run=1,
        wall_time=wall,
    )


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


class TestMessageRateSummary:
    def test_ratios(self):
        delta = rr("delta", 1.0, messages=10, executions=20)
        dense = rr("dense", 1.0, messages=1000, executions=200)
        summary = message_rate_summary(delta, dense, phases=100)
        assert summary["message_ratio"] == 100.0
        assert summary["execution_ratio"] == 10.0
        assert summary["delta_messages_per_phase"] == 0.1
        assert summary["dense_messages_per_phase"] == 10.0

    def test_zero_delta_messages(self):
        delta = rr("delta", 1.0, messages=0, executions=1)
        dense = rr("dense", 1.0, messages=10, executions=10)
        summary = message_rate_summary(delta, dense, phases=10)
        assert summary["message_ratio"] == float("inf")
