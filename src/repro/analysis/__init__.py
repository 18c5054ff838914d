"""Analysis layer: serializability checking, statistics, ASCII rendering."""

from .serializability import (
    assert_serializable,
    check_serializable,
    SerializabilityReport,
)
from .stats import (
    format_table,
    validate_engine_stats,
    validate_coalescing_stats,
)
from .ascii_viz import render_graph, render_snapshot, render_frames

__all__ = [
    "assert_serializable",
    "check_serializable",
    "SerializabilityReport",
    "format_table",
    "validate_engine_stats",
    "validate_coalescing_stats",
    "render_graph",
    "render_snapshot",
    "render_frames",
]
