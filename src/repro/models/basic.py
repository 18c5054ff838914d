"""Basic plumbing vertices.

Small structural modules used throughout the examples, tests, and
workloads.  All follow the Δ discipline: silent unless something changed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Tuple

from ..core.vertex import EMIT_NOTHING, Vertex, VertexContext
from ..errors import WorkloadError
from ..spec.registry import register_vertex

__all__ = [
    "Identity",
    "Constant",
    "Delay",
    "Gate",
    "Sampler",
    "Recorder",
    "ChangeRecorder",
    "ArrivalCounter",
]


def single_changed_value(ctx: VertexContext) -> Tuple[bool, Any]:
    """Helper: ``(changed, value)`` for single-input vertices.

    Multi-input graphs wired to single-input vertices are configuration
    errors; detecting them here gives a clear message.
    """
    if len(ctx.changed) > 1:
        raise WorkloadError(
            f"vertex {ctx.name!r} expects a single input but "
            f"{sorted(ctx.changed)!r} changed simultaneously"
        )
    if not ctx.changed:
        return False, None
    name = next(iter(ctx.changed))
    return True, ctx.inputs[name]


@register_vertex("Identity")
class Identity(Vertex):
    """Forwards every changed input value unmodified."""

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        return value if changed else EMIT_NOTHING


@register_vertex("Constant")
class Constant(Vertex):
    """Emits *value* once, in the first phase it executes, then stays
    silent (constants never change — pure Δ)."""

    def __init__(self, value: Any = 0) -> None:
        self.value = value
        self._emitted = False

    def reset(self) -> None:
        self._emitted = False

    def on_execute(self, ctx: VertexContext) -> Any:
        if self._emitted:
            return EMIT_NOTHING
        self._emitted = True
        return self.value


@register_vertex("Delay")
class Delay(Vertex):
    """Emits each input change *k* executions later.

    Models the "look-ahead" style buffering of distributed simulation
    (Section 5's related work); also handy for building test pipelines
    whose message timing differs from their topology.
    """

    def __init__(self, k: int = 1) -> None:
        if k < 1:
            raise WorkloadError(f"Delay requires k >= 1, got {k}")
        self.k = k
        self._buffer: Deque[Tuple[int, Any]] = deque()

    def reset(self) -> None:
        self._buffer.clear()

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if changed:
            self._buffer.append((ctx.phase + self.k, value))
        if self._buffer and self._buffer[0][0] <= ctx.phase:
            return self._buffer.popleft()[1]
        return EMIT_NOTHING


@register_vertex("Gate")
class Gate(Vertex):
    """Forwards the ``data`` input's changes while the ``control`` input's
    latched value is truthy.

    Input roles are inferred from predecessor names given at construction.
    """

    def __init__(self, data: str = "data", control: str = "control") -> None:
        self.data = data
        self.control = control

    def on_execute(self, ctx: VertexContext) -> Any:
        if self.data in ctx.changed and ctx.input(self.control):
            return ctx.inputs[self.data]
        return EMIT_NOTHING


@register_vertex("Sampler")
class Sampler(Vertex):
    """Forwards every *every*-th input change (decimation)."""

    def __init__(self, every: int = 2) -> None:
        if every < 1:
            raise WorkloadError(f"Sampler requires every >= 1, got {every}")
        self.every = every
        self._count = 0

    def reset(self) -> None:
        self._count = 0

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        self._count += 1
        if self._count % self.every == 0:
            return value
        return EMIT_NOTHING


@register_vertex("Recorder")
class Recorder(Vertex):
    """Records every changed input as ``(input_name, value)`` — the
    canonical sink behaviour ("read by input/output units outside the data
    fusion system", Section 2).  Forwards nothing."""

    def on_execute(self, ctx: VertexContext) -> Any:
        for name in sorted(ctx.changed):
            ctx.record((name, ctx.inputs[name]))
        return EMIT_NOTHING


@register_vertex("ChangeRecorder")
class ChangeRecorder(Vertex):
    """Records a changed input only when its value genuinely differs from
    the last value this vertex recorded for it: a value-equal arrival
    records nothing and leaves no state behind."""

    def __init__(self) -> None:
        self._last: Dict[str, Any] = {}

    def reset(self) -> None:
        self._last = {}

    def on_execute(self, ctx: VertexContext) -> Any:
        for name in sorted(ctx.changed):
            value = ctx.inputs[name]
            if name in self._last and self._last[name] == value:
                continue
            self._last[name] = value
            ctx.record((name, value))
        return EMIT_NOTHING


@register_vertex("ArrivalCounter")
class ArrivalCounter(Vertex):
    """Counts message *arrivals* (value-equal or not) and emits — or, at a
    sink, records — the running total on every execution.

    Its output depends on how many messages arrived, not on their values,
    so it exposes any engine that drops or duplicates a delivery."""

    def __init__(self) -> None:
        self.count = 0

    def reset(self) -> None:
        self.count = 0

    def on_execute(self, ctx: VertexContext) -> Any:
        self.count += len(ctx.changed)
        return self.count
