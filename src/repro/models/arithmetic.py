"""Arithmetic combinators.

Multi-input vertices that recompute from their *latched* inputs whenever
any input changes and emit **only when the computed value changes** —
the canonical Δ-dataflow discipline.  Inputs that have not yet carried a
value are treated as *missing* and either skipped (``Sum``/``Product``) or
defaulted (``LinearCombiner``).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..core.vertex import EMIT_NOTHING, Vertex, VertexContext
from ..errors import WorkloadError
from ..spec.registry import register_vertex
from .basic import single_changed_value

__all__ = ["Sum", "Difference", "Product", "LinearCombiner", "Scale"]


class _DeltaEmitter(Vertex):
    """Shared emit-on-change: subclasses implement :meth:`value_of`;
    the emitter recomputes on any input change and emits only if the value
    differs from the last emitted one."""

    def __init__(self) -> None:
        self._last: Any = _DeltaEmitter  # sentinel: nothing emitted yet

    def reset(self) -> None:
        self._last = _DeltaEmitter

    def value_of(self, ctx: VertexContext) -> Any:
        raise NotImplementedError

    def on_execute(self, ctx: VertexContext) -> Any:
        if not ctx.changed:
            return EMIT_NOTHING
        value = self.value_of(ctx)
        if value is EMIT_NOTHING:
            return EMIT_NOTHING
        if self._last is not _DeltaEmitter and value == self._last:
            return EMIT_NOTHING
        self._last = value
        return value


@register_vertex("Sum")
class Sum(_DeltaEmitter):
    """Sum of all latched inputs (missing inputs contribute nothing)."""

    def value_of(self, ctx: VertexContext) -> Any:
        if not ctx.inputs:
            return EMIT_NOTHING
        return sum(ctx.inputs.values())


@register_vertex("Product")
class Product(_DeltaEmitter):
    """Product of all latched inputs."""

    def value_of(self, ctx: VertexContext) -> Any:
        if not ctx.inputs:
            return EMIT_NOTHING
        out = 1
        for v in ctx.inputs.values():
            out *= v
        return out


@register_vertex("Difference")
class Difference(_DeltaEmitter):
    """``minuend - subtrahend`` over two named inputs; silent until both
    have carried a value."""

    def __init__(self, minuend: str, subtrahend: str) -> None:
        super().__init__()
        self.minuend = minuend
        self.subtrahend = subtrahend

    def value_of(self, ctx: VertexContext) -> Any:
        a = ctx.input(self.minuend, None)
        b = ctx.input(self.subtrahend, None)
        if a is None or b is None:
            return EMIT_NOTHING
        return a - b


@register_vertex("LinearCombiner")
class LinearCombiner(_DeltaEmitter):
    """``sum(weights[name] * input[name]) + bias`` over latched inputs.

    Inputs without a weight raise at execution (configuration error);
    weighted inputs that have not yet carried a value use *default*.
    """

    def __init__(
        self,
        weights: Mapping[str, float],
        bias: float = 0.0,
        default: float = 0.0,
    ) -> None:
        super().__init__()
        if not weights:
            raise WorkloadError("LinearCombiner requires at least one weight")
        self.weights: Dict[str, float] = dict(weights)
        self.bias = bias
        self.default = default

    def value_of(self, ctx: VertexContext) -> Any:
        unknown = set(ctx.inputs) - set(self.weights)
        if unknown:
            raise WorkloadError(
                f"LinearCombiner {ctx.name!r}: inputs {sorted(unknown)!r} "
                f"have no weight"
            )
        return (
            sum(w * ctx.input(name, self.default) for name, w in self.weights.items())
            + self.bias
        )


@register_vertex("Scale")
class Scale(_DeltaEmitter):
    """``factor * input + offset`` over a single input."""

    def __init__(self, factor: float = 1.0, offset: float = 0.0) -> None:
        super().__init__()
        self.factor = factor
        self.offset = offset

    def value_of(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        return self.factor * value + self.offset
