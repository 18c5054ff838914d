"""Boolean condition combinators.

The paper's "critical conditions — threats or opportunities — are
specified as predicates over event stream histories" (Section 1).  These
vertices build composite predicates out of simpler signals; all are
**edge-triggered**: they emit only when their boolean output *changes*,
which is the Δ discipline that keeps alert traffic sparse.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.vertex import EMIT_NOTHING, Vertex, VertexContext
from ..errors import WorkloadError
from ..spec.registry import register_vertex
from .basic import single_changed_value

__all__ = ["Threshold", "And", "Or", "Not", "KofN", "Debounce"]


class _BoolEmitter(Vertex):
    """Emit the boolean value only on transitions (False->True / True->False)."""

    def __init__(self) -> None:
        self._last: Optional[bool] = None

    def reset(self) -> None:
        self._last = None

    def value_of(self, ctx: VertexContext) -> Optional[bool]:
        raise NotImplementedError

    def on_execute(self, ctx: VertexContext) -> Any:
        if not ctx.changed:
            return EMIT_NOTHING
        value = self.value_of(ctx)
        if value is None or value == self._last:
            return EMIT_NOTHING
        self._last = value
        return value


@register_vertex("Threshold")
class Threshold(_BoolEmitter):
    """True while the input is above (``direction='above'``) or below
    (``'below'``) *limit*; emits on transitions only."""

    def __init__(self, limit: float, direction: str = "above") -> None:
        super().__init__()
        if direction not in ("above", "below"):
            raise WorkloadError(f"direction must be 'above' or 'below', got {direction!r}")
        self.limit = limit
        self.direction = direction

    def value_of(self, ctx: VertexContext) -> Optional[bool]:
        changed, value = single_changed_value(ctx)
        if not changed:
            return None
        return value > self.limit if self.direction == "above" else value < self.limit


@register_vertex("And")
class And(_BoolEmitter):
    """True when every latched input is truthy.

    Predecessors that have never sent a value count as False: with *arity*
    set to the in-degree, the conjunction stays False until all inputs
    have affirmed at least once — absence is information, but not
    affirmation.
    """

    def __init__(self, arity: Optional[int] = None) -> None:
        super().__init__()
        self._arity = arity

    def value_of(self, ctx: VertexContext) -> Optional[bool]:
        if self._arity is not None and len(ctx.inputs) < self._arity:
            return False
        return bool(ctx.inputs) and all(bool(v) for v in ctx.inputs.values())


@register_vertex("Or")
class Or(_BoolEmitter):
    """True when any latched input is truthy."""

    def value_of(self, ctx: VertexContext) -> Optional[bool]:
        return any(bool(v) for v in ctx.inputs.values())


@register_vertex("Not")
class Not(_BoolEmitter):
    """Negation of a single boolean input."""

    def value_of(self, ctx: VertexContext) -> Optional[bool]:
        changed, value = single_changed_value(ctx)
        if not changed:
            return None
        return not bool(value)


@register_vertex("KofN")
class KofN(_BoolEmitter):
    """True when at least *k* latched inputs are truthy — the composite
    condition shape of multi-sensor fusion ("k independent indicators
    agree")."""

    def __init__(self, k: int) -> None:
        super().__init__()
        if k < 1:
            raise WorkloadError(f"k must be >= 1, got {k}")
        self.k = k

    def value_of(self, ctx: VertexContext) -> Optional[bool]:
        return sum(1 for v in ctx.inputs.values() if bool(v)) >= self.k


@register_vertex("Debounce")
class Debounce(Vertex):
    """Forwards True only after *n* consecutive truthy input changes, and
    False immediately — suppresses flapping alerts."""

    def __init__(self, n: int = 2) -> None:
        if n < 1:
            raise WorkloadError(f"n must be >= 1, got {n}")
        self.n = n
        self._streak = 0
        self._last: Optional[bool] = None

    def reset(self) -> None:
        self._streak = 0
        self._last = None

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        if bool(value):
            self._streak += 1
            if self._streak >= self.n and self._last is not True:
                self._last = True
                return True
        else:
            self._streak = 0
            if self._last is not False and self._last is not None:
                self._last = False
                return False
            self._last = False
        return EMIT_NOTHING
