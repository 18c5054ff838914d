"""Vector-valued (multi-channel) models, NumPy-accelerated.

Real fusion systems carry array payloads — a 64-county incidence vector,
a multi-band spectrum, per-port traffic counters.  These modules exercise
array payloads through the engines while keeping the message values as
plain tuples (hashable, cheap to compare, and safe in record equality
checks); NumPy does the arithmetic internally, per the vectorisation
guidance of the HPC guides (compute on contiguous arrays, convert at the
boundary).  NumPy is imported by the methods that compute, never at
module import: a program without vector vertices does not load it, and a
worker that unpickles a promoted vertex (without running its
``__init__``) finds it there all the same.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..core.vertex import EMIT_NOTHING, SourceVertex, Vertex, VertexContext
from ..errors import WorkloadError
from ..spec.registry import register_vertex
from .basic import single_changed_value

if TYPE_CHECKING:
    import numpy as np

__all__ = ["VectorSensor", "VectorZScore", "VectorReduce"]


@register_vertex("VectorSensor")
class VectorSensor(SourceVertex):
    """A multi-channel random-walk sensor emitting value tuples.

    Each phase, every channel takes a Gaussian step; with probability
    *spike_rate* one uniformly chosen channel additionally jumps by
    *spike_size* — the multi-channel anomaly the downstream detector must
    localise.  Emits every phase (multi-channel feeds are dense).
    """

    def __init__(
        self,
        seed: int = 0,
        channels: int = 8,
        step: float = 1.0,
        start: float = 0.0,
        spike_rate: float = 0.0,
        spike_size: float = 25.0,
    ) -> None:
        super().__init__(seed)
        if channels < 1:
            raise WorkloadError(f"channels must be >= 1, got {channels}")
        if not 0.0 <= spike_rate <= 1.0:
            raise WorkloadError(f"spike_rate must be in [0,1], got {spike_rate}")
        self.channels = channels
        self.step = step
        self.start = start
        self.spike_rate = spike_rate
        self.spike_size = spike_size
        self.reset()

    def reset(self) -> None:
        import numpy as np

        super().reset()
        self._np_rng = np.random.default_rng(self.seed)
        self._values = np.full(self.channels, self.start, dtype=np.float64)

    def on_execute(self, ctx: VertexContext) -> Any:
        import numpy as np

        self._values += self._np_rng.normal(0.0, self.step, self.channels)
        if self.spike_rate and self._np_rng.random() < self.spike_rate:
            channel = int(self._np_rng.integers(self.channels))
            self._values[channel] += self.spike_size
        return tuple(np.round(self._values, 6).tolist())


@register_vertex("VectorZScore")
class VectorZScore(Vertex):
    """Per-channel sliding z-score over a tuple-valued stream (option 2).

    Keeps a ring buffer of the last *window* vectors; on each input,
    computes per-channel z-scores against the window (vectorised) and
    emits ``("anomaly", phase, ((channel, z), ...))`` covering only the
    channels beyond *threshold*.  Quiet streams stay silent; anomalous
    vectors are excluded from the window.
    """

    def __init__(self, window: int = 30, threshold: float = 4.0) -> None:
        if window < 4:
            raise WorkloadError(f"window must be >= 4, got {window}")
        if threshold <= 0:
            raise WorkloadError(f"threshold must be > 0, got {threshold}")
        self.window = window
        self.threshold = threshold
        self._buffer: Optional[np.ndarray] = None
        self._count = 0
        self._pos = 0

    def reset(self) -> None:
        self._buffer = None
        self._count = 0
        self._pos = 0

    def _push(self, vec: np.ndarray) -> None:
        import numpy as np

        if self._buffer is None:
            self._buffer = np.empty((self.window, vec.shape[0]), dtype=np.float64)
        self._buffer[self._pos] = vec
        self._pos = (self._pos + 1) % self.window
        self._count = min(self._count + 1, self.window)

    def on_execute(self, ctx: VertexContext) -> Any:
        import numpy as np

        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        vec = np.asarray(value, dtype=np.float64)
        if self._count >= max(4, self.window // 3):
            assert self._buffer is not None
            live = self._buffer[: self._count]
            mean = live.mean(axis=0)
            std = live.std(axis=0, ddof=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.where(std > 0, (vec - mean) / std, 0.0)
            hot = np.flatnonzero(np.abs(z) > self.threshold)
            if hot.size:
                report = tuple(
                    (int(c), round(float(z[c]), 4)) for c in hot.tolist()
                )
                return ("anomaly", ctx.phase, report)
        self._push(vec)
        return EMIT_NOTHING


@register_vertex("VectorReduce")
class VectorReduce(Vertex):
    """Reduces a tuple-valued stream to a scalar (``mean``, ``max``,
    ``min``, ``sum``, or ``norm``), emitting on material change only."""

    _OPS = ("mean", "max", "min", "sum", "norm")

    def __init__(self, op: str = "mean", emit_delta: float = 0.0) -> None:
        if op not in self._OPS:
            raise WorkloadError(
                f"op must be one of {sorted(self._OPS)}, got {op!r}"
            )
        if emit_delta < 0:
            raise WorkloadError(f"emit_delta must be >= 0, got {emit_delta}")
        self.op = op
        self.emit_delta = emit_delta
        self._last: Optional[float] = None

    def reset(self) -> None:
        self._last = None

    def on_execute(self, ctx: VertexContext) -> Any:
        import numpy as np

        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        reduce = np.linalg.norm if self.op == "norm" else getattr(np, self.op)
        result = float(reduce(np.asarray(value, dtype=np.float64)))
        if self._last is not None and abs(result - self._last) <= self.emit_delta:
            return EMIT_NOTHING
        self._last = result
        return round(result, 6)
