"""Statistical models and anomaly detectors.

These are the paper's archetypal modules: moving statistics, regressions,
and — centrally — anomaly detectors with the **two emission options** of
the Section 1 money-laundering discussion:

* :class:`AnomalyDetector` (and its statistical specialisations
  :class:`ZScoreDetector`, :class:`SlidingRegressionDetector`) implement
  **option (2)**: "the module outputs a message only when it receives an
  anomalous transaction".  These are the modules whose silence carries
  information, and whose low message rates the parallel algorithm exploits.
* :class:`DenseAnomalyDetector` implements **option (1)**: "the module
  outputs a message for each input message ... either that the transaction
  is anomalous or that it is acceptable".  It exists for the message-rate
  comparison (``tests/baselines/test_dense.py::TestMessageRateComparison``)
  that reproduces the paper's claim ("if one in a million transactions is
  anomalous then the rate of events generated using the second option is
  only a millionth of that generated using the first option").
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..core.vertex import EMIT_NOTHING, Vertex, VertexContext
from ..errors import WorkloadError
from ..spec.registry import register_vertex
from .basic import single_changed_value

__all__ = [
    "MovingAverage",
    "MovingStd",
    "EWMA",
    "ZScoreDetector",
    "SlidingRegressionDetector",
    "AnomalyDetector",
    "DenseAnomalyDetector",
    "DenseZScoreDetector",
    "PearsonCorrelator",
    "RunningStats",
    "non_finite",
]


def non_finite(value: Any) -> bool:
    """Default anomaly predicate: flags NaN / infinite floats.

    A module-level function (not a lambda) so detectors constructed with
    the default predicate stay picklable — the process-parallel engine
    ships vertex behaviours to worker processes by pickle.
    """
    return isinstance(value, float) and not math.isfinite(value)


class RunningStats:
    """Numerically stable sliding-window mean / variance (Welford-style
    updates adapted to a bounded window)."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise WorkloadError(f"window must be >= 1, got {window}")
        self.window = window
        self._values: Deque[float] = deque()
        self._sum = 0.0
        self._sumsq = 0.0

    def push(self, value: float) -> None:
        self._values.append(value)
        self._sum += value
        self._sumsq += value * value
        if len(self._values) > self.window:
            old = self._values.popleft()
            self._sum -= old
            self._sumsq -= old * old

    def __len__(self) -> int:
        return len(self._values)

    @property
    def full(self) -> bool:
        return len(self._values) == self.window

    @property
    def mean(self) -> float:
        if not self._values:
            raise WorkloadError("mean of an empty window")
        return self._sum / len(self._values)

    @property
    def std(self) -> float:
        n = len(self._values)
        if n < 2:
            return 0.0
        var = max(0.0, (self._sumsq - self._sum * self._sum / n) / (n - 1))
        return math.sqrt(var)

    def clear(self) -> None:
        self._values.clear()
        self._sum = 0.0
        self._sumsq = 0.0


@register_vertex("MovingAverage")
class MovingAverage(Vertex):
    """Sliding-window mean of a single numeric input; emits the new mean
    whenever the input changes (the mean almost always changes with it)."""

    def __init__(self, window: int = 5) -> None:
        self.stats = RunningStats(window)
        self._last: Optional[float] = None

    def reset(self) -> None:
        self.stats.clear()
        self._last = None

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        self.stats.push(float(value))
        mean = self.stats.mean
        if self._last is not None and mean == self._last:
            return EMIT_NOTHING
        self._last = mean
        return mean


@register_vertex("MovingStd")
class MovingStd(Vertex):
    """Sliding-window sample standard deviation of a single input."""

    def __init__(self, window: int = 5) -> None:
        self.stats = RunningStats(window)
        self._last: Optional[float] = None

    def reset(self) -> None:
        self.stats.clear()
        self._last = None

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        self.stats.push(float(value))
        std = self.stats.std
        if self._last is not None and std == self._last:
            return EMIT_NOTHING
        self._last = std
        return std


@register_vertex("EWMA")
class EWMA(Vertex):
    """Exponentially weighted moving average: ``s <- a*x + (1-a)*s``."""

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise WorkloadError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._state: Optional[float] = None

    def reset(self) -> None:
        self._state = None

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        x = float(value)
        self._state = x if self._state is None else (
            self.alpha * x + (1.0 - self.alpha) * self._state
        )
        return self._state


@register_vertex("AnomalyDetector")
class AnomalyDetector(Vertex):
    """Option (2): emit ``(phase, value)`` only for anomalous inputs.

    *predicate* decides anomaly; the default flags non-finite values.  The
    silence of this vertex is meaningful — downstream modules treat "no
    message" as "everything I last told you still holds".
    """

    def __init__(self, predicate: Optional[Callable[[Any], bool]] = None) -> None:
        self.predicate = predicate or non_finite

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if changed and self.predicate(value):
            return ("anomaly", ctx.phase, value)
        return EMIT_NOTHING


@register_vertex("DenseAnomalyDetector")
class DenseAnomalyDetector(Vertex):
    """Option (1): emit a verdict for **every** input message.

    Identical decision logic to :class:`AnomalyDetector`; the only
    difference is that acceptable inputs produce an explicit
    ``("ok", ...)`` message — the behaviour whose message rate the paper
    measures at ~10^6x the Δ detector's for rare anomalies.
    """

    def __init__(self, predicate: Optional[Callable[[Any], bool]] = None) -> None:
        self.predicate = predicate or non_finite

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        if self.predicate(value):
            return ("anomaly", ctx.phase, value)
        return ("ok", ctx.phase, value)


@register_vertex("DenseZScoreDetector")
class DenseZScoreDetector(Vertex):
    """Option (1) with the z-score decision rule: a verdict per message.

    The same anomaly decision as :class:`ZScoreDetector` (score against
    the sliding window; anomalies excluded from the window) but emits
    ``("ok", phase, value)`` for acceptable inputs too.  A proper class —
    not a closure wired into :class:`DenseAnomalyDetector` — so dense
    laundering workloads survive pickling into worker processes.
    """

    def __init__(self, window: int = 30, threshold: float = 3.0) -> None:
        self._zs = ZScoreDetector(window=window, threshold=threshold)

    @property
    def threshold(self) -> float:
        return self._zs.threshold

    def reset(self) -> None:
        self._zs.reset()

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        x = float(value)
        z = self._zs.score(x)
        if z is not None and abs(z) > self._zs.threshold:
            return ("anomaly", ctx.phase, value)
        self._zs.stats.push(x)
        return ("ok", ctx.phase, value)


@register_vertex("ZScoreDetector")
class ZScoreDetector(Vertex):
    """Sliding-window z-score outlier detector (option 2).

    Emits ``("anomaly", phase, value, z)`` when the new value deviates
    from the window mean by more than *threshold* standard deviations;
    the anomalous value is **excluded** from the window so an outlier does
    not mask its successors.
    """

    def __init__(self, window: int = 30, threshold: float = 3.0) -> None:
        if threshold <= 0:
            raise WorkloadError(f"threshold must be > 0, got {threshold}")
        self.stats = RunningStats(window)
        self.threshold = threshold

    def reset(self) -> None:
        self.stats.clear()

    def score(self, value: float) -> Optional[float]:
        """The z-score of *value* against the current window, or None if
        the window is not yet informative."""
        if len(self.stats) < max(3, self.stats.window // 3):
            return None
        std = self.stats.std
        if std == 0.0:
            return None
        return (value - self.stats.mean) / std

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        x = float(value)
        z = self.score(x)
        if z is not None and abs(z) > self.threshold:
            return ("anomaly", ctx.phase, x, round(z, 4))
        self.stats.push(x)
        return EMIT_NOTHING


@register_vertex("SlidingRegressionDetector")
class SlidingRegressionDetector(Vertex):
    """Outliers against a sliding-window linear regression (option 2).

    Fits ``value ~ a + b * phase`` over the last *window* observations and
    emits ``("anomaly", phase, value, residual)`` when the new value's
    residual exceeds *threshold* x the residual standard deviation — the
    paper's "anomalies are defined as outlier points in a statistical
    regression model".
    """

    def __init__(self, window: int = 30, threshold: float = 2.0) -> None:
        if window < 4:
            raise WorkloadError(f"window must be >= 4, got {window}")
        if threshold <= 0:
            raise WorkloadError(f"threshold must be > 0, got {threshold}")
        self.window = window
        self.threshold = threshold
        self._points: Deque[Tuple[float, float]] = deque()

    def reset(self) -> None:
        self._points.clear()

    def _fit(self) -> Optional[Tuple[float, float, float]]:
        """``(intercept, slope, residual_std)`` or None if underdetermined."""
        n = len(self._points)
        if n < 4:
            return None
        sx = sy = sxx = sxy = 0.0
        for x, y in self._points:
            sx += x
            sy += y
            sxx += x * x
            sxy += x * y
        denom = n * sxx - sx * sx
        if denom == 0.0:
            return None
        slope = (n * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / n
        ss = 0.0
        for x, y in self._points:
            r = y - (intercept + slope * x)
            ss += r * r
        resid_std = math.sqrt(ss / (n - 2)) if n > 2 else 0.0
        return intercept, slope, resid_std

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, value = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        x, y = float(ctx.phase), float(value)
        fit = self._fit()
        verdict: Any = EMIT_NOTHING
        if fit is not None:
            intercept, slope, resid_std = fit
            residual = y - (intercept + slope * x)
            if resid_std > 0 and abs(residual) > self.threshold * resid_std:
                verdict = ("anomaly", ctx.phase, y, round(residual, 4))
        if verdict is EMIT_NOTHING:
            # Inliers extend the model; outliers are excluded from it.
            self._points.append((x, y))
            if len(self._points) > self.window:
                self._points.popleft()
        return verdict


@register_vertex("PearsonCorrelator")
class PearsonCorrelator(Vertex):
    """Sliding-window Pearson correlation of two event streams.

    The paper's titular operation, as a module: whenever either input
    changes, the correlator samples the *pair* of latched values (Section
    3.1's semantics make the unchanged one's previous value valid "as of
    now"), maintains a window of such paired samples, and emits the
    correlation coefficient when it moves by more than *emit_delta*.
    Downstream predicates ("streams A and B have decoupled") hang off the
    emitted coefficient.
    """

    def __init__(
        self,
        a_input: str,
        b_input: str,
        window: int = 30,
        emit_delta: float = 0.05,
    ) -> None:
        if window < 3:
            raise WorkloadError(f"window must be >= 3, got {window}")
        if emit_delta < 0:
            raise WorkloadError(f"emit_delta must be >= 0, got {emit_delta}")
        self.a_input = a_input
        self.b_input = b_input
        self.window = window
        self.emit_delta = emit_delta
        self._pairs: Deque[Tuple[float, float]] = deque()
        self._last: Optional[float] = None

    def reset(self) -> None:
        self._pairs.clear()
        self._last = None

    def correlation(self) -> Optional[float]:
        """Pearson r over the current window (None if underdetermined)."""
        n = len(self._pairs)
        if n < 3:
            return None
        sa = sb = saa = sbb = sab = 0.0
        for a, b in self._pairs:
            sa += a
            sb += b
            saa += a * a
            sbb += b * b
            sab += a * b
        var_a = saa - sa * sa / n
        var_b = sbb - sb * sb / n
        if var_a <= 0 or var_b <= 0:
            return None
        cov = sab - sa * sb / n
        return max(-1.0, min(1.0, cov / math.sqrt(var_a * var_b)))

    def on_execute(self, ctx: VertexContext) -> Any:
        if not ctx.changed:
            return EMIT_NOTHING
        a = ctx.input(self.a_input)
        b = ctx.input(self.b_input)
        if a is None or b is None:
            return EMIT_NOTHING
        self._pairs.append((float(a), float(b)))
        if len(self._pairs) > self.window:
            self._pairs.popleft()
        r = self.correlation()
        if r is None:
            return EMIT_NOTHING
        if self._last is not None and abs(r - self._last) < self.emit_delta:
            return EMIT_NOTHING
        self._last = r
        return round(r, 6)
