"""The epidemic-surveillance composition (the paper's Section 1 predicate).

    "a predicate could be that the one-week moving point average rate of
    incidence of a disease in any county is two standard deviations away
    from a regression model developed using data from a one-month window
    in neighboring counties."

Graph, for C counties on a ring (county c's neighbours are c±1)::

    incidence_c ──> weekly_c ──┬──> detector_c ──> surveillance
                               │
    weekly_{c-1}, weekly_{c+1} ┴──> neighbor_model_c ──> detector_c

* ``incidence_c`` — :class:`CountyIncidenceSource`: daily case counts,
  seasonal baseline + noise, with an optional injected outbreak in county
  0 (a growing excess starting at *outbreak_phase*);
* ``weekly_c`` — :class:`~repro.models.statistics.MovingAverage` (window
  7): the one-week moving point average;
* ``neighbor_model_c`` — :class:`NeighborRegressionModel`: a one-month
  (window 30) regression over the neighbours' weekly averages, emitting
  ``(prediction, sigma)`` when they move materially;
* ``detector_c`` — :class:`TwoSigmaDetector`: alerts when the county's
  weekly average departs from the neighbour prediction by more than two
  (configurable) standard deviations;
* ``surveillance`` — records the alerts.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ...core.program import Program
from ...core.vertex import EMIT_NOTHING, SourceVertex, Vertex, VertexContext
from ...errors import WorkloadError
from ...events import PhaseInput
from ...graph.model import ComputationGraph
from ...spec.registry import register_vertex
from ..basic import Recorder
from ..statistics import MovingAverage

__all__ = [
    "CountyIncidenceSource",
    "NeighborRegressionModel",
    "TwoSigmaDetector",
    "build_epidemic_program",
    "build_epidemic_workload",
]


@register_vertex("CountyIncidenceSource")
class CountyIncidenceSource(SourceVertex):
    """Daily disease-incidence counts for one county.

    ``count = Poisson-ish(baseline * seasonal(phase)) + outbreak excess``.
    The outbreak (if configured) grows linearly from *outbreak_phase* at
    *outbreak_slope* cases/day — the signal the two-sigma predicate must
    pick up against neighbours that do not share it.
    """

    def __init__(
        self,
        seed: int = 0,
        baseline: float = 20.0,
        season_amplitude: float = 0.3,
        season_period: float = 120.0,
        noise: float = 3.0,
        outbreak_phase: Optional[int] = None,
        outbreak_slope: float = 1.5,
    ) -> None:
        super().__init__(seed)
        if baseline <= 0:
            raise WorkloadError(f"baseline must be > 0, got {baseline}")
        self.baseline = baseline
        self.season_amplitude = season_amplitude
        self.season_period = season_period
        self.noise = noise
        self.outbreak_phase = outbreak_phase
        self.outbreak_slope = outbreak_slope

    def expected(self, phase: int) -> float:
        """The noiseless expected count at *phase* (tests use this)."""
        seasonal = 1.0 + self.season_amplitude * math.sin(
            2 * math.pi * phase / self.season_period
        )
        excess = 0.0
        if self.outbreak_phase is not None and phase >= self.outbreak_phase:
            excess = self.outbreak_slope * (phase - self.outbreak_phase)
        return self.baseline * seasonal + excess

    def on_execute(self, ctx: VertexContext) -> Any:
        value = self.expected(ctx.phase) + self.rng.gauss(0.0, self.noise)
        return max(0.0, round(value, 3))


@register_vertex("NeighborRegressionModel")
class NeighborRegressionModel(Vertex):
    """A one-month window model over neighbouring counties' weekly rates.

    Pools the latched weekly averages of all inputs over the trailing
    *window* executions and emits ``(mean, sigma)``, suppressed while the
    prediction moves less than *emit_delta* — the "regression model
    developed using data from a one-month window in neighboring counties".
    """

    def __init__(self, window: int = 30, emit_delta: float = 0.5) -> None:
        if window < 2:
            raise WorkloadError(f"window must be >= 2, got {window}")
        self.window = window
        self.emit_delta = emit_delta
        self._history: Deque[float] = deque()
        self._last: Optional[Tuple[float, float]] = None

    def reset(self) -> None:
        self._history.clear()
        self._last = None

    def on_execute(self, ctx: VertexContext) -> Any:
        if not ctx.changed or not ctx.inputs:
            return EMIT_NOTHING
        pooled = sum(ctx.inputs.values()) / len(ctx.inputs)
        self._history.append(pooled)
        if len(self._history) > self.window:
            self._history.popleft()
        n = len(self._history)
        if n < 5:
            return EMIT_NOTHING
        mean = sum(self._history) / n
        var = sum((v - mean) ** 2 for v in self._history) / (n - 1)
        sigma = math.sqrt(var)
        if (
            self._last is not None
            and abs(mean - self._last[0]) < self.emit_delta
            and abs(sigma - self._last[1]) < self.emit_delta
        ):
            return EMIT_NOTHING
        self._last = (round(mean, 4), round(sigma, 4))
        return self._last


@register_vertex("TwoSigmaDetector")
class TwoSigmaDetector(Vertex):
    """Alert when the county rate departs from the neighbour model.

    Inputs: the county's weekly average (``rate_input``) and the model's
    ``(prediction, sigma)`` (``model_input``).  Emits
    ``("alert", phase, rate, prediction, deviation_in_sigmas)`` on entering
    the anomalous regime, and stays silent while the alert state persists
    (re-alerting is the aggregator's concern, not the detector's).
    """

    def __init__(
        self,
        rate_input: str,
        model_input: str,
        sigmas: float = 2.0,
        min_sigma: float = 0.5,
    ) -> None:
        if sigmas <= 0:
            raise WorkloadError(f"sigmas must be > 0, got {sigmas}")
        self.rate_input = rate_input
        self.model_input = model_input
        self.sigmas = sigmas
        self.min_sigma = min_sigma
        self._alerting = False

    def reset(self) -> None:
        self._alerting = False

    def on_execute(self, ctx: VertexContext) -> Any:
        if not ctx.changed:
            return EMIT_NOTHING
        rate = ctx.input(self.rate_input)
        model = ctx.input(self.model_input)
        if rate is None or model is None:
            return EMIT_NOTHING
        prediction, sigma = model
        sigma = max(sigma, self.min_sigma)
        deviation = (rate - prediction) / sigma
        anomalous = abs(deviation) > self.sigmas
        if anomalous and not self._alerting:
            self._alerting = True
            return ("alert", ctx.phase, round(rate, 3), prediction, round(deviation, 3))
        if not anomalous and self._alerting:
            self._alerting = False
            return ("clear", ctx.phase, round(rate, 3))
        return EMIT_NOTHING


def build_epidemic_program(
    counties: int = 6,
    seed: int = 23,
    outbreak_county: Optional[int] = 0,
    outbreak_phase: Optional[int] = 60,
    sigmas: float = 2.0,
) -> Program:
    """Assemble the C-county surveillance program on a ring topology."""
    if counties < 3:
        raise WorkloadError(f"counties must be >= 3 (ring neighbours), got {counties}")
    g = ComputationGraph(name="epidemic-surveillance")
    behaviors: Dict[str, Vertex] = {}
    for c in range(counties):
        inc, wk = f"incidence_{c}", f"weekly_{c}"
        g.add_vertex(inc)
        g.add_vertex(wk)
        g.add_edge(inc, wk)
        behaviors[inc] = CountyIncidenceSource(
            seed=seed + c,
            outbreak_phase=outbreak_phase if c == outbreak_county else None,
        )
        behaviors[wk] = MovingAverage(window=7)
    for c in range(counties):
        model, det = f"neighbor_model_{c}", f"detector_{c}"
        g.add_vertex(model)
        g.add_vertex(det)
        left, right = (c - 1) % counties, (c + 1) % counties
        g.add_edge(f"weekly_{left}", model)
        g.add_edge(f"weekly_{right}", model)
        g.add_edge(f"weekly_{c}", det)
        g.add_edge(model, det)
        behaviors[model] = NeighborRegressionModel(window=30)
        behaviors[det] = TwoSigmaDetector(
            rate_input=f"weekly_{c}", model_input=model, sigmas=sigmas
        )
    g.add_vertex("surveillance")
    for c in range(counties):
        g.add_edge(f"detector_{c}", "surveillance")
    behaviors["surveillance"] = Recorder()
    return Program(g, behaviors, name="epidemic-surveillance")


def build_epidemic_workload(
    phases: int = 180,
    counties: int = 6,
    seed: int = 23,
    outbreak_phase: Optional[int] = 60,
) -> Tuple[Program, List[PhaseInput]]:
    """Program plus *phases* daily ticks (default: half a simulated year)."""
    program = build_epidemic_program(
        counties=counties, seed=seed, outbreak_phase=outbreak_phase
    )
    inputs = [PhaseInput(k, float(k)) for k in range(1, phases + 1)]
    return program, inputs
