"""The electricity-pricing composition (the paper's Section 1 example).

    "consider a system for pricing electrical energy ... models
    forecasting temperature variation in the coming day, load on the power
    grid and future prices.  The model for power demand may assume that
    temperature will vary in some fashion ... The power-demand model
    expects to receive an event if data from a sensor or some other model
    indicates that its assumptions about future temperatures are wrong.
    If the temperature sensor measures temperature at midnight to be 10°C
    when the power-demand model expects it to be 15°C, then the sensor
    sends a message to the power-demand model and the model adjusts its
    assumptions about temperature appropriately."

Graph::

    temp_sensor ──> temp_monitor ──> demand_model ──> price_model ──> price_board
    load_sensor ─────────────────────────^

* ``temp_sensor`` — a diurnal :class:`PeriodicSensor`.
* ``temp_monitor`` — :class:`TemperatureAssumptionMonitor`: holds the
  assumed diurnal profile and emits a **violation event** only when the
  measured temperature deviates beyond its tolerance, then adjusts its
  assumption (an additive correction).  Silence means "forecast holds".
* ``demand_model`` — :class:`PowerDemandModel`: expected demand from the
  (corrected) temperature and the latched grid load; emits on material
  change only.
* ``price_model`` — :class:`PriceModel`: convex price curve over demand.
* ``price_board`` — records the published prices.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from ...core.program import Program
from ...core.vertex import EMIT_NOTHING, Vertex, VertexContext
from ...errors import WorkloadError
from ...events import PhaseInput
from ...graph.model import ComputationGraph
from ...spec.registry import register_vertex
from ..basic import Recorder, single_changed_value
from ..sensors import PeriodicSensor, RandomWalkSensor

__all__ = [
    "TemperatureAssumptionMonitor",
    "PowerDemandModel",
    "PriceModel",
    "build_power_pricing_program",
    "build_power_pricing_workload",
]


@register_vertex("TemperatureAssumptionMonitor")
class TemperatureAssumptionMonitor(Vertex):
    """Emits violation events when measurements break the assumed profile.

    The assumed profile is ``mean + amplitude * sin(2*pi*phase/period)``
    plus an adaptive correction.  On a violation the monitor emits
    ``(phase, measured, assumed)`` and folds half the error into its
    correction — "the model adjusts its assumptions appropriately".
    """

    def __init__(
        self,
        mean: float = 20.0,
        amplitude: float = 10.0,
        period: float = 24.0,
        tolerance: float = 3.0,
    ) -> None:
        if tolerance <= 0:
            raise WorkloadError(f"tolerance must be > 0, got {tolerance}")
        self.mean = mean
        self.amplitude = amplitude
        self.period = period
        self.tolerance = tolerance
        self._correction = 0.0

    def reset(self) -> None:
        self._correction = 0.0

    def assumed(self, phase: int) -> float:
        return (
            self.mean
            + self.amplitude * math.sin(2 * math.pi * phase / self.period)
            + self._correction
        )

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, measured = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        assumed = self.assumed(ctx.phase)
        error = measured - assumed
        if abs(error) <= self.tolerance:
            return EMIT_NOTHING
        self._correction += 0.5 * error
        return (ctx.phase, round(measured, 4), round(assumed, 4))


@register_vertex("PowerDemandModel")
class PowerDemandModel(Vertex):
    """Expected demand from corrected temperature and latched grid load.

    ``demand = base + temp_sensitivity * |T - comfort| + load_weight * load``
    where ``T`` is the measured temperature carried by the latest violation
    event (between violations the model's assumptions hold, so demand only
    moves with load).  Emits when demand moves more than *emit_delta*.
    """

    def __init__(
        self,
        monitor_input: str = "temp_monitor",
        load_input: str = "load_sensor",
        base: float = 100.0,
        comfort: float = 18.0,
        temp_sensitivity: float = 4.0,
        load_weight: float = 1.0,
        emit_delta: float = 1.0,
    ) -> None:
        self.monitor_input = monitor_input
        self.load_input = load_input
        self.base = base
        self.comfort = comfort
        self.temp_sensitivity = temp_sensitivity
        self.load_weight = load_weight
        self.emit_delta = emit_delta
        self._last_emitted: Optional[float] = None

    def reset(self) -> None:
        self._last_emitted = None

    def on_execute(self, ctx: VertexContext) -> Any:
        if not ctx.changed:
            return EMIT_NOTHING
        violation = ctx.input(self.monitor_input)
        temp = violation[1] if violation is not None else self.comfort
        load = ctx.input(self.load_input, 0.0)
        demand = (
            self.base
            + self.temp_sensitivity * abs(temp - self.comfort)
            + self.load_weight * load
        )
        if (
            self._last_emitted is not None
            and abs(demand - self._last_emitted) < self.emit_delta
        ):
            return EMIT_NOTHING
        self._last_emitted = demand
        return round(demand, 4)


@register_vertex("PriceModel")
class PriceModel(Vertex):
    """A convex price curve: ``price = floor + k * max(0, demand - cap)^2 /
    cap + demand * unit``.  Emits when the price moves more than
    *emit_delta*."""

    def __init__(
        self,
        floor: float = 10.0,
        unit: float = 0.05,
        cap: float = 150.0,
        k: float = 0.2,
        emit_delta: float = 0.25,
    ) -> None:
        if cap <= 0:
            raise WorkloadError(f"cap must be > 0, got {cap}")
        self.floor = floor
        self.unit = unit
        self.cap = cap
        self.k = k
        self.emit_delta = emit_delta
        self._last: Optional[float] = None

    def reset(self) -> None:
        self._last = None

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, demand = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        over = max(0.0, demand - self.cap)
        price = self.floor + demand * self.unit + self.k * over * over / self.cap
        if self._last is not None and abs(price - self._last) < self.emit_delta:
            return EMIT_NOTHING
        self._last = price
        return round(price, 4)


def build_power_pricing_program(
    seed: int = 7,
    tolerance: float = 3.0,
    noise: float = 1.5,
) -> Program:
    """Assemble the five-vertex pricing program (see module docstring)."""
    g = ComputationGraph(name="power-pricing")
    g.add_vertices(
        ["temp_sensor", "load_sensor", "temp_monitor", "demand_model",
         "price_model", "price_board"]
    )
    g.add_edge("temp_sensor", "temp_monitor")
    g.add_edge("temp_monitor", "demand_model")
    g.add_edge("load_sensor", "demand_model")
    g.add_edge("demand_model", "price_model")
    g.add_edge("price_model", "price_board")
    behaviors = {
        "temp_sensor": PeriodicSensor(
            seed=seed, mean=20.0, amplitude=10.0, period=24.0, noise=noise
        ),
        "load_sensor": RandomWalkSensor(
            seed=seed + 1, start=50.0, step=2.0, report_delta=4.0
        ),
        "temp_monitor": TemperatureAssumptionMonitor(tolerance=tolerance),
        "demand_model": PowerDemandModel(),
        "price_model": PriceModel(),
        "price_board": Recorder(),
    }
    return Program(g, behaviors, name="power-pricing")


def build_power_pricing_workload(
    phases: int = 240,
    seed: int = 7,
    tolerance: float = 3.0,
    noise: float = 1.5,
) -> Tuple[Program, List[PhaseInput]]:
    """Program plus *phases* hourly phase signals (10 simulated days by
    default)."""
    program = build_power_pricing_program(seed=seed, tolerance=tolerance, noise=noise)
    inputs = [PhaseInput(k, float(k)) for k in range(1, phases + 1)]
    return program, inputs
