"""The crisis-management composition (the paper's hurricane example).

    "Dealing with hurricanes requires tracking the hurricanes, tracking
    ships and planes, monitoring the capacities of shelters and hospitals,
    monitoring flood levels and road conditions, and even tracking
    individuals using cell phones and RFID tags." (Section 1)

    "In the aftermath of a hurricane, public health workers are concerned
    about issues such as hospital occupancy and blood supply; electric
    utilities, on the other hand, are concerned about how best to deploy
    their repair crews to restore power."

Graph, for R coastal regions::

    storm_track ──> region_threat_r ──┐
    flood_gauge_r ──> flood_alert_r ──┼─> evacuation_r ──> emergency_ops
    shelter_r ──────> capacity_low_r ─┘
    road_sensor_r ──> road_closed_r ──────^

* ``storm_track`` — :class:`StormTrackSource`: the hurricane's 2D position
  as a biased random walk moving toward the coast, emitted only when it
  moves materially (a Δ source);
* ``region_threat_r`` — :class:`RegionThreat`: distance-based threat
  level per region, emitted on level *transitions* only;
* ``flood_gauge_r`` / ``flood_alert_r`` — water level random walk with a
  storm-surge component, thresholded;
* ``shelter_r`` / ``capacity_low_r`` — occupancy counter approaching
  capacity, thresholded;
* ``road_sensor_r`` / ``road_closed_r`` — sparse Poisson closure events,
  windowed;
* ``evacuation_r`` — :class:`EvacuationAdvisor`: the composite condition
  — recommend evacuation when the region is threatened AND (flooding OR
  shelters still have room... actually: flooding or road closures force
  the call while capacity remains); emits recommendation transitions;
* ``emergency_ops`` — records every recommendation (the sink the
  "different roles" read).

The composition exercises the paper's core claim at application scale:
dozens of vertices, mostly silent, correlating heterogeneous streams into
a handful of decisive events.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ...core.program import Program
from ...core.vertex import EMIT_NOTHING, SourceVertex, Vertex, VertexContext
from ...errors import WorkloadError
from ...events import PhaseInput
from ...graph.model import ComputationGraph
from ...spec.registry import register_vertex
from ..basic import Recorder, single_changed_value
from ..logic import Threshold
from ..sensors import PoissonEventSource, RandomWalkSensor
from .intrusion import WindowCountThreshold

__all__ = [
    "StormTrackSource",
    "RegionThreat",
    "ShelterOccupancySource",
    "EvacuationAdvisor",
    "build_crisis_program",
    "build_crisis_workload",
]


@register_vertex("StormTrackSource")
class StormTrackSource(SourceVertex):
    """The hurricane's position, reported on material movement.

    Starts offshore at *start* and drifts toward the coast (the origin)
    with per-phase bias *approach_speed* plus Gaussian wander.  Emits
    ``(x, y)`` when the position moved at least *report_delta* since the
    last report — between reports, the track is latched downstream.
    """

    def __init__(
        self,
        seed: int = 0,
        start: Tuple[float, float] = (120.0, 80.0),
        approach_speed: float = 1.5,
        wander: float = 1.0,
        report_delta: float = 2.0,
    ) -> None:
        super().__init__(seed)
        if report_delta < 0:
            raise WorkloadError("report_delta must be >= 0")
        self.start = start
        self.approach_speed = approach_speed
        self.wander = wander
        self.report_delta = report_delta
        self._pos = list(start)
        self._reported: Optional[Tuple[float, float]] = None

    def reset(self) -> None:
        super().reset()
        self._pos = list(self.start)
        self._reported = None

    def on_execute(self, ctx: VertexContext) -> Any:
        x, y = self._pos
        norm = math.hypot(x, y)
        if norm > 1e-9:
            x -= self.approach_speed * x / norm
            y -= self.approach_speed * y / norm
        x += self.rng.gauss(0.0, self.wander)
        y += self.rng.gauss(0.0, self.wander)
        self._pos = [x, y]
        if (
            self._reported is None
            or math.hypot(x - self._reported[0], y - self._reported[1])
            >= self.report_delta
        ):
            self._reported = (round(x, 3), round(y, 3))
            return self._reported
        return EMIT_NOTHING


@register_vertex("RegionThreat")
class RegionThreat(Vertex):
    """Distance-banded threat level for one region, transitions only.

    Levels: 0 (clear, distance > *watch*), 1 (watch), 2 (warning,
    distance <= *warning*).
    """

    def __init__(
        self,
        center: Tuple[float, float],
        watch: float = 80.0,
        warning: float = 40.0,
    ) -> None:
        if not 0 < warning < watch:
            raise WorkloadError("need 0 < warning < watch")
        self.center = center
        self.watch = watch
        self.warning = warning
        self._level: Optional[int] = None

    def reset(self) -> None:
        self._level = None

    def level_for(self, pos: Tuple[float, float]) -> int:
        d = math.hypot(pos[0] - self.center[0], pos[1] - self.center[1])
        if d <= self.warning:
            return 2
        if d <= self.watch:
            return 1
        return 0

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, pos = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        level = self.level_for(pos)
        if level == self._level:
            return EMIT_NOTHING
        self._level = level
        return level


@register_vertex("ShelterOccupancySource")
class ShelterOccupancySource(SourceVertex):
    """Shelter occupancy fraction, drifting upward as people arrive.

    Emits the fraction when it moved at least *report_delta* since the
    last report.  Arrival pressure grows over the run (the aftermath
    dynamic the paper describes).
    """

    def __init__(
        self,
        seed: int = 0,
        capacity: int = 500,
        base_arrivals: float = 2.0,
        surge_per_phase: float = 0.05,
        report_delta: float = 0.05,
    ) -> None:
        super().__init__(seed)
        if capacity < 1:
            raise WorkloadError("capacity must be >= 1")
        self.capacity = capacity
        self.base_arrivals = base_arrivals
        self.surge_per_phase = surge_per_phase
        self.report_delta = report_delta
        self._occupied = 0.0
        self._reported: Optional[float] = None

    def reset(self) -> None:
        super().reset()
        self._occupied = 0.0
        self._reported = None

    def on_execute(self, ctx: VertexContext) -> Any:
        rate = self.base_arrivals + self.surge_per_phase * ctx.phase
        arrivals = max(0.0, self.rng.gauss(rate, rate / 2))
        self._occupied = min(float(self.capacity), self._occupied + arrivals)
        fraction = self._occupied / self.capacity
        if self._reported is None or abs(fraction - self._reported) >= self.report_delta:
            self._reported = fraction
            return round(fraction, 4)
        return EMIT_NOTHING


@register_vertex("EvacuationAdvisor")
class EvacuationAdvisor(Vertex):
    """The composite evacuation predicate for one region.

    Recommend evacuation when the latched picture says:

    * threat level >= *threat_needed* (the storm is close), AND
    * flooding is active OR roads are closing (conditions deteriorate), AND
    * shelter space remains (``capacity_low`` is not yet True) — once
      shelters saturate the recommendation flips to shelter-in-place.

    Emits ``("evacuate", region)`` / ``("shelter-in-place", region)`` /
    ``("stand-down", region)`` transitions only.
    """

    def __init__(
        self,
        region: str,
        threat_input: str,
        flood_input: str,
        roads_input: str,
        capacity_input: str,
        threat_needed: int = 1,
    ) -> None:
        self.region = region
        self.threat_input = threat_input
        self.flood_input = flood_input
        self.roads_input = roads_input
        self.capacity_input = capacity_input
        self.threat_needed = threat_needed
        self._state: Optional[str] = None

    def reset(self) -> None:
        self._state = None

    def on_execute(self, ctx: VertexContext) -> Any:
        if not ctx.changed:
            return EMIT_NOTHING
        threat = ctx.input(self.threat_input, 0)
        flooding = bool(ctx.input(self.flood_input, False))
        roads_closing = bool(ctx.input(self.roads_input, False))
        shelters_full = bool(ctx.input(self.capacity_input, False))
        if threat >= self.threat_needed and (flooding or roads_closing):
            state = "shelter-in-place" if shelters_full else "evacuate"
        else:
            state = "stand-down"
        if state == self._state:
            return EMIT_NOTHING
        first = self._state is None
        self._state = state
        if first and state == "stand-down":
            return EMIT_NOTHING  # don't announce the default
        return (state, self.region)


def build_crisis_program(
    regions: int = 3,
    seed: int = 41,
    coast_spacing: float = 30.0,
) -> Program:
    """Assemble the R-region hurricane-response program."""
    if regions < 1:
        raise WorkloadError(f"regions must be >= 1, got {regions}")
    g = ComputationGraph(name="crisis-management")
    behaviors: Dict[str, Vertex] = {}

    g.add_vertex("storm_track")
    behaviors["storm_track"] = StormTrackSource(seed=seed)

    for r in range(regions):
        name = f"r{r}"
        center = (coast_spacing * (r - (regions - 1) / 2.0), 0.0)
        flood, shelter, road = (
            f"flood_gauge_{name}",
            f"shelter_{name}",
            f"road_sensor_{name}",
        )
        threat, falert, clow, rclosed, evac = (
            f"region_threat_{name}",
            f"flood_alert_{name}",
            f"capacity_low_{name}",
            f"road_closed_{name}",
            f"evacuation_{name}",
        )
        g.add_vertices([flood, shelter, road, threat, falert, clow, rclosed, evac])
        g.add_edge("storm_track", threat)
        g.add_edge(flood, falert)
        g.add_edge(shelter, clow)
        g.add_edge(road, rclosed)
        for ind in (threat, falert, clow, rclosed):
            g.add_edge(ind, evac)
        behaviors[flood] = RandomWalkSensor(
            seed=seed + 10 + r, start=1.0, step=0.25, report_delta=0.3
        )
        behaviors[shelter] = ShelterOccupancySource(seed=seed + 20 + r)
        behaviors[road] = PoissonEventSource(seed=seed + 30 + r, rate=0.08)
        behaviors[threat] = RegionThreat(center=center)
        behaviors[falert] = Threshold(limit=3.0, direction="above")
        behaviors[clow] = Threshold(limit=0.85, direction="above")
        behaviors[rclosed] = WindowCountThreshold(window=24, threshold=2)
        behaviors[evac] = EvacuationAdvisor(
            region=name,
            threat_input=threat,
            flood_input=falert,
            roads_input=rclosed,
            capacity_input=clow,
        )
    g.add_vertex("emergency_ops")
    for r in range(regions):
        g.add_edge(f"evacuation_r{r}", "emergency_ops")
    behaviors["emergency_ops"] = Recorder()
    return Program(g, behaviors, name="crisis-management")


def build_crisis_workload(
    phases: int = 120,
    regions: int = 3,
    seed: int = 41,
) -> Tuple[Program, List[PhaseInput]]:
    """Program plus *phases* hourly ticks of hurricane approach."""
    program = build_crisis_program(regions=regions, seed=seed)
    inputs = [PhaseInput(k, float(k)) for k in range(1, phases + 1)]
    return program, inputs
