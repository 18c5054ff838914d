"""The intrusion-detection composition.

Section 1 names intrusion detection as a driving application: "composite
conditions over multiple data streams must be detected rapidly".  This
composition fuses four security feeds into one composite alarm::

    portscan ─────> scan_window ───┐
    failed_logins ─> login_window ─┼─> composite (k-of-n) ─> debounce ─> soc
    ids_alerts ───> ids_window ────┤
    traffic ──────> traffic_spike ─┘

* the three event feeds are sparse :class:`PoissonEventSource` streams
  (mostly silent — the Δ regime);
* ``traffic`` is a :class:`RandomWalkSensor` volume stream feeding a
  :class:`~repro.models.statistics.ZScoreDetector` spike detector;
* each window vertex (:class:`WindowCountThreshold`) raises a boolean
  indicator when its feed accumulates *threshold* events within *window*
  phases (evaluated lazily at event arrivals — between messages the
  indicator's latched value stands, absence meaning "no news");
* ``composite`` is :class:`~repro.models.logic.KofN` over the indicators,
  ``debounce`` suppresses flapping, and ``soc`` records the incidents.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ...core.program import Program
from ...core.vertex import EMIT_NOTHING, Vertex, VertexContext
from ...errors import WorkloadError
from ...events import PhaseInput
from ...graph.model import ComputationGraph
from ...spec.registry import register_vertex
from ..basic import Recorder, single_changed_value
from ..logic import KofN
from ..sensors import PoissonEventSource, RandomWalkSensor
from ..statistics import ZScoreDetector

__all__ = [
    "WindowCountThreshold",
    "SpikeIndicator",
    "build_intrusion_program",
    "build_intrusion_workload",
]


@register_vertex("WindowCountThreshold")
class WindowCountThreshold(Vertex):
    """Boolean indicator: >= *threshold* events within *window* phases.

    Consumes event-count messages; each message contributes its count at
    its phase.  The indicator is re-evaluated only when a message arrives
    (Δ-lazy aging): it turns True the moment the windowed total reaches
    the threshold, and turns False at the first arrival after the window
    has drained.  Emits transitions only.
    """

    def __init__(self, window: int = 10, threshold: int = 3) -> None:
        if window < 1 or threshold < 1:
            raise WorkloadError("window and threshold must be >= 1")
        self.window = window
        self.threshold = threshold
        self._events: Deque[Tuple[int, int]] = deque()  # (phase, count)
        self._state: Optional[bool] = None

    def reset(self) -> None:
        self._events.clear()
        self._state = None

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, count = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        self._events.append((ctx.phase, int(count)))
        while self._events and self._events[0][0] <= ctx.phase - self.window:
            self._events.popleft()
        total = sum(c for _p, c in self._events)
        state = total >= self.threshold
        if state == self._state:
            return EMIT_NOTHING
        self._state = state
        return state


@register_vertex("SpikeIndicator")
class SpikeIndicator(Vertex):
    """Adapts an anomaly-event stream into a boolean indicator.

    Turns True on each anomaly event and back False once *cooldown*
    phases pass without one (evaluated at the next arrival).  Emits
    transitions only.
    """

    def __init__(self, cooldown: int = 5) -> None:
        if cooldown < 1:
            raise WorkloadError(f"cooldown must be >= 1, got {cooldown}")
        self.cooldown = cooldown
        self._last_anomaly: Optional[int] = None
        self._state: Optional[bool] = None

    def reset(self) -> None:
        self._last_anomaly = None
        self._state = None

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, event = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        if isinstance(event, tuple) and event and event[0] == "anomaly":
            self._last_anomaly = ctx.phase
            state = True
        else:
            state = (
                self._last_anomaly is not None
                and ctx.phase - self._last_anomaly < self.cooldown
            )
        if state == self._state:
            return EMIT_NOTHING
        self._state = state
        return state


def build_intrusion_program(
    seed: int = 31,
    scan_rate: float = 0.15,
    login_rate: float = 0.1,
    ids_rate: float = 0.05,
    k: int = 2,
) -> Program:
    """Assemble the four-feed composite-condition program."""
    g = ComputationGraph(name="intrusion-detection")
    g.add_vertices(
        [
            "portscan",
            "failed_logins",
            "ids_alerts",
            "traffic",
            "scan_window",
            "login_window",
            "ids_window",
            "traffic_zscore",
            "traffic_spike",
            "composite",
            "debounce",
            "soc",
        ]
    )
    g.add_edge("portscan", "scan_window")
    g.add_edge("failed_logins", "login_window")
    g.add_edge("ids_alerts", "ids_window")
    g.add_edge("traffic", "traffic_zscore")
    g.add_edge("traffic_zscore", "traffic_spike")
    for ind in ("scan_window", "login_window", "ids_window", "traffic_spike"):
        g.add_edge(ind, "composite")
    g.add_edge("composite", "debounce")
    g.add_edge("debounce", "soc")
    from ..logic import Debounce

    behaviors: Dict[str, Vertex] = {
        "portscan": PoissonEventSource(seed=seed, rate=scan_rate),
        "failed_logins": PoissonEventSource(seed=seed + 1, rate=login_rate),
        "ids_alerts": PoissonEventSource(seed=seed + 2, rate=ids_rate),
        "traffic": RandomWalkSensor(seed=seed + 3, start=100.0, step=5.0),
        "scan_window": WindowCountThreshold(window=12, threshold=3),
        "login_window": WindowCountThreshold(window=12, threshold=3),
        "ids_window": WindowCountThreshold(window=20, threshold=2),
        "traffic_zscore": ZScoreDetector(window=30, threshold=2.5),
        "traffic_spike": SpikeIndicator(cooldown=8),
        "composite": KofN(k),
        "debounce": Debounce(n=1),
        "soc": Recorder(),
    }
    return Program(g, behaviors, name="intrusion-detection")


def build_intrusion_workload(
    phases: int = 600,
    seed: int = 31,
    k: int = 2,
) -> Tuple[Program, List[PhaseInput]]:
    """Program plus *phases* monitoring ticks."""
    program = build_intrusion_program(seed=seed, k=k)
    inputs = [PhaseInput(t, float(t)) for t in range(1, phases + 1)]
    return program, inputs
