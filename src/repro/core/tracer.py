"""Execution tracing: the evidence behind every reproduced figure.

Three kinds of evidence:

* **Events** — timestamped scheduler happenings (phase started, pair
  enqueued, execution begin/end, phase completed), all sent by
  :class:`~repro.runtime.core.ScheduleCore`.  A member executes from its
  run's claim to its run's commit on every engine.  The tracer's clock is
  real time, or the simulator's virtual time, so the same analysis works
  for the real engines and the simulated SMP.
* **Set snapshots** — :meth:`SetSnapshot.of` copies the partial / full /
  ready sets at a labelled instant.  This is exactly what Figure 3 depicts
  (eight steps of a six-vertex graph with the set membership of every
  vertex-phase pair), and what the Fig.-3 benchmark asserts against.
* **Peaks** — :func:`max_concurrent_phases` computes, from the begin/end
  intervals, how many *distinct phases* were executing at once: the
  quantity Figure 1 illustrates (a 10-node graph with 5 phases in
  flight); :func:`max_concurrent_pairs` counts pairs.

Recording is append-only and cheap; ``ScheduleCore`` runs inside the
driver's critical section, so no internal synchronisation is needed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .state import Pair, SchedulerState

__all__ = [
    "TraceEvent",
    "SetSnapshot",
    "ExecutionTracer",
    "max_concurrent_phases",
    "max_concurrent_pairs",
]

Pair = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One scheduler happening.

    ``kind`` is one of ``"phase_started"``, ``"enqueued"``,
    ``"execute_begin"``, ``"execute_end"``; ``pair`` is the vertex-phase
    pair concerned (or ``(0, p)`` for phase starts); ``worker`` identifies
    the executing worker where applicable.
    """

    time: float
    kind: str
    pair: Pair
    worker: Optional[int] = None


@dataclass(frozen=True, slots=True)
class SetSnapshot:
    """The three scheduling sets at one labelled instant (Figure 3 data)."""

    label: str
    partial: FrozenSet[Pair]
    full: FrozenSet[Pair]
    ready: FrozenSet[Pair]

    @classmethod
    def of(cls, state: "SchedulerState", label: str) -> "SetSnapshot":
        """Copy the live partial/full/ready sets of *state* under *label*."""
        return cls(label, state.partial_set(), state.full_set(), state.ready_set())

    def membership(self, pair: Pair) -> str:
        """``"none"``, ``"partial"``, ``"full"`` or ``"ready"`` — the four
        glyphs of Figure 3 (circle, diamond, octagon, square)."""
        if pair in self.ready:
            return "ready"
        if pair in self.full:
            return "full"
        if pair in self.partial:
            return "partial"
        return "none"


class ExecutionTracer:
    """Collects events during a run."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or time.monotonic
        self.events: List[TraceEvent] = []

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the time source (the simulated engine points this at its
        virtual clock before running)."""
        self._clock = clock

    # -- event recording (engines call these under their lock) -----------

    def phase_started(self, phase: int) -> None:
        self.events.append(TraceEvent(self._clock(), "phase_started", (0, phase)))

    def phase_completed(self, phase: int) -> None:
        self.events.append(TraceEvent(self._clock(), "phase_completed", (0, phase)))

    def enqueued(self, pair: Pair) -> None:
        self.events.append(TraceEvent(self._clock(), "enqueued", pair))

    def execute_begin(self, pair: Pair, worker: Optional[int] = None) -> None:
        self.events.append(TraceEvent(self._clock(), "execute_begin", pair, worker))

    def execute_end(self, pair: Pair, worker: Optional[int] = None) -> None:
        self.events.append(TraceEvent(self._clock(), "execute_end", pair, worker))

    # -- reading ----------------------------------------------------------

    def intervals(self) -> List[Tuple[float, float, Pair]]:
        """Matched ``(begin, end, pair)`` execution intervals."""
        open_at: Dict[Pair, float] = {}
        out: List[Tuple[float, float, Pair]] = []
        for ev in self.events:
            if ev.kind == "execute_begin":
                open_at[ev.pair] = ev.time
            elif ev.kind == "execute_end":
                begin = open_at.pop(ev.pair, ev.time)
                out.append((begin, ev.time, ev.pair))
        return out


def _peak(spans: List[Tuple[float, float, object]]) -> int:
    """Peak number of distinct keys among the ``(begin, end, key)`` spans
    active at one instant."""
    # Ends sort before begins at equal times so touching intervals do not
    # count as overlapping.
    deltas = sorted(
        [(begin, 1, key) for begin, _, key in spans]
        + [(end, -1, key) for _, end, key in spans],
        key=lambda d: d[:2],
    )
    active: Dict[object, int] = {}
    peak = 0
    for _t, sign, key in deltas:
        active[key] = active.get(key, 0) + sign
        if not active[key]:
            del active[key]
        peak = max(peak, len(active))
    return peak


def max_concurrent_phases(intervals: List[Tuple[float, float, Pair]]) -> int:
    """Peak number of distinct phases executing simultaneously — the
    pipelining depth Figure 1 visualises."""
    return _peak([(begin, end, p) for begin, end, (_v, p) in intervals])


def max_concurrent_pairs(intervals: List[Tuple[float, float, Pair]]) -> int:
    """Peak number of vertex-phase pairs executing simultaneously."""
    return _peak([(begin, end, i) for i, (begin, end, _) in enumerate(intervals)])
