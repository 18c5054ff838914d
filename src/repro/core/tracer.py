"""Execution tracing: the evidence behind every reproduced figure.

The tracer records three kinds of evidence:

* **Events** — timestamped scheduler happenings (phase started, pair
  enqueued, execution begin/end).  Engines stamp them with real or virtual
  time, so the same analysis works for the threaded engine and the
  simulated SMP.
* **Set snapshots** — full copies of the partial / full / ready sets at
  labelled instants.  This is exactly what Figure 3 depicts (eight steps of
  a six-vertex graph with the set membership of every vertex-phase pair),
  and what the Fig.-3 benchmark asserts against.
* **Derived profiles** — :func:`concurrent_phase_profile` computes, from
  the begin/end intervals, how many *distinct phases* were executing
  simultaneously over time: the quantity Figure 1 illustrates (a 10-node
  graph with 5 phases in flight).

Recording is append-only and cheap; engines guard tracer calls with their
global lock, so no internal synchronisation is needed.
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
    "concurrent_phase_profile",
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
    """Collects events and snapshots during a run."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or time.monotonic
        self.events: List[TraceEvent] = []
        self.snapshots: List[SetSnapshot] = []

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

    def capture_sets(self, state: "SchedulerState", label: str) -> SetSnapshot:
        """Snapshot the live partial/full/ready sets under *label*."""
        snap = SetSnapshot(
            label=label,
            partial=state.partial_set(),
            full=state.full_set(),
            ready=state.ready_set(),
        )
        self.snapshots.append(snap)
        return snap

    # -- convenience ------------------------------------------------------

    def executed_pairs(self) -> List[Pair]:
        """Pairs in completion (execute_end) order."""
        return [ev.pair for ev in self.events if ev.kind == "execute_end"]

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


def concurrent_phase_profile(
    intervals: List[Tuple[float, float, Pair]],
) -> List[Tuple[float, int]]:
    """Step function ``(time, distinct phases executing)`` from intervals.

    At each boundary instant the profile holds the number of *distinct
    phase numbers* among the executions active right after that instant —
    the pipelining depth Figure 1 visualises.
    """
    deltas: List[Tuple[float, int, int]] = []  # (time, +1/-1, phase)
    for begin, end, (_v, p) in intervals:
        deltas.append((begin, +1, p))
        deltas.append((end, -1, p))
    # Ends sort before begins at equal times so touching intervals do not
    # count as overlapping.
    deltas.sort(key=lambda d: (d[0], d[1]))
    active: Dict[int, int] = {}
    profile: List[Tuple[float, int]] = []
    for t, sign, p in deltas:
        if sign > 0:
            active[p] = active.get(p, 0) + 1
        else:
            active[p] -= 1
            if active[p] == 0:
                del active[p]
        profile.append((t, len(active)))
    return profile


def max_concurrent_phases(intervals: List[Tuple[float, float, Pair]]) -> int:
    """Peak number of distinct phases executing simultaneously."""
    profile = concurrent_phase_profile(intervals)
    return max((count for _t, count in profile), default=0)


def max_concurrent_pairs(intervals: List[Tuple[float, float, Pair]]) -> int:
    """Peak number of vertex-phase pairs executing simultaneously."""
    deltas: List[Tuple[float, int]] = []
    for begin, end, _pair in intervals:
        deltas.append((begin, +1))
        deltas.append((end, -1))
    deltas.sort(key=lambda d: (d[0], d[1]))
    peak = cur = 0
    for _t, sign in deltas:
        cur += sign
        peak = max(peak, cur)
    return peak
