"""The commit-section tail and the stats blocks both real engines share.

After a commit batch has been applied to the
:class:`~repro.core.state.SchedulerState`, the threaded workers and the
process coordinator do the same thing under the same lock: consume the
newly appended completion-log entries, and — in continuous-operation
mode — retire the extended contiguous complete prefix (stream each
phase's translated records to the sink, garbage-collect every per-phase
structure, trim the consumed log).  :class:`CompletionTail` is that code
once; :func:`scheduling_stats` is the part of the ``stats`` document
that is a function of the scheduler state and the pair runtime alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..core.plan import ExecutionPlan
from ..core.program import PairRuntime
from ..core.state import SchedulerState
from ..core.tracer import ExecutionTracer, max_concurrent_pairs, max_concurrent_phases

__all__ = ["CompletionTail", "scheduling_stats"]


class CompletionTail:
    """Completion cursor → retire the contiguous prefix → sink → trim.

    Not thread-safe: every call happens inside the engine's critical
    section, like the state mutation that precedes it.  *sink* (called
    as ``sink(phase, timestamp, entries)``) therefore runs under the
    lock and must be cheap and non-blocking.
    """

    __slots__ = (
        "_state", "_runtime", "_plan", "_tracer", "retiring", "_sink",
        "_seen", "_retire_next", "phases_retired", "internal_messages",
    )

    def __init__(
        self,
        state: SchedulerState,
        runtime: PairRuntime,
        plan: ExecutionPlan,
        tracer: Optional[ExecutionTracer],
        retire: bool,
        sink: Optional[Callable[..., None]],
    ) -> None:
        self._state = state
        self._runtime = runtime
        self._plan = plan
        self._tracer = tracer
        self.retiring = retire
        self._sink = sink
        self._seen = 0  # absolute completion-log cursor
        self._retire_next = 1  # next phase to retire
        self.phases_retired = 0
        self.internal_messages = 0  # fused-stage messages translated away

    def advance(self) -> int:
        """Consume the completion log past the cursor; returns how many
        phases newly completed (the flow-control credits to release)."""
        state = self._state
        # Labels come from the log via the absolute cursor: phases may
        # complete out of order under the cone frontier.
        new_complete = state.completed_since(self._seen)
        if not new_complete:
            return 0
        if self._tracer is not None:
            for q in new_complete:
                self._tracer.phase_completed(q)
        self._seen += len(new_complete)
        if self.retiring:
            # Stream each phase of the extended complete prefix out, then
            # GC every per-phase structure (bounded-memory guarantee).
            rn = self._retire_next
            while state.phase_started(rn) and state.phase_complete(rn):
                ts, entries = self._runtime.retire_phase(rn)
                entries, internal = self._plan.translate_entries(entries)
                self.internal_messages += internal
                if self._sink is not None:
                    self._sink(rn, ts, entries)
                rn += 1
            if rn > self._retire_next:
                state.retire_phases_upto(rn - 1)
                self.phases_retired += rn - self._retire_next
                self._retire_next = rn
            state.trim_completed_log(self._seen)
        return len(new_complete)


def scheduling_stats(
    state: SchedulerState,
    runtime: PairRuntime,
    tracer: Optional[ExecutionTracer],
    tail: CompletionTail,
) -> Dict[str, Any]:
    """The ``stats`` sections both real engines report alike:
    ``frontier``, ``suppression``, ``coalescing``, the edge-store
    counters, tracer-derived concurrency peaks, and — for a retiring
    run — ``retirement``."""
    stats: Dict[str, Any] = {
        "frontier": state.frontier_stats(),
        "suppression": runtime.suppression_stats(),
        "coalescing": state.coalescing_stats(),
        "edge_entries_peak": runtime.edges.peak_entries,
        "edge_entries_final": runtime.edges.total_pending_entries(),
    }
    if tracer is not None:
        intervals = tracer.intervals()
        stats["max_concurrent_phases"] = max_concurrent_phases(intervals)
        stats["max_concurrent_pairs"] = max_concurrent_pairs(intervals)
    if tail.retiring:
        stats["retirement"] = {
            "phases_retired": tail.phases_retired,
            "internal_messages": tail.internal_messages,
            "executed_pairs": state.executed_pairs,
        }
    return stats
