"""The scheduling core: the Listing 1 / Listing 2 critical sections, once.

:class:`ScheduleCore` owns one run's
:class:`~repro.core.program.PairRuntime` and
:class:`~repro.core.state.SchedulerState` and exposes the run lifecycle
as four operations — :meth:`~ScheduleCore.admit` (Listing 2's body),
:meth:`~ScheduleCore.claim` (the locked half of Listing 1's dequeue),
:meth:`~ScheduleCore.commit` (Listing 1's post-execution section plus
the completion tail) and :meth:`~ScheduleCore.result`.

It is passive and **not thread-safe**; who drives it, under which lock,
is all the engines differ in.  The threaded engine's peer workers and
environment thread wrap each call in the one global
:class:`~repro.runtime.locks.InstrumentedLock`; the single-threaded
process coordinator holds its (uncontended) lock for the same sections;
the simulator runs them in a locked burst on its virtual ``global-lock``
resource.  Vertex compute and the run's ``PairRuntime.commit`` /
``commit_remote`` deliveries stay with the driver, between ``claim`` and
``commit`` — compute outside the lock, deliveries inside it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.invariants import InvariantChecker
from ..core.program import PairRuntime, Program, RunResult
from ..core.state import SchedulerState
from ..core.tracer import ExecutionTracer, max_concurrent_pairs, max_concurrent_phases
from ..core.vertex import VertexContext
from ..errors import EngineError, SchedulerError
from ..events import PhaseInput

__all__ = ["ScheduleCore"]


class ScheduleCore:
    """One run's scheduling state and its four critical-section bodies.

    Phases arrive one at a time through :meth:`admit`.  *num_workers*
    sizes the per-worker execution counts.  *frontier* picks the
    scheduler: ``"cone"`` (``SchedulerState``: cone rule,
    adaptive runs — the real engines) or ``"global"``
    (``ReferenceScheduler``: Listings 1-2 as published).  The *tracer*
    receives phase-started, enqueued and phase-completed events from
    here; ``execute_begin`` / ``execute_end`` stay with the driver, which
    knows the worker and the clock.  With *retire*, each phase is
    retired as soon as the complete prefix extends: ``sink(phase,
    timestamp, entries)`` gets its record entries, then every
    per-phase structure is garbage-collected.  *sink* runs inside the
    driver's critical section and must be cheap and non-blocking.
    """

    def __init__(
        self,
        program: Program,
        num_workers: int,
        frontier: str = "cone",
        checker: Optional[InvariantChecker] = None,
        tracer: Optional[ExecutionTracer] = None,
        preempt: Optional[Callable[[str], None]] = None,
        retire: bool = False,
        sink: Optional[Callable[..., None]] = None,
    ) -> None:
        if retire and tracer is not None:
            raise EngineError(
                "retirement discards the per-phase data a tracer needs; "
                "run with tracer=None or retire=False"
            )
        program.reset()
        self.runtime = PairRuntime(program, [], stream_records=retire)
        if frontier == "cone":
            scheduler = SchedulerState
        elif frontier == "global":
            # The specification; a real engine never loads it.
            from ..core.reference import ReferenceScheduler as scheduler
        else:
            raise SchedulerError(
                f"frontier must be 'global' or 'cone', got {frontier!r}"
            )
        self.state = scheduler(
            program.numbering, checker=checker, preempt=preempt
        )
        self._tracer = tracer
        self._retire = retire
        self._sink = sink
        self._executions: List[Tuple[int, int]] = []
        self._per_worker = {w: 0 for w in range(num_workers)}
        self._seen = 0  # absolute completion-log cursor
        self._retire_next = 1  # next phase to retire
        self._phases_retired = 0

    @property
    def quiescent(self) -> bool:
        """Every started phase is complete."""
        return self.state.all_started_complete()

    @property
    def phases_in_flight(self) -> int:
        """Started-but-incomplete phases (the flow-control quantity)."""
        return self.state.pmax - self.state.complete_phase_count

    # -- the four operations (call with the driver's lock held) -------------

    def admit(self, phase_input: PhaseInput) -> List[Tuple[int, int]]:
        """Listing 2's body: register and start the next phase; returns
        the newly ready pairs, each to be placed on the run queue exactly
        once.  *phase_input* is registered in the same critical section
        that starts it, so no driver ever observes a
        started-but-unregistered phase."""
        self.runtime.register_phase(phase_input)
        state, tracer = self.state, self._tracer
        newly_ready = state.start_phase()
        if tracer is not None:
            tracer.phase_started(state.pmax)
            for pair in newly_ready:
                tracer.enqueued(pair)
        return newly_ready

    def claim(self, v: int, p: int) -> Tuple[List[int], List[VertexContext]]:
        """Extend the dequeued ready pair ``(v, p)`` into a run and
        prepare every member: ``(phases, contexts)`` in execution order.
        Preparing up front is safe: the ready head's inputs are fully
        determined (definition (8)) and a claimed member's inputs are
        final by its claim certificate."""
        phases = self.state.claim_run(v, p)
        return phases, self.runtime.prepare(v, phases)

    def commit(
        self, worker: int, completed: Sequence[Tuple[int, int, Sequence[int]]]
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Listing 1's post-execution section for one run: *completed*
        is ``(v, p, output_targets)`` per member — what the driver's
        :meth:`PairRuntime.commit` / ``commit_remote`` returned.  Returns
        the newly ready pairs and how many phases newly completed (the
        flow-control credits to release)."""
        newly_ready = self.state.complete_executions(completed)
        if not self._retire:
            self._executions.extend((v, p) for v, p, _ in completed)
        self._per_worker[worker] += len(completed)
        if self._tracer is not None:
            for pair in newly_ready:
                self._tracer.enqueued(pair)
        return newly_ready, self._advance()

    def result(
        self, label: str, elapsed: float, engine_stats: Dict[str, Any]
    ) -> RunResult:
        """Close the run: quiescence check, then *engine_stats* plus the
        sections that are a function of scheduler state and pair runtime
        alone."""
        state, runtime, tracer = self.state, self.runtime, self._tracer
        if not state.all_started_complete():
            raise EngineError(
                f"{label} stopped before quiescence: in-flight phases "
                f"{state.in_flight_phases()!r}"
            )
        stats: Dict[str, Any] = {
            **engine_stats,
            "per_worker_executions": dict(self._per_worker),
            "frontier": state.frontier_stats(),
            "coalescing": state.coalescing_stats(),
            "edge_entries_peak": runtime.edges.peak_entries,
            "edge_entries_final": runtime.edges.total_pending_entries(),
        }
        if tracer is not None:
            intervals = tracer.intervals()
            stats["max_concurrent_phases"] = max_concurrent_phases(intervals)
            stats["max_concurrent_pairs"] = max_concurrent_pairs(intervals)
        if self._retire:
            stats["retirement"] = {
                "phases_retired": self._phases_retired,
                "executed_pairs": state.executed_pairs,
            }
        return runtime.build_result(
            label, self._executions, elapsed, stats, phases_run=state.pmax
        )

    def _advance(self) -> int:
        """The completion tail: consume the completion log past the
        cursor; when retiring, stream the extended complete prefix to
        the sink and garbage-collect it (the bounded-memory guarantee).
        Returns the number of newly complete phases."""
        state = self.state
        # Labels come from the log via the absolute cursor: phases may
        # complete out of order under the cone frontier.
        new_complete = state.completed_since(self._seen)
        if not new_complete:
            return 0
        if self._tracer is not None:
            for q in new_complete:
                self._tracer.phase_completed(q)
        self._seen += len(new_complete)
        if self._retire:
            rn = self._retire_next
            while state.phase_started(rn) and state.phase_complete(rn):
                ts, entries = self.runtime.retire_phase(rn)
                if self._sink is not None:
                    self._sink(rn, ts, entries)
                rn += 1
            if rn > self._retire_next:
                state.retire_phases_upto(rn - 1)
                self._phases_retired += rn - self._retire_next
                self._retire_next = rn
            state.trim_completed_log(self._seen)
        return len(new_complete)
