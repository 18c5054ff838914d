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
process coordinator, the only thread on its core, takes no lock; the
simulator runs them in a locked burst on its virtual ``global-lock``
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

__all__ = ["DEAR_RUNS", "Placement", "ScheduleCore"]

#: Dear runs in a row that move a vertex away.  On a shared VM ~0.1 % of a
#: microsecond vertex's runs read 50-130 us of CPU (EXPERIMENTS.md): two in
#: a row would move a cheap vertex every few minutes of a long serve, three
#: about once a day; each costs a dear vertex one more bounded stake.
DEAR_RUNS = 3


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
    per-phase structure is garbage-collected.  *sink* is the delivery:
    it runs on the retiring driver's thread, inside its critical
    section, so it must never wait on the driver; an exception from it
    fails the run, and no phase reaches the sink after it.
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

    # -- the four operations (call with the driver's lock held, if any) ------

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
        state = self.state
        complete = state.complete_phase_count
        newly_ready = state.complete_executions(completed)
        if not self._retire:
            self._executions.extend([(v, p) for v, p, _ in completed])
        self._per_worker[worker] += len(completed)
        if self._tracer is not None:
            for pair in newly_ready:
                self._tracer.enqueued(pair)
        if state.complete_phase_count == complete:
            return newly_ready, 0  # most commits complete no phase
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
            first = rn = self._retire_next
            while state.phase_started(rn) and state.phase_complete(rn):
                rn += 1
            if rn > first:
                state.retire_phases_upto(rn - 1)
                self._phases_retired += rn - first
                self._retire_next = rn
            state.trim_completed_log(self._seen)
            # The books are closed before the first delivery, so a sink
            # that raises leaves them whole; it is then dropped, so that
            # what other threads still commit delivers no phase past it.
            sink = self._sink
            try:
                for q in range(first, rn):
                    ts, entries = self.runtime.retire_phase(q)
                    if sink is not None:
                        sink(q, ts, entries)
            except BaseException:
                self._sink = None
                raise
        return len(new_complete)


class Placement:
    """Whether a vertex's runs execute *here*, on the driver's own thread
    (threaded environment, process coordinator), or *away* (pool, sticky
    worker).  Every vertex starts here; ``DEAR_RUNS`` runs in a row that
    computed no cheaper than their hand-off (:meth:`settle`) move it
    away for good.  A run of a vertex that did not just read cheap is
    :meth:`staked`: the driver stops it once it has cost its hand-off
    (docs/ARCHITECTURE.md §5.8).  Not thread-safe."""

    def __init__(self, n: int) -> None:
        # Per vertex: -1 its last run read cheap, 0 never measured, k > 0
        # its last k runs read dear; ``DEAR_RUNS`` is away.
        self._standing = [0] * (n + 1)
        self.moved: List[int] = []  # vertices moved away, in order

    def here(self, v: int) -> bool:
        return self._standing[v] < DEAR_RUNS

    def staked(self, v: int) -> bool:
        return self._standing[v] >= 0

    def settle(self, v: int, computed: float, handoff: float) -> None:
        """Judge one run of *v* the driver executed here."""
        standing = -1 if computed < handoff else max(self._standing[v], 0) + 1
        self._standing[v] = standing
        if standing == DEAR_RUNS:
            self.moved.append(v)
