"""The scheduling core: the Listing 1 / Listing 2 critical sections, once.

:class:`ScheduleCore` owns one run's
:class:`~repro.core.program.PairRuntime` and
:class:`~repro.core.state.SchedulerState` and exposes the run lifecycle
as five operations — :meth:`~ScheduleCore.admit` (Listing 2's body),
:meth:`~ScheduleCore.claim` (the locked half of Listing 1's dequeue),
:meth:`~ScheduleCore.commit` (Listing 1's post-execution section plus
the completion tail), :meth:`~ScheduleCore.sweep` (a window of phases in
the oracle's order) and :meth:`~ScheduleCore.result`.

It is passive and **not thread-safe**.  Two callers exist.  The
coordinator of :mod:`repro.runtime.driver` drives both real engines: one
thread calls every operation, holding only its driver lock, which a
producer holds instead while it runs a lone phase for the parked
coordinator; vertex compute and the run's ``PairRuntime.commit`` /
``commit_remote`` deliveries stay with it, between ``claim`` and
``commit``.  The simulator runs the operations in a locked burst on its
virtual ``global-lock`` resource, as Listing 1's peers would.

It is also the one instrument of the run lifecycle: every operation
reads ``perf_counter_ns`` on entry and exit and bills the time between to
a layer, and ``result()`` reports the totals as ``stats["budget"]``
(docs/ARCHITECTURE.md §7).  The budget never feeds placement or the
schedule; the engines' placement clocks are their own.
"""

from __future__ import annotations

from time import perf_counter_ns as _now
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.invariants import InvariantChecker
from ..core.program import PairRuntime, Program, RunResult
from ..core.state import Pair, SchedulerState
from ..core.tracer import ExecutionTracer
from ..core.vertex import VertexContext
from ..errors import EngineError, SchedulerError, VertexExecutionError
from ..events import PhaseInput

__all__ = ["DEAR_RUNS", "DRAIN", "Placement", "ScheduleCore"]

#: Dear runs in a row that move a vertex away.  On a shared VM ~0.1 % of a
#: microsecond vertex's runs read 50-130 us of CPU (EXPERIMENTS.md): two in
#: a row would move a cheap vertex every few minutes of a long serve, three
#: about once a day; each costs a dear vertex one more bounded stake.
DEAR_RUNS = 3

#: The real engines' ``stats["drain"]`` counters (docs/ARCHITECTURE.md §7).
DRAIN = ("inline_runs", "pooled_runs", "handovers", "feed_burst_max",
         "swept_phases", "driven_phases")

class ScheduleCore:
    """One run's scheduling state and its critical-section bodies.

    Phases arrive one at a time through :meth:`admit`.  *num_workers*
    sizes the per-worker execution counts.  *frontier* picks the
    scheduler: ``"cone"`` (``SchedulerState``: cone rule,
    adaptive runs — the real engines) or ``"global"``
    (``ReferenceScheduler``: Listings 1-2 as published).  The *tracer*
    hears every event from here: phase starts, enqueues, completions,
    and each member's execution from its run's :meth:`claim` (again, for
    a handed-over tail) to its run's :meth:`commit` (a swept pair's to
    its delivery).  With *retire*, each
    phase is retired as soon as the complete prefix extends: ``sink(phase,
    timestamp, entries)`` gets its record entries, then every per-phase
    structure is garbage-collected.  *sink* is the delivery: it runs on
    the retiring driver's thread, inside its critical section, so it must
    never wait on the driver; an exception from it fails the run, and no
    phase reaches the sink after it.
    """

    def __init__(
        self,
        program: Program,
        num_workers: int,
        frontier: str = "cone",
        checker: Optional[InvariantChecker] = None,
        tracer: Optional[ExecutionTracer] = None,
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
        self.state = scheduler(program.numbering, checker=checker)
        self._tracer = tracer
        self._retire = retire
        self._sink = sink
        self._per_worker = {w: 0 for w in range(num_workers)}
        # The budget, in nanoseconds per layer; compute is kept per worker
        # and runs from a run's claim (its vertex's one outstanding claim)
        # to its delivery.
        self._admit_ns = self._claim_ns = self._prepare_ns = 0
        self._deliver_ns = self._commit_ns = self._retire_ns = 0
        self._compute_ns = [0] * num_workers
        self._claimed_at = [0] * (program.numbering.n + 1)
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

    # -- the operations (call with the driver's lock held, if any) ----------

    def admit(self, phase_input: PhaseInput) -> List[Tuple[int, int]]:
        """Listing 2's body: register and start the next phase; returns
        the newly ready pairs, each to be placed on the run queue exactly
        once.  *phase_input* is registered in the same critical section
        that starts it, so no driver ever observes a
        started-but-unregistered phase."""
        began = _now()
        self.runtime.register_phase(phase_input)
        state, tracer = self.state, self._tracer
        newly_ready = state.start_phase()
        if tracer is not None:
            tracer.phase_started(state.pmax)
            for pair in newly_ready:
                tracer.enqueued(pair)
        self._admit_ns += _now() - began
        return newly_ready

    def claim(
        self, worker: int, v: int, p: int
    ) -> Tuple[List[int], List[VertexContext]]:
        """Extend the dequeued ready pair ``(v, p)`` into a run for
        *worker* and prepare every member: ``(phases, contexts)`` in
        execution order.  Preparing up front is safe: the ready head's inputs are fully
        determined (definition (8)) and a claimed member's inputs are
        final by its claim certificate."""
        began = _now()
        phases = self.state.claim_run(v, p)
        claimed = _now()
        ctxs = self.runtime.prepare(v, phases)
        if self._tracer is not None:
            for q in phases:
                self._tracer.execute_begin((v, q), worker)
        self._claimed_at[v] = prepared = _now()
        self._claim_ns += claimed - began
        self._prepare_ns += prepared - claimed
        return phases, ctxs

    def commit(
        self, worker: int, completed: Sequence[Tuple[int, int, Sequence[int]]]
    ) -> Tuple[List[Pair], int]:
        """Listing 1's post-execution section for one run: *completed*
        is ``(v, p, output_targets)`` per member — what the driver's
        :meth:`PairRuntime.commit` / ``commit_remote`` returned.  Returns
        the newly ready pairs and how many phases newly completed (the
        flow-control credits to release)."""
        delivered = self.runtime.delivered_at
        began = _now()
        if completed:
            self._compute_ns[worker] += delivered - self._claimed_at[completed[0][0]]
            self._deliver_ns += began - delivered
        tracer = self._tracer
        if tracer is not None:
            for v, q, _ in completed:
                tracer.execute_end((v, q), worker)
        return self._complete(
            worker, completed, began, self.state.complete_executions
        )

    def sweep(
        self, worker: int, compute: Callable[[int, List[int], List[VertexContext]], int]
    ) -> Tuple[List[Pair], int, int]:
        """Run the window ``SchedulerState.open_sweep`` opens as the
        serial oracle runs it, on *worker*: each vertex a message waits on
        in the window, in index order, is one run over the window phases
        it waits in (``prepare``, the driver's ``compute(v, phases,
        contexts)``, which returns how many members it left unexecuted,
        and ``PairRuntime.commit``); the scheduler then completes the
        window at once, without determination waves
        (``SchedulerState.complete_sweep``).

        A run that stops short — cut at its stake, or at a member that
        raised, after which its prefix is committed — ends the sweep:
        what ran is committed with waves, the window stays in flight and
        the error, if any, is raised.  Returns the newly ready pairs, the
        runs executed and the phases completed (0 when the sweep ended
        early)."""
        began = _now()
        state, runtime, tracer = self.state, self.runtime, self._tracer
        first, last, waiting = state.open_sweep()
        batch: List[Tuple[int, int, Sequence[int]]] = []
        v = left = runs = 0
        failure: Optional[VertexExecutionError] = None
        at = _now()
        self._claim_ns += at - began
        prepare_ns = compute_ns = deliver_ns = 0
        try:
            if first == last:
                # A lone phase: one flag per vertex, and runs of one, which
                # cannot stop short (a member that raises is its whole
                # run).  Its own loop: the window's masks and exits cost a
                # lone phase ~3 % on the lockstep harness (EXPERIMENTS.md,
                # "a fresh backlog is swept as the oracle runs it").
                phases = [first]
                for v in range(1, len(waiting)):
                    if not waiting[v]:
                        continue
                    ctxs = runtime.prepare(v, phases)
                    if tracer is not None:
                        tracer.execute_begin((v, first), worker)
                    prepared = _now()
                    compute(v, phases, ctxs)
                    batch += runtime.commit(v, phases, ctxs)
                    delivered = runtime.delivered_at
                    prepare_ns += prepared - at
                    at = _now()
                    compute_ns += delivered - prepared
                    deliver_ns += at - delivered
                    if tracer is not None:
                        tracer.execute_end((v, first), worker)
                    for w in batch[-1][2]:
                        waiting[w] = 1
                runs = len(batch)
            else:
                window = list(range(first, last + 1))
                whole = (1 << len(window)) - 1
                for v in range(1, len(waiting)):
                    mask = waiting[v]
                    if not mask:
                        continue
                    phases = window if mask == whole else [
                        q for i, q in enumerate(window) if mask >> i & 1
                    ]
                    ctxs = runtime.prepare(v, phases)
                    if tracer is not None:
                        for q in phases:
                            tracer.execute_begin((v, q), worker)
                    prepared = _now()
                    runs += 1
                    try:
                        left = compute(v, phases, ctxs)
                    except VertexExecutionError as exc:
                        failure = exc
                        left = len(phases) - phases.index(exc.phase)
                    if left:
                        head, phases = (v, phases[-left]), phases[:-left]
                    sent = runtime.message_count
                    completed = runtime.commit(v, phases, ctxs)
                    batch += completed
                    delivered = runtime.delivered_at
                    prepare_ns += prepared - at
                    at = _now()
                    compute_ns += delivered - prepared
                    deliver_ns += at - delivered
                    if tracer is not None:
                        for q in phases:
                            tracer.execute_end((v, q), worker)
                    if left:
                        break
                    every = runtime.edges.succs[v]
                    if runtime.message_count - sent == len(completed) * len(every):
                        # A message per member and successor: each
                        # successor waits in every phase of the run.
                        for w in every:
                            waiting[w] |= mask
                        continue
                    for _, q, targets in completed:
                        bit = 1 << (q - first)
                        for w in targets:
                            waiting[w] |= bit
        except BaseException:
            try:
                self._complete(worker, batch, at, state.complete_executions)
            finally:
                state.close_sweep(runs if first < last else len(batch), len(batch))
            raise
        finally:
            self._prepare_ns += prepare_ns
            self._compute_ns[worker] += compute_ns
            self._deliver_ns += deliver_ns
        # The sweep ends even when the completion tail's sink raises.
        try:
            ready = self._complete(
                worker, batch, at,
                state.complete_executions if left else state.complete_sweep,
            )[0]
        finally:
            state.close_sweep(runs, len(batch))
        if not left:
            return ready, runs, last - first + 1
        if failure is not None:
            raise failure
        if state.is_run_claimed(head):
            # Claims the tail held before the sweep stay intact, so no
            # wave readies its head: it is dispatched again.
            ready.append(head)
        return ready, runs, 0

    def _complete(
        self,
        worker: int,
        completed: Sequence[Tuple[int, int, Sequence[int]]],
        began: int,
        close: Callable[[Sequence[Tuple[int, int, Sequence[int]]]], List[Pair]],
    ) -> Tuple[List[Pair], int]:
        """The scheduler's half of :meth:`commit` and :meth:`sweep`:
        *close* is the ``SchedulerState`` commit that takes *completed*."""
        state, tracer = self.state, self._tracer
        complete = state.complete_phase_count
        newly_ready = close(completed)
        self._per_worker[worker] += len(completed)
        if tracer is not None:
            for pair in newly_ready:
                tracer.enqueued(pair)
        committed = _now()
        self._commit_ns += committed - began
        if state.complete_phase_count == complete:
            return newly_ready, 0  # most commits complete no phase
        newly_complete = self._advance()
        self._retire_ns += _now() - committed
        return newly_ready, newly_complete

    def result(
        self, label: str, elapsed: float, engine_stats: Dict[str, Any]
    ) -> RunResult:
        """Close the run: quiescence check, then *engine_stats* plus the
        sections that are a function of scheduler state and pair runtime
        alone."""
        state, runtime = self.state, self.runtime
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
            "budget": {
                "admit": self._admit_ns,
                "claim": self._claim_ns,
                "prepare": self._prepare_ns,
                "compute": sum(self._compute_ns),
                "deliver": self._deliver_ns,
                "commit": self._commit_ns,
                "retire": self._retire_ns,
                "compute_per_worker": dict(enumerate(self._compute_ns)),
            },
        }
        if self._retire:
            stats["retirement"] = {
                "phases_retired": self._phases_retired,
                "executed_pairs": state.executed_pairs,
            }
        return runtime.build_result(label, elapsed, stats, phases_run=state.pmax)

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
    """Whether a vertex's runs execute *here*, on the coordinator's own
    thread, or *away* (an executor thread, a worker process).  Every vertex starts here; ``DEAR_RUNS`` runs in a row that
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
