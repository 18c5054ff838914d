"""The coordinator: the one loop that drives both real engines.

:func:`drive` runs a :class:`~repro.core.program.Program` over the phases
a :class:`~repro.runtime.feed.PhaseFeed` delivers.  One thread — the
coordinator — owns every shared structure and is the only caller of
:class:`~repro.runtime.core.ScheduleCore`; it runs both of the paper's
loops inline:

* Listing 2 (environment): start every phase the feed holds that flow
  control allows, the whole backlog in one burst (a batch is a feed that
  closed before the run began);
* Listing 1 (computation), split at the prepare/compute/commit seam of
  :class:`~repro.core.program.PairRuntime`: claim a ready run, compute
  it, and commit it.  A vertex that :class:`~repro.runtime.core.Placement`
  keeps *here* computes on this thread, a run of it staked once it has
  cost its hand-off.  With every vertex here, a window of phases — the
  lone phase in flight, or the oldest ``ADAPTIVE_RUN_CEILING`` of a
  fresh backlog — is *swept*, as the oracle runs it, a run per vertex; a
  lone phase that arrives at an idle coordinator is swept by the
  producer's own thread, inside its ``PhaseFeed.put``
  (docs/ARCHITECTURE.md §5.8).  A run of a vertex moved *away* is handed
  to the **port**, and its results come back to this thread, which
  delivers and commits them.

The port is the one thing the two engines differ in:

* :class:`repro.runtime.engine.ThreadPort` — executor threads, which
  compute prepared contexts and hand them back;
* :class:`repro.runtime.mp.lifecycle.ProcessWorkerPool` — worker
  processes, which receive pickled run frames and reply with outputs
  and records.

A port has ``workers`` (the coordinator is worker ``workers`` of its
``ScheduleCore``; an away vertex *v* is sticky on worker ``(v - 1) %
workers``), a placement ``clock``, and ``start(runtime)``, ``price(v,
phases, contexts)`` (what handing this run away would cost, in ``clock``
seconds), ``trip(n)`` (the same for *n* members, priced), ``send(w, v,
phases, contexts)``, ``collect(timeout)`` (one hand-back, or ``None``),
``progress()`` (members computed away: a sign of life inside a long
run), ``check()`` (raise if an executor died), ``close()``, ``abort()``
and ``stats(elapsed, moved)``.  A hand-back is
``(worker, v, phases, contexts, replies, error)``: the members that ran,
their contexts, ``None`` (the contexts hold the results) or one
``(outputs, records)`` per member, and the error that ended the run, if
one did: the one the coordinator would have raised computing that run
itself.

Listing 1 has every computation process take one global lock to claim
and to commit.  Here only the coordinator touches the scheduling sets,
so there is no such lock: synchronise only what the dependency relation
relates (Kallas et al., PAPERS.md).  The published peer-worker schedule
lives on in :class:`~repro.core.reference.ReferenceScheduler` and the
simulator's ``frontier="global"``.

Correctness relies on the serial oracle's argument: the scheduler never
holds two phases of one vertex ready at once, and a vertex executes in
one place at a time, so every behaviour's state evolves in strict phase
order.  Placement only changes *where* and *when* ready pairs execute.

Failure handling prefers the root cause: a vertex error, here or away
(:class:`~repro.errors.VertexExecutionError` naming the vertex and the
exact phase), beats an executor crash (:class:`~repro.errors.EngineError`),
which beats the wedge watchdog.  Results that precede the failure — a
failing run's surviving prefix included — are committed first.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    Any, Callable, Deque, Iterable, List, Optional, Sequence, Tuple,
)

from ..core.program import Program, RunResult
from ..core.state import ADAPTIVE_RUN_CEILING, Pair
from ..core.vertex import VertexContext
from ..errors import EngineError, VertexExecutionError
from ..events import PhaseInput
from .core import DRAIN, Placement, ScheduleCore
from .feed import PhaseFeed

__all__ = ["DrivenEngine", "drive"]

_POLL_S = 0.05  # hand-back and idle-feed poll quantum
_START_BURST = ADAPTIVE_RUN_CEILING  # most phases one admission starts

#: ``(worker, v, phases, contexts, replies, error)``: see the module docstring.
Handback = Tuple[
    int, int, List[int], Sequence[VertexContext], Optional[list],
    Optional[BaseException],
]


class DrivenEngine:
    """The entry points both real engines share; a subclass builds its
    port in ``_execute(feed, sink, retire, stop_event)`` and calls
    :func:`drive`."""

    def __init__(
        self, program: Program, count: Tuple[str, int],
        checker: object, tracer: object,
        max_in_flight_phases: Optional[int], join_timeout: float,
    ) -> None:
        name, n = count
        if n < 1:
            raise EngineError(f"{name} must be >= 1, got {n}")
        if max_in_flight_phases is not None and max_in_flight_phases < 1:
            raise EngineError(
                f"max_in_flight_phases must be >= 1 or None, "
                f"got {max_in_flight_phases}"
            )
        self.program = program
        self.checker = checker
        self.tracer = tracer
        self.max_in_flight_phases = max_in_flight_phases
        self.join_timeout = join_timeout

    def run(
        self,
        phase_inputs: Sequence[PhaseInput],
        stop_event: object = None,
    ) -> RunResult:
        """Execute every phase; returns the :class:`RunResult`.

        The phases go into a :class:`PhaseFeed` that is closed before the
        run begins (:meth:`PhaseFeed.of`): the same admission path as
        :meth:`run_feed`.

        With *stop_event* (any object with ``is_set()``, e.g. a
        :class:`threading.Event` flipped by a signal handler) the
        coordinator stops admitting new phases once the event is set;
        already-started phases drain to completion and the result covers
        exactly the started phases — the graceful-shutdown path.

        Raises the first vertex exception, or a run frame that does not
        pickle, as :class:`~repro.errors.VertexExecutionError`, and
        :class:`EngineError` on an executor crash or a stalled or wedged
        run.
        """
        return self._execute(PhaseFeed.of(phase_inputs), stop_event=stop_event)

    def run_feed(
        self,
        feed: PhaseFeed,
        sink: object = None,
        retire: bool = False,
        stop_event: object = None,
    ) -> RunResult:
        """Execute phases as a :class:`PhaseFeed` delivers them.

        The continuous-operation entry point: before it runs anything,
        the coordinator admits every phase the feed holds, as far as
        flow control allows, in bursts of at most
        ``ADAPTIVE_RUN_CEILING`` (one flow-control credit each), so a
        backlog starts as one horizon — with no bound, every phase of a
        batch — that is swept, or that runs coalesce over.  It parks on
        the feed when it is idle; a lone phase put into the idle engine
        then runs on the producer's thread.  The run ends when the feed
        is closed and drained (or *stop_event* is set, which is honoured
        between bursts — in-flight phases still drain).

        With ``retire=True`` the engine additionally *retires* each
        phase as soon as the completed prefix extends — handing
        ``sink(phase, timestamp, entries)`` the phase's record entries
        (``(vertex_name, value)``, commit order) and then
        garbage-collecting every per-phase structure: scheduler arrays,
        completion-log prefix, phase inputs, record segments.  Memory
        then stays bounded by the in-flight window rather than the
        stream length; the returned result carries no per-execution data
        (``executions`` empty, ``records`` empty) — counts live in
        ``stats``.  *sink* is the delivery: it runs on the retiring
        thread inside the engine's critical section, so it must never
        wait on the engine; an exception from it fails the run, and no
        phase reaches the sink after it.
        """
        return self._execute(
            feed, sink=sink, retire=retire, stop_event=stop_event
        )


def drive(
    program: Program,
    port: Any,
    feed: PhaseFeed,
    label: str,
    backend: Any,
    checker: object = None,
    tracer: object = None,
    max_in_flight_phases: Optional[int] = None,
    join_timeout: float = 120.0,
    sink: object = None,
    retire: bool = False,
    stop_event: object = None,
    faults: object = None,
) -> RunResult:
    """Run *feed* through *program* on this thread and *port*; returns the
    :class:`RunResult` labelled *label*.  *backend* supplies the driver
    lock and the clock of the wall time; the other parameters are the
    engines' (see :class:`~repro.runtime.engine.ParallelEngine`).
    *faults* names the seeded bugs of the hand-back seam
    (:class:`repro.testing.faults.FaultPlan`, read by attribute)."""
    clock, price, trip = port.clock, port.price, port.trip
    me = port.workers
    core = ScheduleCore(
        program, me + 1, checker=checker, tracer=tracer, retire=retire, sink=sink,
    )
    runtime, state = core.runtime, core.state

    # Ready pairs: of away vertices, to hand over; of resident vertices,
    # which the coordinator executes itself.
    ship: Deque[Pair] = deque()
    mine: Deque[Pair] = deque()
    held: List[PhaseInput] = []  # at most one prefetched feed phase
    away = 0  # runs handed to the port and not yet back
    # Every vertex starts here (ScheduleCore has just reset the program).
    placement = Placement(program.numbering.n)
    drain = dict.fromkeys(DRAIN, 0)
    # This thread holds the driver lock except while it is parked on the
    # empty open feed: only then may a producer run a phase on its own
    # thread (``hand``); what failed there is raised here.
    driver = backend.lock()
    parked = False
    failed: List[BaseException] = []
    last_drive = 0.0  # how long the last producer-driven phase took
    # Seeded bugs of the hand-back seam (testing only).
    deliver_twice = getattr(faults, "deliver_twice", False)
    commit_handed_over = getattr(faults, "commit_handed_over", False)
    lose_handback = getattr(faults, "lose_handback", False)

    def stopping() -> bool:
        return stop_event is not None and stop_event.is_set()

    def place(pairs: Iterable[Pair]) -> None:
        # Each newly ready pair goes to exactly one of the two backlogs.
        here = placement.here
        for pair in pairs:
            (mine if here(pair[0]) else ship).append(pair)

    def can_start_phase() -> bool:
        if stopping():
            return False
        return (max_in_flight_phases is None
                or core.phases_in_flight < max_in_flight_phases)

    def admit_burst() -> bool:
        # Listing 2, inlined: start the backlog the feed holds (``held``:
        # at most one phase the idle wait prefetched), as far as flow
        # control allows, in one burst: one horizon to coalesce over.
        # The feed is taken only when its depth says it holds a phase.
        fed = 0
        while (held or feed.depth) and fed < _START_BURST and can_start_phase():
            pi = held.pop() if held else feed.get(timeout=0)
            if pi is None:
                break
            place(core.admit(pi))
            fed += 1
        if fed > drain["feed_burst_max"]:
            drain["feed_burst_max"] = fed
        return fed > 0

    def stake(began: float, cost: float) -> Callable[[], bool]:
        # A staked run stops once it has cost handing all of it away.
        return lambda: clock() - began >= cost

    def compute_here(v: int, phases: List[int], ctxs: List[VertexContext]) -> int:
        # A run on this thread, staked unless its vertex just read cheap
        # (a run of one cannot stop short), and judged: what computing it
        # cost, against what handing it away would have.  Returns the
        # members it left unexecuted.
        n = len(phases)
        cost = price(v, phases, ctxs)
        began = clock()
        if n == 1 or not placement.staked(v):
            runtime.compute(v, ctxs)
            placement.settle(v, clock() - began, cost)
            return 0
        executed = runtime.compute(v, ctxs, stake(began, cost))
        placement.settle(
            v, clock() - began, cost if executed == n else trip(executed)
        )
        return n - executed

    def run_resident(v: int, p: int) -> None:
        # Listing 1's body on this thread.
        phases, ctxs = core.claim(me, v, p)
        drain["inline_runs"] += 1
        n = len(phases)
        failure: Optional[VertexExecutionError] = None
        try:
            executed = n - compute_here(v, phases, ctxs)
        except VertexExecutionError as exc:
            failure, executed = exc, phases.index(exc.phase)
        kept = executed + (commit_handed_over and executed < n)
        completed = runtime.commit(v, phases[:kept], ctxs)
        place(core.commit(me, completed)[0])
        if failure is not None:
            raise failure
        if executed < n:
            # The tail keeps its claims; its head is dispatched again, to
            # wherever the vertex now lives.
            drain["handovers"] += 1
            place([(v, phases[executed])])

    def sweep() -> None:
        # Every pair in ``mine`` is in the window.  A sweep cut at a stake
        # hands over: the pairs it did not run are placed again, where
        # their vertices now live, with those its commit readied.
        ready, runs, swept = core.sweep(me, compute_here)
        drain["inline_runs"] += runs
        if swept:
            drain["swept_phases"] += swept
            mine.clear()
        else:
            drain["handovers"] += 1
            left = [pair for pair in mine if state.is_ready(pair)
                    or state.is_run_claimed(pair)]
            mine.clear()
            place(left)
        if ready:
            place(ready)

    def run_here() -> None:
        # With nothing moved (so nothing is away or to ship), a window of
        # phases is swept when one opens; else the next ready pair runs.
        if placement.moved or not state.sweepable():
            run_resident(*mine.popleft())
            return
        sweep()

    def hand(pi: PhaseInput) -> bool:
        # A producer's lone phase, on the producer's thread: admitted and
        # swept there if this thread is parked idle (quiescent, nothing
        # moved, held or stopping) and has been idle at least as long as
        # the last such drive took.  A producer that comes back sooner is
        # ahead of the engine: it hands off, and its backlog coalesces.
        nonlocal last_progress, last_drive
        if not driver.acquire(False):
            return False
        try:
            began = time.monotonic()
            if (
                not parked or failed or held or placement.moved
                or stopping() or not core.quiescent
                or began - last_progress < last_drive
            ):
                return False
            try:
                core.admit(pi)
                sweep()
            except BaseException as exc:
                failed.append(exc)
                feed.close()  # refuses later phases, wakes this thread
                if not isinstance(exc, Exception):
                    raise
            drain["driven_phases"] += 1
            drain["feed_burst_max"] = max(drain["feed_burst_max"], 1)
            last_progress = time.monotonic()
            last_drive = last_progress - began
            return True
        finally:
            driver.release()

    def dispatch() -> None:
        # Claim each ready pair of an away vertex into a run of prepared
        # contexts and hand the run to the vertex's executor.
        nonlocal away
        while ship:
            v, p = ship.popleft()
            w = (v - 1) % me
            phases, ctxs = core.claim(w, v, p)
            port.send(w, v, phases, ctxs)
            away += 1
            drain["pooled_runs"] += 1

    def deliver(handback: Handback) -> None:
        w, v, phases, ctxs, replies, _ = handback
        if phases:
            completed = (
                runtime.commit(v, phases, ctxs) if replies is None
                else runtime.commit_remote(v, phases, ctxs, replies)
            )
            place(core.commit(w, completed)[0])

    def receive(handback: Handback) -> None:
        # One hand-back: the run's results (its surviving prefix when a
        # member failed), delivered and committed whole; then the failure,
        # if any, surfaces as the root cause.
        nonlocal away, lose_handback
        if lose_handback:
            lose_handback = False
            return
        away -= 1
        deliver(handback)
        if deliver_twice:
            deliver(handback)
        if handback[5] is not None:
            raise handback[5]

    started = backend.clock()
    driver.acquire()
    feed.hand = hand
    try:
        port.start(runtime)
        last_progress = time.monotonic()
        # The watchdog: poll quanta in a row that brought no hand-back and
        # no member computed away.
        quiet, alive = 0.0, 0
        while True:
            progressed = False
            while admit_burst():
                progressed = True
            if ship:
                dispatch()
                progressed = True
            if away:
                # Hand-backs first, so executors stay fed; block for one
                # only with no run to execute here meanwhile.
                handback = port.collect(0 if mine else _POLL_S)
                if handback is not None:
                    quiet = 0.0
                    last_progress = time.monotonic()
                    receive(handback)
                    continue
                if not mine:
                    port.check()
                    seen = port.progress()
                    quiet = 0.0 if seen != alive else quiet + _POLL_S
                    alive = seen
                    if quiet >= join_timeout:
                        raise EngineError(
                            f"run wedged: no progress within {join_timeout}s "
                            f"({away} runs away)"
                        )
                    continue
            if mine:
                # With nothing away, the resident backlog runs through
                # without re-entering admission and dispatch, until a
                # commit readies a pair to ship.
                run_here()
                while mine and not ship and not away:
                    run_here()
                last_progress = time.monotonic()  # once per burst
                continue
            if progressed:
                continue
            if not core.quiescent:
                # Nothing away, nothing to run here, nothing left to
                # dispatch: no commit can ever complete the started
                # phases, whatever the feed does next.
                raise EngineError(
                    f"engine stalled before quiescence: in-flight "
                    f"phases {state.in_flight_phases()!r}"
                )
            # Quiescent, so flow control admitted anything held: only a
            # stop request leaves a phase there.
            if feed.drained or stopping():
                break  # every started phase committed
            # Idle: park on the feed until a phase arrives or the producer
            # closes it; a lone phase may run meanwhile on the producer's
            # thread.
            parked = True
            driver.release()
            try:
                pi = feed.get(timeout=_POLL_S)
            finally:
                driver.acquire()
                parked = False
            if failed:
                raise failed[0]
            if pi is not None:
                held.append(pi)
        port.close()
    except BaseException:
        # Crash path: never mask the root cause with shutdown issues.
        port.abort()
        raise
    finally:
        feed.hand = None
        driver.release()
    elapsed = backend.clock() - started
    moved = [program.numbering.name_of(v) for v in placement.moved]
    return core.result(
        label, elapsed, {**port.stats(elapsed, moved), "drain": drain, "moved": moved}
    )
