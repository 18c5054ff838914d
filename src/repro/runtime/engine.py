"""The multithreaded parallel engine (Listings 1 and 2).

:class:`ParallelEngine` runs a :class:`~repro.core.program.Program` over a
sequence of phases with

* *k* computation threads, each executing the Listing-1 loop: dequeue a
  ready vertex-phase pair from the run queue, execute it, then — inside
  the single global lock — update the scheduling sets and enqueue any
  newly ready pairs;
* one additional **environment thread** executing the Listing-2 loop:
  start each phase by moving its source pairs into the full set and
  enqueueing the newly ready ones.  The paper notes this thread always
  exists, so even the "1 thread" configuration has two threads contending
  for the data structures — which is exactly how it explains the measured
  2-processor speedup.  The paper's environment "merely starts new phases
  repeatedly"; here it starts what a :class:`~repro.runtime.feed.PhaseFeed`
  delivers, and a batch :meth:`~ParallelEngine.run` is a feed that closed
  before the run began — one Listing-2 loop for both.

Differences from the paper's infinite loops (all additive):

* **Termination** — the paper's processes run forever; here the
  environment stops once its feed is closed and drained, and the
  run-queue close protocol lets workers exit once every started phase has
  completed.
* **Flow control** (optional ``max_in_flight_phases``) — bound the number
  of in-flight phases so edge histories stay small; off by default (the
  paper's behaviour).
* **Failure handling** — a vertex exception aborts the run and re-raises
  as :class:`~repro.errors.VertexExecutionError` from :meth:`run`.
* **One schedule** — readiness uses per-dependency (cone) frontiers,
  every emitted message is delivered, and a dequeued ready pair is extended into a *run* of consecutive claimable
  phases that is prepared under one lock acquisition, computed outside
  it and committed in one critical section.  A single pair is a run of
  length 1.  The critical-section bodies are
  :class:`~repro.runtime.core.ScheduleCore`'s, shared with the process
  engine and the simulator; this module keeps what is particular to peer
  threads.  Every scheduling-set mutation still happens under the single
  global lock, so the paper's serializability argument carries over
  (docs/ARCHITECTURE.md §5.4, §5.7).  The published global-``x_p``
  schedule lives on in the simulator's ``frontier="global"``.
* **The environment is a peer when work is cheap** — the paper promises
  speed-up only when vertex compute dwarfs the bookkeeping around it;
  in the other regime a hand-off (run queue, condition variable, a
  contended lock, a thread switch under one GIL) costs more than the run
  it hands over.  So when the feed was already closed as the run began
  (a batch :meth:`~ParallelEngine.run`) the environment thread executes
  each ready pair whose vertex :class:`~repro.runtime.core.Placement`
  places here: the same ``execute_run`` as the workers, under the same
  lock, as worker ``num_threads`` — a (k+1)-th Listing-1 process that,
  after its last phase, stays one until nothing is in flight
  (docs/ARCHITECTURE.md §5.8).  A live feed and a clock that does not
  advance (:class:`~repro.testing.schedule.VirtualBackend`) never drain,
  so schedule exploration sees exactly the peer-worker algorithm.
  ``stats["drain"]`` says which regime a run was in.

The expensive vertex computation happens *outside* the lock (prepare /
compute / commit split, see :class:`~repro.core.program.PairRuntime`), so
vertices that release the GIL (NumPy kernels, I/O, C extensions) genuinely
execute in parallel.  Pure-Python vertex work is serialised by the GIL —
the simulated SMP (:mod:`repro.simulator`) exists to evaluate speedup
without that confound.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from typing import Callable, Deque, List, Optional, Sequence

from ..core.invariants import InvariantChecker
from ..core.program import Program, RunResult
from ..core.state import ADAPTIVE_RUN_CEILING, Pair
from ..core.tracer import ExecutionTracer
from ..errors import EngineError, QueueClosedError
from ..events import PhaseInput
from .backend import OS_BACKEND, ThreadingBackend
from .blocking_queue import BlockingQueue
from .core import Placement, ScheduleCore
from .feed import PhaseFeed
from .locks import InstrumentedLock
from .pool import ComputationThreadPool

__all__ = ["ParallelEngine"]

# How long the environment thread parks on an idle PhaseFeed before
# re-checking abort/stop flags (an open feed only: a closed one never
# blocks).
_FEED_POLL_S = 0.05

#: Most phases one environment critical section starts — a feed backlog,
#: a batch's next ones included.  Matches the adaptive run ceiling: a
#: started horizon deeper than the longest claimable run buys nothing
#: further.
_START_BURST = ADAPTIVE_RUN_CEILING


class ParallelEngine:
    """The paper's parallel algorithm on real threads.

    Parameters
    ----------
    program:
        The program to execute (graph + numbering + behaviours).
    num_threads:
        Number of *computation* threads (k).  The environment thread is
        always added on top, as in the paper.
    checker:
        Optional :class:`InvariantChecker`, invoked at every state
        mutation (inside the lock).
    tracer:
        Optional :class:`ExecutionTracer`; receives phase starts, enqueues
        and execution begin/end events (real-time clock).
    max_in_flight_phases:
        Flow control: at most this many started-but-incomplete phases
        (``None``, the default, is the paper's unthrottled environment;
        a bound keeps edge histories small, and ``1`` is the
        phase-barrier baseline).
    join_timeout:
        Watchdog: the run is wedged once no pair has been computed or
        committed for this many seconds while threads are still alive.
        A healthy run may last any multiple of it, and it is watched only
        from the moment its feed is closed — at once for a batch
        :meth:`run` — or a stop is requested (a served stream may idle
        for days).
    backend:
        Threading backend supplying locks, events, threads, and the clock
        (default: real OS threads).  The deterministic test scheduler
        passes a :class:`repro.testing.schedule.VirtualBackend` here to
        control every interleaving.
    faults:
        Optional bug-injection plan (:class:`repro.testing.faults.FaultPlan`),
        used by the schedule-exploration suite to prove it *finds* seeded
        concurrency bugs.  Any object with the matching attribute names
        works; ``None`` (the default) injects nothing.
    """

    def __init__(
        self,
        program: Program,
        num_threads: int = 2,
        checker: Optional[InvariantChecker] = None,
        tracer: Optional[ExecutionTracer] = None,
        max_in_flight_phases: Optional[int] = None,
        join_timeout: float = 120.0,
        backend: Optional[ThreadingBackend] = None,
        faults: object = None,
    ) -> None:
        if num_threads < 1:
            raise EngineError(f"num_threads must be >= 1, got {num_threads}")
        if max_in_flight_phases is not None and max_in_flight_phases < 1:
            raise EngineError(
                f"max_in_flight_phases must be >= 1 or None, "
                f"got {max_in_flight_phases}"
            )
        self.program = program
        self.num_threads = num_threads
        self.checker = checker
        self.tracer = tracer
        self.max_in_flight_phases = max_in_flight_phases
        self.join_timeout = join_timeout
        self.backend = backend or OS_BACKEND
        self.faults = faults

    def run(
        self,
        phase_inputs: Sequence[PhaseInput],
        stop_event: object = None,
    ) -> RunResult:
        """Execute every phase; returns the :class:`RunResult`.

        The phases go into a :class:`PhaseFeed` that is closed before the
        run begins (:meth:`PhaseFeed.of`): the same Listing-2 loop as
        :meth:`run_feed`, with the environment a peer worker while that
        is cheaper than handing runs over.

        With *stop_event* (any object with ``is_set()``, e.g. a
        :class:`threading.Event` flipped by a signal handler) the
        environment stops admitting new phases once the event is set;
        already-started phases drain to completion and the result covers
        exactly the started phases — the graceful-shutdown path.

        Raises the first vertex exception as
        :class:`~repro.errors.VertexExecutionError`, and
        :class:`EngineError` if threads wedge past *join_timeout*.
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

        The continuous-operation entry point: the environment thread
        blocks for the next sealed phase, then admits it together with
        every phase the feed already holds — one critical section, one
        flow-control credit each and never waiting for one, at most
        ``ADAPTIVE_RUN_CEILING`` — so a backlog starts as one horizon
        that runs can coalesce over.  The run ends when the feed is
        closed and drained (or *stop_event* is set, which is honoured
        between bursts — in-flight phases still drain).  An open feed
        blocks on a real condition variable; a closed one never does.

        With ``retire=True`` the engine additionally *retires* each
        phase as soon as the completed prefix extends — handing
        ``sink(phase, timestamp, entries)`` the phase's record entries (``(vertex_name, value)``, commit order) and then
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

    def _execute(
        self,
        feed: PhaseFeed,
        sink: object = None,
        retire: bool = False,
        stop_event: object = None,
    ) -> RunResult:
        backend = self.backend
        clock = backend.clock
        tracer = self.tracer
        # The environment thread executes runs too: it is worker
        # ``num_threads`` in the per-worker execution counts.
        env_id = self.num_threads
        core = ScheduleCore(
            self.program,
            self.num_threads + 1,
            checker=self.checker,
            tracer=tracer,
            preempt=getattr(backend, "preempt", None),
            retire=retire,
            sink=sink,
        )
        runtime = core.runtime
        lock = InstrumentedLock(clock=clock, backend=backend)
        queue: BlockingQueue[Pair] = BlockingQueue(backend=backend)
        abort = backend.event()
        env_done = backend.event()
        flow_sem = (
            backend.semaphore(self.max_in_flight_phases)
            if self.max_in_flight_phases is not None
            else None
        )
        # Bug-injection seams (testing only; see repro.testing.faults).
        faults = self.faults
        unlocked_commit = bool(getattr(faults, "unlocked_commit", False))
        unlocked_start = bool(getattr(faults, "unlocked_start_phase", False))
        duplicate_enqueue = bool(getattr(faults, "duplicate_enqueue", False))
        commit_guard = (lambda: nullcontext()) if unlocked_commit else (lambda: lock)
        start_guard = (lambda: nullcontext()) if unlocked_start else (lambda: lock)

        # Which vertices run here while the environment drains.  One
        # number, in clock seconds per pair, written inside the critical
        # section it times: the locked time of the environment's last run
        # (before its first, what a phase start costs) — a stake's bound.
        placement = Placement(self.program.numbering.n)
        locked_cost = 0.0
        # Ready pairs the environment executes itself.  Anyone may add
        # one, inside a critical section and only while ``draining`` —
        # which the environment raises when it starts phases and lowers,
        # under the lock, before it could block on anything but this
        # deque (flow control) — so it never parks holding work.
        mine: Deque[Pair] = deque()
        draining = False
        # What the environment parks on once it has no phase left to
        # start: set by the critical section that gives the deque a pair
        # or makes the run quiescent, and by an abort.
        handed = backend.event()
        # Only a feed that closed before the run began (a batch) is
        # drained: a served stream shares its interpreter with ingest and
        # egress threads, and draining inline there measured slower end
        # to end (CHANGES.md PR 20).
        may_drain = feed.closed
        drain = dict.fromkeys(
            ("inline_runs", "pooled_runs", "handovers", "feed_burst_max"), 0
        )
        # Members computed, one single-writer slot per thread: the
        # watchdog's sign of life inside a run that has not committed yet.
        computed_members = [0] * (self.num_threads + 1)

        def place(newly_ready: List[Pair]) -> List[Pair]:
            # Inside a critical section: each newly ready pair goes to
            # exactly one of the environment's deque — while it drains,
            # when its vertex is placed here — or the run queue (the
            # pairs returned).
            if not draining:
                return newly_ready
            pooled = []
            for pair in newly_ready:
                (mine if placement.here(pair[0]) else pooled).append(pair)
            if mine or core.quiescent:
                handed.set()
            return pooled

        def abort_run() -> None:
            # Flag the abort, then wake everyone it could leave blocked:
            # workers on the queue, the environment on flow control or
            # parked on ``handed``.
            abort.set()
            queue.close()
            if flow_sem is not None:
                flow_sem.release()
            handed.set()

        def enqueue(pairs: List[Pair]) -> bool:
            # False once an abort has closed the queue under us.
            try:
                queue.put_many(pairs)
            except QueueClosedError:
                if not abort.is_set():
                    raise
                return False
            return True

        def execute_run(worker_id: int, v: int, p: int) -> None:
            # Listing 1's body, one run at a time: claimed as a run of
            # prepared members under one lock, computed outside it, and
            # committed — deliveries and the one ScheduleCore.commit — in
            # one critical section; each newly ready pair is then placed
            # exactly once.  Only the environment's runs are timed, each
            # settling its vertex: compute against the critical sections
            # around the same run, so a cold cache or a lost GIL slows
            # both sides instead of tipping the comparison.
            nonlocal locked_cost
            inline = worker_id == env_id
            now = clock if inline else float  # float() is 0.0: untimed
            with lock:
                claim_began = now()
                phases, ctxs = core.claim(v, p)
                drain["inline_runs" if inline else "pooled_runs"] += 1
                if tracer is not None:
                    # (A member handed over below begins again when the
                    # pool claims it; trace readers keep the last begin.)
                    for q in phases:
                        tracer.execute_begin((v, q), worker_id)
                locked = now() - claim_began
            # A staked run is bounded: once its compute has cost the
            # locked time the whole run stands for, the environment keeps
            # what it has computed and the pool gets the rest.
            staked = inline and placement.staked(v)
            budget = locked_cost * len(phases)

            def after_member() -> bool:
                computed_members[worker_id] += 1
                return staked and now() - compute_began >= budget

            compute_began = now()
            executed = runtime.compute(v, ctxs, after_member)
            computed = now() - compute_began
            with commit_guard():
                commit_began = now()
                completed = runtime.commit(v, phases[:executed], ctxs)
                if tracer is not None:
                    for _, q, _ in completed:
                        tracer.execute_end((v, q), worker_id)
                newly_ready, newly_complete = core.commit(worker_id, completed)
                done = env_done.is_set() and core.quiescent
                if inline:
                    locked += now() - commit_began
                    placement.settle(v, computed, locked)
                    locked_cost = locked / executed
                pooled = place(newly_ready)
            if flow_sem is not None:
                for _ in range(newly_complete):
                    flow_sem.release()
            if enqueue(pooled) and duplicate_enqueue:
                enqueue(pooled)
            if executed < len(phases):
                # The unexecuted tail keeps its claims; its head is
                # re-dispatched like any ready pair and claimed again
                # (SchedulerState.claim_run accepts a claimed head).
                drain["handovers"] += 1
                enqueue([(v, phases[executed])])
            if done:
                queue.close()

        def worker(worker_id: int) -> None:
            # Listing 1: the computation process.
            try:
                while True:
                    try:
                        v, p = queue.get()
                    except QueueClosedError:
                        return
                    if abort.is_set():
                        continue  # drain until close
                    execute_run(worker_id, v, p)
            except BaseException:
                # A failed worker must not leave the others blocked on the
                # queue or the environment parked: abort, then propagate.
                abort_run()
                raise

        env_errors: List[BaseException] = []

        def start_phases(fed: Sequence[PhaseInput]) -> bool:
            # Start the fed phases (Listing 2 body) under one critical
            # section: the per-phase start acquisition is exactly the
            # lock traffic run coalescing exists to remove, and a deeper
            # started horizon is what lets a claim extend runs in the
            # first place.  Then the peer half: run what was placed here,
            # and what the commits of any thread add, until nothing is
            # left — in the deque, or, once the feed holds no phase left
            # to start, in flight anywhere.
            nonlocal locked_cost, draining
            with start_guard():
                began = clock()
                newly_ready = [pair for pi in fed for pair in core.admit(pi)]
                if not drain["inline_runs"]:
                    locked_cost = (clock() - began) / len(fed)
                # Nothing reads cheap on a clock that does not advance
                # (VirtualBackend: 0 < 0), so schedule exploration always
                # sees the peer-worker algorithm.
                draining = draining or may_drain and locked_cost > 0.0
                pooled = place(newly_ready)
            if not enqueue(pooled):
                return False
            while draining:
                while mine and not abort.is_set():
                    execute_run(env_id, *mine.popleft())
                with lock:
                    # An empty deque sends the environment back to its
                    # feed while it holds phases: they are the work.  The
                    # drain stays raised unless flow control could block
                    # it there, so what a pool commit readies meanwhile
                    # still comes here.  With no phase left the pool may
                    # still ready cheap pairs, so it parks — off the GIL,
                    # which lets the pool get to them — until one is
                    # handed back or nothing is in flight.  The event is
                    # cleared *before* the test: ``abort_run`` sets it
                    # without the lock, and a set that lands after the
                    # test must still end the wait.
                    handed.clear()
                    leave = abort.is_set() or not mine and (
                        feed.depth or core.quiescent
                    )
                    if leave and flow_sem is not None:
                        draining = False
                    park = not (leave or mine)
                if leave:
                    break
                if park:
                    handed.wait()
            return True

        def stopping() -> bool:
            return stop_event is not None and stop_event.is_set()

        def environment() -> None:
            # Listing 2: the environment process.
            nonlocal draining
            try:
                while not abort.is_set():
                    if stopping():
                        break
                    pi = feed.get(timeout=_FEED_POLL_S)
                    if pi is None:
                        if feed.drained:
                            break
                        continue
                    if flow_sem is not None:
                        # One blocking credit.  Abort paths (worker crash,
                        # shutdown watchdog) release the semaphore *after*
                        # setting the abort flag, so this wait is
                        # abort-aware without polling — no timeout loop
                        # burning CPU or making virtual-clock runs
                        # timing-dependent.
                        flow_sem.acquire()
                        if abort.is_set() or stopping():
                            break
                    # Everything the feed already holds rides along (one
                    # flow credit each, never waiting for one): a thread
                    # that drains phase p before it looks at the feed
                    # again would otherwise never have two started phases
                    # to coalesce.
                    fed = [pi]
                    while (
                        len(fed) < _START_BURST
                        and feed.depth
                        and (flow_sem is None or flow_sem.acquire(blocking=False))
                    ):
                        fed.append(feed.get(timeout=0))
                    drain["feed_burst_max"] = max(drain["feed_burst_max"], len(fed))
                    if not start_phases(fed):
                        break
            except BaseException as exc:  # noqa: BLE001 - reported after join
                env_errors.append(exc)
                abort.set()
            finally:
                env_done.set()
                # The deque goes to the pool (a stop is honoured between
                # bursts).  Close if everything already completed (covers
                # zero-phase runs and the race where the last completion
                # preceded env_done), or if we are aborting.
                with lock:
                    draining = False
                    pooled = list(mine)
                    mine.clear()
                    quiescent = core.quiescent
                enqueue(pooled)
                if quiescent or abort.is_set():
                    queue.close()

        pool = ComputationThreadPool(
            self.num_threads, worker, name="compute", backend=backend
        )
        env_thread = backend.thread(target=environment, name="environment")

        def outlast(alive: Callable[[], bool], wait: Callable[[float], object]) -> None:
            # The watchdog: *wait* in slices until *alive()* is false or
            # nothing has been computed or committed for join_timeout
            # (real) seconds.  A batch, or one coalesced run, that merely
            # lasts longer is healthy.  (A virtual task's join ignores its
            # timeout and returns only when done: no spinning there.)
            def progress() -> int:
                return core.state.executed_pairs + sum(computed_members)

            slice_s = self.join_timeout / 4
            seen = progress()
            quiet_since = time.monotonic()
            while alive():
                wait(slice_s)
                now = progress()
                if now != seen:
                    seen, quiet_since = now, time.monotonic()
                elif time.monotonic() - quiet_since >= self.join_timeout:
                    return

        started = clock()
        pool.start()
        env_thread.start()
        # A run lasts as long as its producer keeps the feed open; the
        # watchdog below only times the wind-down that follows a close, a
        # stop request or an abort.
        while not (
            feed.closed or abort.is_set() or stopping()
        ) and env_thread.is_alive():
            env_thread.join(_FEED_POLL_S)
        outlast(env_thread.is_alive, env_thread.join)
        env_wedged = env_thread.is_alive()
        if env_wedged:
            # The environment is stuck (e.g. parked on flow control behind
            # a wedged worker).  Abort the run, wake everything, and still
            # join the pool below — a wedged environment must not leak
            # live computation threads into the caller, nor mask the
            # root-cause worker exception with a generic EngineError.
            abort_run()
        outlast(pool.any_alive, pool.wait)
        join_error: Optional[EngineError] = None
        try:
            pool.join(0)
        except EngineError as exc:
            join_error = exc
        elapsed = clock() - started
        # Prefer the root cause: a worker or environment exception explains
        # the run better than any watchdog timeout it caused.
        pool.reraise()
        if env_errors:
            raise env_errors[0]
        if join_error is not None:
            raise join_error
        if env_wedged:
            raise EngineError("environment thread failed to terminate")

        return core.result(
            f"parallel[k={self.num_threads}]",
            elapsed,
            {
                "num_threads": self.num_threads,
                "lock": lock.stats(),
                "queue": {
                    "max_depth": queue.max_depth,
                    "total_enqueued": queue.total_enqueued,
                    "total_dequeued": queue.total_dequeued,
                    "blocked_gets": queue.blocked_gets,
                },
                "drain": drain,
            },
        )
