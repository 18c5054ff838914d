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
  2-processor speedup.

Differences from the paper's infinite loops (all additive):

* **Termination** — the paper's processes run forever; here the
  environment stops after the last supplied phase, and the run-queue close
  protocol lets workers exit once every started phase has completed.
* **Flow control** (optional) — bound the number of in-flight phases so
  edge histories stay small; off by default (the paper's behaviour).
* **Failure handling** — a vertex exception aborts the run and re-raises
  as :class:`~repro.errors.VertexExecutionError` from :meth:`run`.
* **One schedule** — readiness uses per-dependency (cone) frontiers,
  value-equal outputs are suppressed at commit time (Δ-elision), and a
  dequeued ready pair is extended into a *run* of consecutive claimable
  phases that is prepared under one lock acquisition, computed outside
  it and committed in one critical section.  A single pair is a run of
  length 1.  The critical-section bodies are
  :class:`~repro.runtime.core.ScheduleCore`'s, shared with the process
  engine and the simulator; this module keeps what is particular to peer
  threads.  Every scheduling-set mutation still happens under the single
  global lock, so the paper's serializability argument carries over
  (docs/ALGORITHM.md §5.4, §5.6, §5.7).  The published global-``x_p``
  schedule lives on in the simulator's ``frontier="global"``.

The expensive vertex computation happens *outside* the lock (prepare /
compute / commit split, see :class:`~repro.core.program.PairRuntime`), so
vertices that release the GIL (NumPy kernels, I/O, C extensions) genuinely
execute in parallel.  Pure-Python vertex work is serialised by the GIL —
the simulated SMP (:mod:`repro.simulator`) exists to evaluate speedup
without that confound; this engine is the *correctness* vehicle.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple, Union

from ..core.invariants import InvariantChecker
from ..core.plan import ExecutionPlan, as_plan
from ..core.program import Program, RunResult
from ..core.state import ADAPTIVE_RUN_CEILING
from ..core.tracer import ExecutionTracer
from ..errors import EngineError, QueueClosedError
from ..events import PhaseInput
from .backend import OS_BACKEND, ThreadingBackend
from .blocking_queue import BlockingQueue
from .core import ScheduleCore
from .environment import EnvironmentConfig
from .feed import PhaseFeed
from .locks import InstrumentedLock
from .pool import ComputationThreadPool

__all__ = ["ParallelEngine"]

# How long the environment thread parks on an idle PhaseFeed before
# re-checking abort/stop flags (feed mode only; OS backend only).
_FEED_POLL_S = 0.05

#: Batch-mode phase admissions per environment critical section.  Matches
#: the adaptive run ceiling: a started horizon deeper than the longest
#: claimable run buys nothing further.
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
    env:
        Environment pacing / flow control (:class:`EnvironmentConfig`).
    join_timeout:
        Watchdog: seconds to wait for threads at shutdown before declaring
        the run wedged.  A batch :meth:`run` is timed from its start; a
        :meth:`run_feed` only from the moment its feed is closed or a
        stop is requested (a served stream may stay open for days).
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
        program: Union[Program, ExecutionPlan],
        num_threads: int = 2,
        checker: Optional[InvariantChecker] = None,
        tracer: Optional[ExecutionTracer] = None,
        env: EnvironmentConfig = EnvironmentConfig(),
        join_timeout: float = 120.0,
        backend: Optional[ThreadingBackend] = None,
        faults: object = None,
    ) -> None:
        if num_threads < 1:
            raise EngineError(f"num_threads must be >= 1, got {num_threads}")
        self.plan = as_plan(program)
        self.program = self.plan.program
        self.num_threads = num_threads
        self.checker = checker
        self.tracer = tracer
        self.env = env
        self.join_timeout = join_timeout
        self.backend = backend or OS_BACKEND
        self.faults = faults

    def run(
        self,
        phase_inputs: Sequence[PhaseInput],
        stop_event: object = None,
    ) -> RunResult:
        """Execute every phase; returns the :class:`RunResult`.

        With *stop_event* (any object with ``is_set()``, e.g. a
        :class:`threading.Event` flipped by a signal handler) the
        environment stops admitting new phases once the event is set;
        already-started phases drain to completion and the result covers
        exactly the started phases — the graceful-shutdown path.

        Raises the first vertex exception as
        :class:`~repro.errors.VertexExecutionError`, and
        :class:`EngineError` if threads wedge past *join_timeout*.
        """
        return self._execute(
            phase_inputs=phase_inputs, feed=None, stop_event=stop_event
        )

    def run_feed(
        self,
        feed: PhaseFeed,
        sink: object = None,
        retire: bool = False,
        stop_event: object = None,
    ) -> RunResult:
        """Execute phases as a :class:`PhaseFeed` delivers them.

        The continuous-operation entry point: the environment thread
        admits each sealed phase the moment the feed hands it over, and
        the run ends when the feed is closed and drained (or *stop_event*
        is set — in-flight phases still drain).  OS backend only: the
        feed blocks on a real condition variable.

        With ``retire=True`` the engine additionally *retires* each
        phase as soon as the completed prefix extends — handing
        ``sink(phase, timestamp, entries)`` the phase's translated record
        entries (``(vertex_name, value)``, commit order) and then
        garbage-collecting every per-phase structure: scheduler arrays,
        completion-log prefix, phase inputs, record segments.  Memory
        then stays bounded by the in-flight window rather than the
        stream length; the returned result carries no per-execution data
        (``executions`` empty, ``records`` empty) — counts live in
        ``stats``.  *sink* runs inside the engine's critical section and
        must be cheap and non-blocking (hand off to a queue).
        """
        return self._execute(
            phase_inputs=None,
            feed=feed,
            sink=sink,
            retire=retire,
            stop_event=stop_event,
        )

    def _execute(
        self,
        phase_inputs: Optional[Sequence[PhaseInput]],
        feed: Optional[PhaseFeed],
        sink: object = None,
        retire: bool = False,
        stop_event: object = None,
    ) -> RunResult:
        backend = self.backend
        tracer = self.tracer
        core = ScheduleCore(
            self.plan,
            phase_inputs,
            self.num_threads,
            checker=self.checker,
            tracer=tracer,
            preempt=getattr(backend, "preempt", None),
            retire=retire,
            sink=sink,
        )
        runtime = core.runtime
        lock = InstrumentedLock(clock=backend.clock, backend=backend)
        queue: BlockingQueue[Tuple[int, int]] = BlockingQueue(backend=backend)
        abort = backend.event()
        env_done = backend.event()
        flow_sem = (
            backend.semaphore(self.env.max_in_flight_phases)
            if self.env.max_in_flight_phases is not None
            else None
        )
        # Bug-injection seams (testing only; see repro.testing.faults).
        faults = self.faults
        unlocked_commit = bool(getattr(faults, "unlocked_commit", False))
        unlocked_start = bool(getattr(faults, "unlocked_start_phase", False))
        duplicate_enqueue = bool(getattr(faults, "duplicate_enqueue", False))
        commit_guard = (lambda: nullcontext()) if unlocked_commit else (lambda: lock)
        start_guard = (lambda: nullcontext()) if unlocked_start else (lambda: lock)

        def worker(worker_id: int) -> None:
            # Listing 1: the computation process, one run at a time.  The
            # dequeued ready pair is claimed as a run of prepared members
            # under one lock, computed outside it, and committed —
            # deliveries, suppression latch tests and the one
            # ScheduleCore.commit — in one critical section.
            try:
                while True:
                    try:
                        v, p = queue.get()
                    except QueueClosedError:
                        return
                    if abort.is_set():
                        continue  # drain until close
                    with lock:
                        run = core.claim(v, p)
                        if tracer is not None:
                            for q, _ in run:
                                tracer.execute_begin((v, q), worker_id)
                    for _, ctx in run:
                        runtime.compute(v, ctx)
                    with commit_guard():
                        # Member commits run back-to-back: each delivery
                        # updates the edge latch the next member's
                        # suppression test reads, so runs short-circuit
                        # between members exactly like serial per-phase
                        # commits.
                        completed = [
                            (v, q, runtime.commit(v, q, ctx)) for q, ctx in run
                        ]
                        if tracer is not None:
                            for q, _ in run:
                                tracer.execute_end((v, q), worker_id)
                        newly_ready, newly_complete = core.commit(worker_id, completed)
                        done = env_done.is_set() and core.quiescent
                    if flow_sem is not None:
                        for _ in range(newly_complete):
                            flow_sem.release()
                    try:
                        queue.put_many(newly_ready)
                        if duplicate_enqueue:
                            queue.put_many(newly_ready)
                    except QueueClosedError:
                        if not abort.is_set():
                            raise
                    if done:
                        queue.close()
            except BaseException:
                # A failed worker must not leave the others blocked on the
                # queue or the environment parked on flow control: flag the
                # abort, wake everyone, then propagate.
                abort.set()
                queue.close()
                if flow_sem is not None:
                    flow_sem.release()
                raise

        env_errors: List[BaseException] = []

        def start_phases(count: int, pi: Optional[PhaseInput] = None) -> bool:
            # Start *count* phases (Listing 2 body) under one critical
            # section: the per-phase start acquisition is exactly the
            # lock traffic run coalescing exists to remove, and a deeper
            # started horizon is what lets a claim extend runs in the
            # first place.
            with start_guard():
                newly_ready = core.admit(count, pi)
            try:
                queue.put_many(newly_ready)
            except QueueClosedError:
                if not abort.is_set():
                    raise
                return False
            if self.env.pacing:
                backend.sleep(self.env.pacing)
            return True

        def environment() -> None:
            # Listing 2: the environment process.
            try:
                if feed is None:
                    remaining = core.phases_unadmitted
                    while remaining > 0:
                        if abort.is_set():
                            break
                        if stop_event is not None and stop_event.is_set():
                            break
                        # A paced environment starts one phase per tick.
                        burst = 1 if self.env.pacing else min(_START_BURST, remaining)
                        if flow_sem is not None:
                            # One blocking credit, then take whatever
                            # else the flow window has free right now.
                            # Abort paths (worker crash, shutdown
                            # watchdog) release the semaphore *after*
                            # setting the abort flag, so this wait is
                            # abort-aware without polling — no timeout
                            # loop burning CPU or making virtual-clock
                            # runs timing-dependent.
                            flow_sem.acquire()
                            if abort.is_set():
                                break
                            taken = 1
                            while taken < burst and flow_sem.acquire(
                                blocking=False
                            ):
                                taken += 1
                            burst = taken
                        if not start_phases(burst):
                            break
                        remaining -= burst
                else:
                    while not abort.is_set():
                        if stop_event is not None and stop_event.is_set():
                            break
                        pi = feed.get(timeout=_FEED_POLL_S)
                        if pi is None:
                            if feed.drained:
                                break
                            continue
                        if flow_sem is not None:
                            flow_sem.acquire()
                            if abort.is_set() or (
                                stop_event is not None and stop_event.is_set()
                            ):
                                break
                        if not start_phases(1, pi):
                            break
            except BaseException as exc:  # noqa: BLE001 - reported after join
                env_errors.append(exc)
                abort.set()
            finally:
                env_done.set()
                # Close if everything already completed (covers zero-phase
                # runs and the race where the last completion preceded
                # env_done), or if we are aborting.
                with lock:
                    quiescent = core.quiescent
                if quiescent or abort.is_set():
                    queue.close()

        pool = ComputationThreadPool(
            self.num_threads, worker, name="compute", backend=backend
        )
        env_thread = backend.thread(target=environment, name="environment")

        started = backend.clock()
        pool.start()
        env_thread.start()
        if feed is not None:
            # A feed-mode run lasts as long as its producer keeps the feed
            # open; the watchdog below only times the wind-down that
            # follows a close, a stop request or an abort.
            while env_thread.is_alive() and not (
                feed.closed
                or abort.is_set()
                or (stop_event is not None and stop_event.is_set())
            ):
                env_thread.join(_FEED_POLL_S)
        env_thread.join(self.join_timeout)
        env_wedged = env_thread.is_alive()
        if env_wedged:
            # The environment is stuck (e.g. parked on flow control behind
            # a wedged worker).  Abort the run, wake everything, and still
            # join the pool below — a wedged environment must not leak
            # live computation threads into the caller, nor mask the
            # root-cause worker exception with a generic EngineError.
            abort.set()
            queue.close()
            if flow_sem is not None:
                flow_sem.release()
        join_error: Optional[EngineError] = None
        try:
            pool.join(self.join_timeout)
        except EngineError as exc:
            join_error = exc
        elapsed = backend.clock() - started
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
            },
        )
