"""The multithreaded engine: the coordinator over executor threads.

:class:`ParallelEngine` runs a :class:`~repro.core.program.Program` over
a sequence of phases with the one driver of :mod:`repro.runtime.driver`
on an **environment thread** — the only caller of
:class:`~repro.runtime.core.ScheduleCore` — and *k* **executor threads**
(``compute-0`` … ``compute-<k-1>``), which :class:`ThreadPort` starts,
feeds and joins.  The environment starts phases (Listing 2), executes
the vertices :class:`~repro.runtime.core.Placement` keeps here and
sweeps a window of phases (a lone phase, or a fresh backlog's oldest
64); a vertex whose compute is dearer than a hand-off
moves away, and each of its ready runs is claimed, put on its sticky
executor's job deque as prepared contexts, computed there, handed back
on one shared deque, and delivered and committed by the environment.
Section 3.2's blocking run queue is those deques: a get waits on the
deque's condition, and each item is taken once.

This is not Listing 1's peer-worker shape, where every computation thread
takes one global lock to claim and to commit: under one GIL a hand-off
between peers (run queue, condition variable, contended lock, thread
switch) costs more than most runs it hands over, and only one thread
needs the scheduling sets (docs/ARCHITECTURE.md §1.3).  Executors never
touch them.

The expensive vertex computation happens on an executor, so vertices
that release the GIL (NumPy kernels, I/O, C extensions) genuinely execute
in parallel.  Pure-Python vertex work is serialised by the GIL — the
simulated SMP (:mod:`repro.simulator`) exists to evaluate speedup
without that confound.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, List, Optional

from ..core.invariants import InvariantChecker
from ..core.program import PairRuntime, Program, RunResult
from ..core.tracer import ExecutionTracer
from ..core.vertex import VertexContext
from ..errors import EngineError, VertexExecutionError
from .backend import OS_BACKEND, ThreadingBackend
from .driver import DrivenEngine, drive
from .feed import PhaseFeed

__all__ = ["ParallelEngine", "ThreadPort"]


class ThreadPort:
    """The driver's away port on *num_threads* executor threads.

    Each executor ``compute-<i>`` takes runs of its sticky vertices
    (vertex *v* on ``(v - 1) % k``) from its own job deque, in FIFO
    order, computes them and hands ``(worker, v, phases, contexts, None,
    error)`` back on one shared deque; whatever its compute raises, a
    ``BaseException`` too, is handed back as the run's error.  Each deque
    is guarded by a condition of *backend*: a put notifies once, a get
    never notifies, and :meth:`close` wakes an idle executor, which
    computes what is still queued and then exits.

    A run of n members is priced as n hand-offs, one per pair it could
    have handed over, each what the driver measured on *backend*'s clock
    at the start: an empty round trip through an executor (the second of
    two; the first also pays the thread's start).  Nothing reads cheap on
    a clock that does not advance
    (:class:`~repro.testing.schedule.VirtualBackend`), so there every
    vertex moves away after its stakes and schedule exploration sees the
    hand-off.
    """

    def __init__(self, num_threads: int, backend: ThreadingBackend) -> None:
        if num_threads < 1:
            raise EngineError(f"need at least one executor, got {num_threads}")
        self.workers = num_threads
        self.clock = backend.clock
        self._jobs: List[Deque[Any]] = [deque() for _ in range(num_threads)]
        self._queued = [backend.condition() for _ in range(num_threads)]
        self._open = [True] * num_threads
        self._back: Deque[Any] = deque()
        self._returned = backend.condition()
        self._threads = [
            backend.thread(target=self._execute, args=(i,), name=f"compute-{i}")
            for i in range(num_threads)
        ]
        self._runtime: Optional[PairRuntime] = None
        # Members computed, one single-writer slot per executor: the
        # watchdog's sign of life inside a run that has not come back.
        self._computed = [0] * num_threads
        # What executors handed back as errors, first first: the root
        # cause that :meth:`join` names when an executor outlives it.
        self.errors: List[BaseException] = []
        self._trip = 0.0

    @staticmethod
    def _put(cond: Any, items: Deque[Any], item: Any) -> None:
        with cond:
            items.append(item)
            cond.notify()

    def _take(self, timeout: Optional[float] = None) -> Any:
        # One hand-back, or None once *timeout* elapses without one.
        back, returned = self._back, self._returned
        with returned:
            while not back:
                if not returned.wait(timeout):
                    return None
            return back.popleft()

    def _execute(self, i: int) -> None:
        jobs, queued, computed = self._jobs[i], self._queued[i], self._computed
        back, returned = self._back, self._returned

        def after_member() -> bool:
            computed[i] += 1
            return False

        while True:
            with queued:
                while not jobs:
                    if not self._open[i]:
                        return  # closed and drained
                    queued.wait()
                job = jobs.popleft()
            if job is None:  # a probe of the trip
                self._put(returned, back, None)
                continue
            v, phases, ctxs = job
            error: Optional[BaseException] = None
            try:
                executed = self._runtime.compute(v, ctxs, after_member)
            except VertexExecutionError as exc:
                error, executed = exc, phases.index(exc.phase)
            except BaseException as exc:  # noqa: BLE001 - the coordinator raises it
                error, executed = exc, 0
            if error is not None:
                self.errors.append(error)
            self._put(returned, back, (i, v, phases[:executed], ctxs, None, error))

    def start(self, runtime: PairRuntime) -> None:
        self._runtime = runtime
        for thread in self._threads:
            thread.start()
        for _ in range(2):
            began = self.clock()
            self._put(self._queued[0], self._jobs[0], None)
            self._take()
            self._trip = self.clock() - began

    def price(self, v: int, phases: List[int], ctxs: List[VertexContext]) -> float:
        return len(phases) * self._trip

    def trip(self, n: int) -> float:
        return n * self._trip

    def send(self, w: int, v: int, phases: List[int], ctxs: List[VertexContext]) -> None:
        self._put(self._queued[w], self._jobs[w], (v, phases, ctxs))

    def collect(self, timeout: float) -> Any:
        if not timeout:
            # The peek takes the lock too: under a virtual backend it is
            # a preemption point of the explored schedule.
            with self._returned:
                if not self._back:
                    return None
        return self._take(timeout)

    def progress(self) -> int:
        return sum(self._computed)

    def check(self) -> None:
        pass  # an executor hands back whatever its compute raised

    def close(self) -> None:
        for i, queued in enumerate(self._queued):
            with queued:
                self._open[i] = False
                queued.notify_all()

    abort = close

    def join(self, timeout: float) -> None:
        """Wait up to *timeout* in total for the executors, which leave
        once their deques are closed and drained (the caller's half: a
        virtual task joins from the scheduler's thread).

        Raises :class:`EngineError` if an executor is still alive after
        it.  When an executor already handed back an error, the timeout
        error names and chains it (``__cause__``; also on the
        ``worker_errors`` attribute): a failed run that wedges an
        executor is reported by its root cause, not just the wedge.
        """
        if self._runtime is None:
            return  # never started
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        stuck = [t.name for t in self._threads if t.is_alive()]
        if not stuck:
            return
        errors = list(self.errors)
        message = f"executors failed to terminate: {stuck!r}"
        if errors:
            message += (
                f" (after executor error: {type(errors[0]).__name__}: "
                f"{errors[0]})"
            )
        exc = EngineError(message)
        exc.worker_errors = errors  # type: ignore[attr-defined]
        raise exc from (errors[0] if errors else None)

    def stats(self, elapsed: float, moved: List[str]) -> dict:
        return {"num_threads": self.workers}


class ParallelEngine(DrivenEngine):
    """The paper's parallel algorithm on real threads.

    Parameters
    ----------
    program:
        The program to execute (graph + numbering + behaviours).
    num_threads:
        Number of executor threads (k).  The environment thread, which
        coordinates and executes the cheap vertices, is always added on
        top, as in the paper.
    checker:
        Optional :class:`InvariantChecker`, invoked at every state
        mutation (on the environment thread).
    tracer:
        Optional :class:`ExecutionTracer`; :class:`ScheduleCore` sends
        it every event (real-time clock).
    max_in_flight_phases:
        Flow control: at most this many started-but-incomplete phases
        (``None``, the default, is the paper's unthrottled environment;
        a bound keeps edge histories small, and ``1`` is the
        phase-barrier baseline).
    join_timeout:
        Watchdog: the run is wedged once runs are away and none has come
        back, nor any member been computed, for this many seconds.  A
        healthy run may last any multiple of it, and a served stream may
        idle for days.
    backend:
        Threading backend supplying locks, conditions, threads and the clock
        (default: real OS threads).  The deterministic test scheduler
        passes a :class:`repro.testing.schedule.VirtualBackend` here to
        control every interleaving.
    faults:
        Optional bug-injection plan (:class:`repro.testing.faults.FaultPlan`),
        used by the schedule-exploration suite to prove it *finds* seeded
        hand-off bugs.  Any object with the matching attribute names
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
        super().__init__(
            program, ("num_threads", num_threads), checker, tracer,
            max_in_flight_phases, join_timeout,
        )
        self.num_threads = num_threads
        self.backend = backend or OS_BACKEND
        self.faults = faults

    def _execute(
        self,
        feed: PhaseFeed,
        sink: object = None,
        retire: bool = False,
        stop_event: object = None,
    ) -> RunResult:
        backend = self.backend
        port = ThreadPort(self.num_threads, backend)
        outcome: List[Any] = []

        def environment() -> None:
            try:
                outcome.append(drive(
                    self.program, port, feed, f"parallel[k={self.num_threads}]",
                    backend, checker=self.checker, tracer=self.tracer,
                    max_in_flight_phases=self.max_in_flight_phases,
                    join_timeout=self.join_timeout, sink=sink, retire=retire,
                    stop_event=stop_event, faults=self.faults,
                ))
            except BaseException as exc:  # noqa: BLE001 - raised below
                outcome.append(exc)

        env = backend.thread(target=environment, name="environment")
        env.start()
        env.join()
        try:
            port.join(self.join_timeout)
        except EngineError:
            # A failed run is reported by its root cause, not by the
            # executor it left wedged.
            if not isinstance(outcome[0], BaseException):
                raise
        if isinstance(outcome[0], BaseException):
            raise outcome[0]
        return outcome[0]
