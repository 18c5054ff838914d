"""The multithreaded engine: the coordinator over executor threads.

:class:`ParallelEngine` runs a :class:`~repro.core.program.Program` over
a sequence of phases with the one driver of :mod:`repro.runtime.driver`
on an **environment thread** — the only caller of
:class:`~repro.runtime.core.ScheduleCore` — and *k* **executor threads**
(``compute-0`` … ``compute-<k-1>``) behind a :class:`ThreadPort`.  The
environment starts phases (Listing 2), executes the vertices
:class:`~repro.runtime.core.Placement` keeps here and sweeps a lone
phase; a vertex whose compute is dearer than a hand-off moves away, and
each of its ready runs is claimed, handed to its sticky executor as
prepared contexts, computed there, handed back on a queue, and
delivered and committed by the environment.

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

from typing import Any, List, Optional

from ..core.invariants import InvariantChecker
from ..core.program import PairRuntime, Program, RunResult
from ..core.tracer import ExecutionTracer
from ..core.vertex import VertexContext
from ..errors import QueueClosedError, VertexExecutionError
from .backend import OS_BACKEND, ThreadingBackend
from .blocking_queue import BlockingQueue
from .driver import DrivenEngine, drive
from .feed import PhaseFeed
from .pool import ComputationThreadPool

__all__ = ["ParallelEngine", "ThreadPort"]


class ThreadPort:
    """The driver's away port on *num_threads* executor threads.

    Each executor takes runs of its sticky vertices (``worker_of(v) =
    (v - 1) % k``) from its own queue, computes them and hands
    ``(worker, v, phases, contexts, None, error)`` back on one shared
    queue.  A run of n members is priced as n hand-offs, one per pair it
    could have handed over, each what the driver measured on *backend*'s
    clock at the start: an empty round trip through an executor (the
    second of two; the first also pays the thread's start).  Nothing
    reads cheap on a clock that does not advance
    (:class:`~repro.testing.schedule.VirtualBackend`), so there every
    vertex moves away after its stakes and schedule exploration sees the
    hand-off.
    """

    def __init__(self, num_threads: int, backend: ThreadingBackend) -> None:
        self.workers = num_threads
        self.clock = backend.clock
        self._jobs: List[BlockingQueue] = [
            BlockingQueue(backend) for _ in range(num_threads)
        ]
        self._back: BlockingQueue = BlockingQueue(backend)
        self._pool = ComputationThreadPool(
            num_threads, self._execute, name="compute", backend=backend
        )
        self._started = False
        self._runtime: Optional[PairRuntime] = None
        # Members computed, one single-writer slot per executor: the
        # watchdog's sign of life inside a run that has not come back.
        self._computed = [0] * num_threads
        self._trip = 0.0

    def _execute(self, i: int) -> None:
        jobs, back, computed = self._jobs[i], self._back, self._computed

        def after_member() -> bool:
            computed[i] += 1
            return False

        while True:
            try:
                job = jobs.get()
            except QueueClosedError:
                return
            if job is None:  # a probe of the trip
                back.put(None)
                continue
            v, phases, ctxs = job
            error = None
            try:
                executed = self._runtime.compute(v, ctxs, after_member)
            except VertexExecutionError as exc:
                error, executed = exc, phases.index(exc.phase)
            back.put((i, v, phases[:executed], ctxs, None, error))

    def start(self, runtime: PairRuntime) -> None:
        self._runtime = runtime
        self._pool.start()
        self._started = True
        for _ in range(2):
            began = self.clock()
            self._jobs[0].put(None)
            self._back.get()
            self._trip = self.clock() - began

    def worker_of(self, v: int) -> int:
        return (v - 1) % self.workers

    def price(self, v: int, phases: List[int], ctxs: List[VertexContext]) -> float:
        return len(phases) * self._trip

    def trip(self, n: int) -> float:
        return n * self._trip

    def send(self, w: int, v: int, phases: List[int], ctxs: List[VertexContext]) -> None:
        self._jobs[w].put((v, phases, ctxs))

    def collect(self, timeout: float) -> Any:
        back = self._back
        if not timeout and not len(back):
            return None
        try:
            return back.get(timeout)
        except TimeoutError:
            return None

    def progress(self) -> int:
        return sum(self._computed)

    def check(self) -> None:
        pass  # an executor hands its failure back; it never dies silently

    def close(self) -> None:
        for jobs in self._jobs:
            jobs.close()

    abort = close

    def join(self, timeout: float) -> None:
        """Wait up to *timeout* for the executors, which leave once their
        queues close (the caller's half: a virtual task joins from the
        scheduler's thread)."""
        if self._started:
            self._pool.wait(timeout)

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
        Threading backend supplying locks, queues, threads and the clock
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
        port.join(self.join_timeout)
        if isinstance(outcome[0], BaseException):
            raise outcome[0]
        return outcome[0]
