"""The process-parallel engine: the coordinator over worker processes.

:class:`ProcessEngine` is the paper's algorithm with the compute step
remoted *where that pays*.  It runs the one driver of
:mod:`repro.runtime.driver` on the calling thread — the coordinator,
which owns every shared data structure and is the only caller of
:class:`~repro.runtime.core.ScheduleCore` — with a
:class:`~.lifecycle.ProcessWorkerPool` as its away port, which spawns,
prices, feeds and shuts down the workers.

**Where a run computes is measured, not configured**
(docs/ARCHITECTURE.md §5.8): a trip to a worker is this engine's
dearest bookkeeping.  Every vertex starts *resident*: the coordinator
computes and commits its runs, no frame built, and settles each with
:class:`~repro.runtime.core.Placement` — its compute, in this thread's
CPU seconds, against what marshalling that run would cost (``frame + n
× member``, priced on unsent frames until runs ship).  Once the rule
moves a vertex it is **promoted**, one-way: its next frame carries the
behaviour itself, holding the state the resident runs left, to its
sticky worker, and each dispatch ships every ready pair of it, claimed
into a run, as one :class:`~.protocol.RunMsg`, answered by one
:class:`~.protocol.ResultBatch` committed whole.  No window meters the
wire: the scheduler holds at most one ready-or-claimed head per
vertex, so a promoted vertex has at most one run in flight.  A worker
only computes; the coordinator's commit delivers every output.

A vertex executes in one place at a time (here, then — after its state
has moved, FIFO ahead of the first member that needs it — on one
worker), so every behaviour's state evolves in strict phase order.  At
shutdown the promoted vertices' states come back as
:meth:`~repro.core.vertex.Vertex.snapshot_state` payloads and are
restored into the coordinator's copies, so post-run program state
matches a serial execution.  Only frames are pickled: a run frame that
does not encode raises :class:`~repro.errors.VertexExecutionError` at
the run's head phase, and a vertex that never leaves the coordinator
need not pickle at all.
"""

from __future__ import annotations

from typing import Optional

from ...core.invariants import InvariantChecker
from ...core.program import Program, RunResult
from ...core.tracer import ExecutionTracer
from ..backend import OS_BACKEND
from ..driver import DrivenEngine, drive
from ..feed import PhaseFeed
from .lifecycle import ProcessWorkerPool

__all__ = ["ProcessEngine"]


class ProcessEngine(DrivenEngine):
    """The paper's parallel algorithm on worker *processes*.

    Parameters
    ----------
    program:
        The program to execute.  A promoted vertex's behaviour and run
        payloads must pickle (see ``tests/models/test_pickling.py``); a
        run frame that does not raises
        :class:`~repro.errors.VertexExecutionError`.
    num_workers:
        Number of worker processes (the paper's k computation
        processors).  The coordinator rides this process, like the
        paper's environment process, and executes the cheap vertices.
    checker:
        Optional :class:`InvariantChecker`, invoked at every state
        mutation (on the coordinator thread).
    tracer:
        Optional :class:`ExecutionTracer`; :class:`ScheduleCore` sends
        it every event (real-time clock).
    max_in_flight_phases:
        Flow control: at most this many started-but-incomplete phases
        (``None``, the default: unthrottled, as in the paper).
    join_timeout:
        Watchdog: seconds with runs on the workers and no reply (and at
        shutdown) before the run is declared wedged.
    start_method:
        ``multiprocessing`` start method; default is ``fork`` where
        available, else ``spawn``.
    """

    def __init__(
        self,
        program: Program,
        num_workers: int = 2,
        checker: Optional[InvariantChecker] = None,
        tracer: Optional[ExecutionTracer] = None,
        max_in_flight_phases: Optional[int] = None,
        join_timeout: float = 120.0,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__(
            program, ("num_workers", num_workers), checker, tracer,
            max_in_flight_phases, join_timeout,
        )
        self.num_workers = num_workers
        self.start_method = start_method

    def _execute(
        self,
        feed: PhaseFeed,
        sink: object = None,
        retire: bool = False,
        stop_event: object = None,
    ) -> RunResult:
        return drive(
            self.program,
            ProcessWorkerPool(self.program, self.num_workers,
                              self.join_timeout, self.start_method),
            feed, f"process[w={self.num_workers}]", OS_BACKEND,
            checker=self.checker, tracer=self.tracer,
            max_in_flight_phases=self.max_in_flight_phases,
            join_timeout=self.join_timeout, sink=sink, retire=retire,
            stop_event=stop_event,
        )
