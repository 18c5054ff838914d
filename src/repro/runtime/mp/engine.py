"""The process-parallel engine: the coordinator over worker processes.

:class:`ProcessEngine` is the paper's algorithm with the compute step
remoted *where that pays*.  It runs the one driver of
:mod:`repro.runtime.driver` on the calling thread — the coordinator,
which owns every shared data structure and is the only caller of
:class:`~repro.runtime.core.ScheduleCore` — with a :class:`ProcessPort`
as its away port.

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

import time
from typing import Dict, List, Optional, Set, Tuple

from ...core.invariants import InvariantChecker
from ...core.program import PairRuntime, Program, RunResult
from ...core.tracer import ExecutionTracer
from ...core.vertex import VertexContext
from ...errors import EngineError, VertexExecutionError
from ..backend import OS_BACKEND
from ..driver import DrivenEngine, drive
from ..feed import PhaseFeed
from .lifecycle import ProcessWorkerPool
from .protocol import (
    ResultBatch,
    WorkerCrashMsg,
    decode,
    encode,
    run_from_contexts,
)
from .worker import _describe_pickle_failure

__all__ = ["ProcessEngine", "ProcessPort"]

#: The placement clock: this thread's CPU seconds, so a quantum lost to
#: an ingest or HTTP thread on the same GIL is not read as compute.
#: Tests script it (``repro.testing.fuzz.scripted_placement``); nothing
#: reads cheap on a clock that does not advance.
_clock = time.thread_time

#: What marshalling a run of n members costs: ``frame + n * member``.
Price = Tuple[float, float]


def _cost(price: Price, n: int) -> float:
    return price[0] + n * price[1]


def _fit(head: float, whole: float, n: int) -> Price:
    """The price of a run whose head alone marshalled in *head* seconds
    and whose *n* members together in *whole*."""
    member = max(whole - head, 0.0) / (n - 1) if n > 1 else 0.0
    return max(head - member, 0.0), member


def _rescaled(price: Price, cost: float, n: int) -> Price:
    """*price* scaled so that a frame of *n* members reads *cost*: a
    measurement keeps the split between frame and member it refreshes."""
    predicted = _cost(price, n)
    if predicted <= 0.0:
        return cost, 0.0
    scale = cost / predicted
    return price[0] * scale, price[1] * scale


class ProcessPort:
    """The driver's away port on a :class:`ProcessWorkerPool`.

    The trip's price is marshalling CPU on :data:`_clock`: build, encode
    and queue a run frame (``send``); receive and decode its reply
    (``recv``, ``None`` before the first).  Until a frame is shipped,
    ``send`` is what encoding and decoding the longest run so far
    (``priced`` members) unsent cost; a run that does not encode is no
    sample.
    """

    def __init__(
        self, program: Program, num_workers: int,
        start_method: Optional[str], join_timeout: float,
    ) -> None:
        self.workers = num_workers
        self.clock = _clock
        self._program = program
        self._pool = ProcessWorkerPool(num_workers, start_method)
        self._join_timeout = join_timeout
        self._in_flight: Dict[Tuple[int, int], VertexContext] = {}
        self._shipped: Set[int] = set()  # promoted, behaviour on the wire
        self._send: Price = (0.0, 0.0)
        self._recv: Optional[Price] = None
        self._priced = 0
        self._shipped_members = 0
        self._finals: Dict[int, object] = {}

    def start(self, runtime: PairRuntime) -> None:
        self._pool.start()

    def worker_of(self, v: int) -> int:
        return self._pool.worker_of(v)

    def _marshalled(self, v: int, prepared: List[Tuple[int, VertexContext]]) -> float:
        # Encode and decode a run frame, unsent.
        began = self.clock()
        decode(encode(run_from_contexts(v, prepared)))
        return self.clock() - began

    def trip(self, n: int) -> float:
        recv = self._recv
        return _cost(self._send, n) + (_cost(recv, n) if recv else 0.0)

    def price(self, v: int, phases: List[int], ctxs: List[VertexContext]) -> float:
        n = len(phases)
        if not self._shipped_members and n > self._priced:
            # Nothing shipped, and no run this long priced: marshal its
            # head alone and then all of it, unsent.  The very first
            # frame pays for warming pickle's caches (~100 us, five
            # frames' worth) once: it is marshalled twice.
            prepared = list(zip(phases, ctxs))
            try:
                if not self._priced:
                    self._marshalled(v, prepared[:1])
                head = self._marshalled(v, prepared[:1])
                whole = self._marshalled(v, prepared) if n > 1 else head
            except Exception:  # noqa: BLE001 - no price sample
                pass
            else:
                self._send, self._priced = _fit(head, whole, n), n
        return self.trip(n)

    def send(self, w: int, v: int, phases: List[int], ctxs: List[VertexContext]) -> None:
        # One frame to the vertex's sticky worker — the first time, with
        # the behaviour itself, as the resident runs left it.
        prepared = list(zip(phases, ctxs))
        self._in_flight.update(((v, q), ctx) for q, ctx in prepared)
        began = self.clock()
        behavior = None
        if v not in self._shipped:
            self._shipped.add(v)
            behavior = self._program.behavior(v)
        run = run_from_contexts(v, prepared, behavior)
        try:
            frame = encode(run)
        except Exception as exc:  # noqa: BLE001 - any pickling failure
            raise VertexExecutionError(
                run.name,
                prepared[0][0],
                "run not picklable: " + _describe_pickle_failure(exc),
            ) from exc
        self._pool.submit_to_worker(w, frame)
        self._send = _rescaled(self._send, self.clock() - began, len(prepared))
        self._shipped_members += len(prepared)

    def collect(self, timeout: float):
        # One worker frame: a run's reply, or a crash report.  A reply
        # ends at its error entry: the members behind it, which never
        # ran, are never dispatched again.
        began = self.clock()
        msg = self._pool.collect(timeout=timeout)
        if msg is None:
            return None
        if isinstance(msg, WorkerCrashMsg):
            raise EngineError(f"worker {msg.worker_id} crashed: {msg.message}")
        assert isinstance(msg, ResultBatch)
        results = msg.results
        if results:
            # A first reply takes the send price's split.
            self._recv = _rescaled(
                self._recv or self._send, self.clock() - began, len(results)
            )
        error = None
        if results and results[-1].error is not None:
            failed = results[-1]
            results = results[:-1]
            error = VertexExecutionError(
                self._program.numbering.name_of(msg.vertex), failed.phase, failed.error
            )
        v = msg.vertex
        phases = [res.phase for res in results]
        ctxs = [self._in_flight.pop((v, q)) for q in phases]
        replies = [(res.outputs, res.records) for res in results]
        return msg.worker_id, v, phases, ctxs, replies, error

    def progress(self) -> int:
        return 0  # a worker is silent until its reply

    def check(self) -> None:
        dead = self._pool.dead_workers()
        if dead:
            # Give a queued crash report precedence over the bare exit code.
            crash = self._pool.collect(timeout=0)
            if isinstance(crash, WorkerCrashMsg):
                raise EngineError(
                    f"worker {crash.worker_id} crashed: {crash.message}"
                )
            wid, code = dead[0]
            raise EngineError(
                f"worker {wid} died (exit code {code}) with "
                f"{len(self._in_flight)} pairs in flight"
            )

    def close(self) -> None:
        # Graceful drain: restore the promoted vertices' final states
        # into this process's copies: post-run state matches serial.
        self._finals = self._pool.shutdown(self._join_timeout)
        for final in self._finals.values():
            for name, state in final.states.items():
                self._program.behaviors[name].restore_state(state)

    def abort(self) -> None:
        self._pool.terminate()

    def stats(self, elapsed: float, moved: List[str]) -> dict:
        wire = self._pool.wire.summary()
        task_frames = wire["runs"]["messages"]
        return {
            "num_workers": self.workers,
            "start_method": self._pool.start_method,
            "per_worker_utilization": {
                wid: (final.busy_s / elapsed if elapsed > 0 else 0.0)
                for wid, final in sorted(self._finals.items())
            },
            "ipc_round_trips": task_frames,
            "serialization_bytes": wire,
            "ipc": {
                "task_frames": task_frames,
                "mean_tasks_per_frame": (
                    self._shipped_members / task_frames if task_frames else 0.0
                ),
                "promoted": moved,
            },
        }


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
            ProcessPort(self.program, self.num_workers, self.start_method,
                        self.join_timeout),
            feed, f"process[w={self.num_workers}]", OS_BACKEND,
            checker=self.checker, tracer=self.tracer,
            max_in_flight_phases=self.max_in_flight_phases,
            join_timeout=self.join_timeout, sink=sink, retire=retire,
            stop_event=stop_event,
        )
