"""The process-parallel engine: coordinator loop + worker processes.

:class:`ProcessEngine` is the paper's algorithm with the compute step
remoted.  One **coordinator** (this process) owns every shared data
structure — the :class:`~repro.core.state.SchedulerState`, the edge
store, the records — and runs both of the paper's loops inline:

* Listing 2 (environment): start the next phase whenever pacing and flow
  control allow;
* Listing 1 (computation), split at the prepare/compute/commit seam of
  :class:`~repro.core.program.PairRuntime`: *prepare* ready pairs under
  the lock, ship the snapshotted contexts to each vertex's sticky worker
  (:class:`~repro.runtime.mp.lifecycle.ProcessWorkerPool`), and *commit*
  the returned outputs under the lock.

The critical-section bodies themselves are the threaded engine's:
:class:`~repro.runtime.core.ScheduleCore`.

The wire path is designed so IPC cost scales with *change*, not with
executions:

* **Run frames**: the ready backlog is kept pre-partitioned by sticky
  worker (:class:`~.frontier.ReadyFrontier`); each dispatched
  ready pair is extended into a claimed run and shipped as one
  :class:`~.protocol.RunMsg` (a single pair is a run of one), which the
  worker answers with one :class:`~.protocol.ResultBatch`.  That reply
  is committed whole — one frame each way and one critical section per
  run, and one fault behaviour whatever the run's length.  Repeated values
  inside a frame (latched inputs that did not change, successor tuples,
  recurring outputs) are interned so pickle emits them once.
* **Per-worker credit window**: at most ``window`` tasks may be in
  flight to a worker at once.  The window is adaptive — it widens
  (doubles, bounded) while the ready backlog leaves a worker starved for
  credit, and narrows when commits lag behind dispatch (a poll quantum
  passes with every credit spent and no result).  A deep window keeps
  workers fed; a shallow one bounds the coordinator's in-flight context
  memory.
* **Worker-side Δ-elision**: value-equal outputs are suppressed in the
  worker, before they are serialized; the coordinator keeps its
  commit-time latch check as an idempotent backstop.

Because the coordinator is single-threaded, its
:class:`~repro.runtime.locks.InstrumentedLock` is never contended — it
is kept so the stats schema (acquisitions, hold times) stays comparable
with the threaded engine, and so invariant checkers see the same locking
discipline: the coordinator's single lock remains the only commit point.

Correctness relies on the same argument as the serial oracle: the
scheduler never holds two phases of one vertex ready at once, vertices
are sticky to one worker, and each worker's task queue is FIFO — so
every behaviour's state evolves in strict phase order, exactly as
serially.  Credit windows only change *when* ready pairs are shipped,
never which pairs are ready, so the serializability argument is
untouched.  Final worker states are shipped back at shutdown
as :meth:`~repro.core.vertex.Vertex.snapshot_delta` payloads and applied
to the coordinator's program (whose behaviours still hold the spawn-time
baseline — compute only ever runs worker-side), keeping post-run state
consistent for ``--check``-style oracle comparisons.

Failure handling prefers the root cause, mirroring the threaded engine:
a vertex error (re-raised as
:class:`~repro.errors.VertexExecutionError`) beats a worker crash
(:class:`~repro.errors.EngineError`), which beats the wedge watchdog.
Results that arrive before the failure — including a failing run's
surviving prefix — are committed first.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ...core.invariants import InvariantChecker
from ...core.plan import ExecutionPlan, as_plan
from ...core.program import Program, RunResult
from ...core.tracer import ExecutionTracer
from ...core.vertex import VertexContext
from ...errors import EngineError, VertexExecutionError
from ...events import PhaseInput
from ..core import ScheduleCore
from ..environment import EnvironmentConfig
from ..feed import PhaseFeed
from ..locks import InstrumentedLock
from .frontier import ReadyFrontier
from .lifecycle import ProcessWorkerPool
from .protocol import (
    FinalStateMsg,
    Interner,
    ResultBatch,
    ResultMsg,
    WorkerCrashMsg,
    encode,
    run_from_contexts,
)

__all__ = ["ProcessEngine"]

_POLL_S = 0.05  # result-queue poll quantum while work is in flight
_WINDOW_CAP = 16  # widest the adaptive per-worker credit window grows


class ProcessEngine:
    """The paper's parallel algorithm on worker *processes*.

    Parameters
    ----------
    program:
        The program to execute.  Behaviours must be picklable (see
        ``tests/models/test_pickling.py``); :meth:`run` raises
        :class:`~repro.errors.EngineError` at spawn time if not.
    num_workers:
        Number of worker processes (the paper's k computation
        processors).  The coordinator rides this process, like the
        paper's environment process.
    checker:
        Optional :class:`InvariantChecker`, invoked at every state
        mutation (inside the lock).
    tracer:
        Optional :class:`ExecutionTracer`; ``execute_begin``/``end`` are
        coordinator-side timestamps (dispatch and commit), so intervals
        include queue + wire time, not just on-CPU compute.
    env:
        Environment pacing / flow control (:class:`EnvironmentConfig`).
    join_timeout:
        Watchdog: seconds without any worker progress (and at shutdown)
        before the run is declared wedged.
    start_method:
        ``multiprocessing`` start method; default is ``fork`` where
        available, else ``spawn``.
    """

    def __init__(
        self,
        program: Union[Program, ExecutionPlan],
        num_workers: int = 2,
        checker: Optional[InvariantChecker] = None,
        tracer: Optional[ExecutionTracer] = None,
        env: EnvironmentConfig = EnvironmentConfig(),
        join_timeout: float = 120.0,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise EngineError(f"num_workers must be >= 1, got {num_workers}")
        self.plan = as_plan(program)
        self.program = self.plan.program
        self.num_workers = num_workers
        self.checker = checker
        self.tracer = tracer
        self.env = env
        self.join_timeout = join_timeout
        self.start_method = start_method

    def run(
        self,
        phase_inputs: Sequence[PhaseInput],
        stop_event: object = None,
    ) -> RunResult:
        """Execute every phase; returns the :class:`RunResult`.

        With *stop_event* (any ``is_set()`` object) the coordinator stops
        admitting new phases once the event is set, drains in-flight
        work, and shuts the workers down gracefully — the result covers
        exactly the started phases.

        Raises the first vertex exception as
        :class:`~repro.errors.VertexExecutionError`, and
        :class:`EngineError` on worker crash, unpicklable program, or a
        wedged run.
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
        """Execute phases as a :class:`~repro.runtime.feed.PhaseFeed`
        delivers them; same contract as
        :meth:`repro.runtime.engine.ParallelEngine.run_feed` (incremental
        admission, optional per-phase retirement through *sink*, graceful
        *stop_event*)."""
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
        tracer = self.tracer
        core = ScheduleCore(
            self.plan,
            phase_inputs,
            self.num_workers,
            checker=self.checker,
            tracer=tracer,
            retire=retire,
            sink=sink,
        )
        runtime = core.runtime
        lock = InstrumentedLock()
        pool = ProcessWorkerPool(
            self.program,
            self.num_workers,
            start_method=self.start_method,
            elidable_succs=runtime.elidable_successor_names(),
        )

        # Ready-but-unshipped pairs, indexed by sticky worker so each
        # dispatch drain is O(pairs shipped), not O(backlog).
        pending = ReadyFrontier(pool.worker_of)
        in_flight: Dict[Tuple[int, int], VertexContext] = {}
        held: List[PhaseInput] = []  # at most one prefetched feed phase
        last_phase_start = -float("inf")
        finals: Dict[int, FinalStateMsg] = {}
        # Members of one run share latched inputs phase over phase, so a
        # run frame pickles each repeated value once.
        interner = Interner()

        def stopping() -> bool:
            return stop_event is not None and stop_event.is_set()

        # Per-worker credit windows (the adaptive in-flight window).
        windows: Dict[int, int] = {w: 1 for w in range(self.num_workers)}
        worker_load: Dict[int, int] = {w: 0 for w in range(self.num_workers)}
        window_events = {"widenings": 0, "narrowings": 0}
        window_peak = 1

        def can_start_phase() -> bool:
            if stopping():
                return False
            if feed is None and core.phases_unadmitted <= 0:
                return False
            if self.env.max_in_flight_phases is not None:
                if core.phases_in_flight >= self.env.max_in_flight_phases:
                    return False
            return time.monotonic() - last_phase_start >= self.env.pacing

        def dispatch() -> bool:
            # Drain the ready backlog per worker, respecting sticky
            # assignment and the credit windows; extend each ready pair
            # into a claimed run of prepared contexts under one lock
            # acquisition and ship the run as one frame.
            nonlocal window_peak
            if not pending:
                return False
            batches, starved = pending.drain(
                lambda w: windows[w] - worker_load[w]
            )
            for w, pairs in batches:
                for v, p in pairs:
                    with lock:
                        prepared = list(zip(*core.claim(v, p)))
                        for q, ctx in prepared:
                            if tracer is not None:
                                tracer.execute_begin((v, q), w)
                            in_flight[(v, q)] = ctx
                        run = run_from_contexts(v, prepared, interner)
                    worker_load[w] += len(prepared)
                    pool.submit_to_worker(w, encode(run))
            # Backlog left a worker starved for credit: widen.
            for w in starved:
                if windows[w] < _WINDOW_CAP:
                    windows[w] = min(_WINDOW_CAP, windows[w] * 2)
                    window_events["widenings"] += 1
                    window_peak = max(window_peak, windows[w])
            return bool(batches)

        def narrow_windows() -> None:
            # A poll quantum elapsed with no result while every credit
            # of a worker is spent: commits lag dispatch, so shrink its
            # window (bounding in-flight context memory) rather than
            # keep speculating deeper.
            for w in range(self.num_workers):
                if worker_load[w] >= windows[w] > 1:
                    windows[w] -= 1
                    window_events["narrowings"] += 1

        def commit_run(results: List[ResultMsg]) -> None:
            # One worker reply = one run's results (its surviving prefix
            # when a member failed): the members commit as one run, in
            # one critical section, one ScheduleCore.commit call.
            if not results:
                return
            worker_id, v = results[0].worker_id, results[0].vertex
            phases = [res.phase for res in results]
            with lock:
                completed = runtime.commit_remote(
                    v,
                    phases,
                    [in_flight.pop((v, q)) for q in phases],
                    [(res.outputs, res.records, res.suppressed) for res in results],
                )
                worker_load[worker_id] -= len(results)
                if tracer is not None:
                    for q in phases:
                        tracer.execute_end((v, q), worker_id)
                newly_ready, _ = core.commit(worker_id, completed)
            pending.push(newly_ready)

        def requeue_skipped(
            worker_id: int, skipped: Sequence[Tuple[int, int]]
        ) -> None:
            # Tasks a worker declined to execute (an earlier task of the
            # batch failed) are still in the coordinator's ready set:
            # put them back at the head of the worker's bucket, oldest
            # first, so a surviving run would re-dispatch them in order.
            for pair in skipped:
                in_flight.pop(pair, None)
                worker_load[worker_id] -= 1
            pending.push_front(worker_id, skipped)

        started = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            pool.start()
            last_progress = time.monotonic()
            while True:
                progressed = False
                # Listing 2, inlined: start phases as pacing and flow
                # control allow.  In feed mode each phase is registered
                # the moment the feed hands it over (incremental
                # admission); ``held`` carries at most one prefetched
                # phase from the idle wait below.
                while can_start_phase():
                    if feed is not None and not held:
                        pi = feed.get(timeout=0)
                        if pi is None:
                            break
                        held.append(pi)
                    with lock:
                        newly_ready = core.admit(1, held.pop() if held else None)
                    pending.push(newly_ready)
                    last_phase_start = time.monotonic()
                    progressed = True
                if dispatch():
                    progressed = True
                if not in_flight:
                    stream_done = (
                        core.phases_unadmitted <= 0
                        if feed is None
                        else (feed.drained and not held)
                    )
                    if (stream_done or stopping()) and core.quiescent:
                        break  # quiescent: every started phase committed
                    if progressed:
                        continue
                    if feed is not None:
                        # Idle: nothing in flight, nothing startable —
                        # park on the feed until a phase arrives or the
                        # producer closes it.  (With a phase already
                        # held, idling means flow control or pacing is
                        # gating it: sleep a tick and re-check.)
                        if not held:
                            pi = feed.get(timeout=_POLL_S)
                            if pi is not None:
                                held.append(pi)
                        else:
                            time.sleep(_POLL_S)
                        continue
                    if self.env.pacing and core.phases_unadmitted > 0:
                        # Idle only because the environment is pacing.
                        time.sleep(
                            min(
                                self.env.pacing,
                                max(
                                    0.0,
                                    last_phase_start
                                    + self.env.pacing
                                    - time.monotonic(),
                                )
                                + 1e-4,
                            )
                        )
                        continue
                    raise EngineError(
                        f"engine stalled before quiescence: in-flight "
                        f"phases {core.state.in_flight_phases()!r}"
                    )
                # Collect one result frame (bounded poll) and commit it.
                msg = pool.collect(timeout=_POLL_S)
                if msg is None:
                    dead = pool.dead_workers()
                    if dead:
                        # Give a queued crash report precedence over the
                        # bare exit code.
                        crash = pool.collect_nowait()
                        if isinstance(crash, WorkerCrashMsg):
                            raise EngineError(
                                f"worker {crash.worker_id} crashed: "
                                f"{crash.message}"
                            )
                        wid, code = dead[0]
                        raise EngineError(
                            f"worker {wid} died (exit code {code}) with "
                            f"{len(in_flight)} pairs in flight"
                        )
                    narrow_windows()
                    if time.monotonic() - last_progress > self.join_timeout:
                        raise EngineError(
                            f"run wedged: no worker result within "
                            f"{self.join_timeout}s "
                            f"({len(in_flight)} pairs in flight)"
                        )
                    continue
                last_progress = time.monotonic()
                if isinstance(msg, WorkerCrashMsg):
                    raise EngineError(
                        f"worker {msg.worker_id} crashed: {msg.message}"
                    )
                assert isinstance(msg, ResultBatch)
                if msg.skipped:
                    requeue_skipped(msg.worker_id, msg.skipped)
                results: List[ResultMsg] = []
                for res in msg.results:
                    if res.error is not None:
                        # Commit the run's surviving prefix, then surface
                        # the vertex failure as the root cause.
                        commit_run(results)
                        raise VertexExecutionError(
                            self.program.numbering.name_of(res.vertex),
                            res.phase,
                            res.error,
                        )
                    results.append(res)
                commit_run(results)
            # Graceful drain: collect final vertex state deltas and
            # apply them coordinator-side (the coordinator's behaviours
            # still hold the spawn-time baseline), so program state
            # after the run matches a serial execution.
            finals = pool.shutdown(self.join_timeout, collect_state=True)
            for final in finals.values():
                for name, delta in final.deltas.items():
                    self.program.behaviors[name].apply_delta(delta)
        except BaseException as exc:
            error = exc
            # Crash path: never mask the root cause with shutdown issues.
            pool.terminate()
            raise
        finally:
            if error is None and not finals:
                pool.terminate()  # pragma: no cover - defensive
        elapsed = time.perf_counter() - started

        wire = pool.wire.summary()
        task_frames = wire["runs"]["messages"]
        return core.result(
            f"process[w={self.num_workers}]",
            elapsed,
            {
                "num_workers": self.num_workers,
                "start_method": pool.start_method,
                "lock": lock.stats(),
                "per_worker_utilization": {
                    wid: (final.busy_s / elapsed if elapsed > 0 else 0.0)
                    for wid, final in sorted(finals.items())
                },
                "ipc_round_trips": task_frames,
                "serialization_bytes": wire,
                "ipc": {
                    "window_final": dict(sorted(windows.items())),
                    "window_peak": window_peak,
                    "window_widenings": window_events["widenings"],
                    "window_narrowings": window_events["narrowings"],
                    "task_frames": task_frames,
                    "mean_tasks_per_frame": (
                        core.state.executed_pairs / task_frames
                        if task_frames
                        else 0.0
                    ),
                    "interning": interner.summary(),
                },
            },
        )
