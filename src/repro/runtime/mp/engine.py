"""The process-parallel engine: coordinator loop + worker processes.

:class:`ProcessEngine` is the paper's algorithm with the compute step
remoted *where that pays*.  One **coordinator** (this process) owns every
shared data structure — the :class:`~repro.core.state.SchedulerState`,
the edge store, the records — and runs both of the paper's loops inline:

* Listing 2 (environment): start every phase its
  :class:`~repro.runtime.feed.PhaseFeed` holds that flow control allows,
  the whole backlog in one burst (a batch :meth:`~ProcessEngine.run` is
  a feed that closed before the run began);
* Listing 1 (computation), split at the prepare/compute/commit seam of
  :class:`~repro.core.program.PairRuntime`: *prepare* a ready run,
  compute it, and *commit* its outputs; a lone phase with every vertex
  resident is *swept* instead, as the oracle runs it (§5.8) — by the
  producer's own thread, inside its ``PhaseFeed.put``, when the phase
  arrives alone at an idle coordinator.

The critical-section bodies themselves are the threaded engine's:
:class:`~repro.runtime.core.ScheduleCore`, called without the paper's
lock: that lock gives each process exclusive access to the shared
structures while it updates them (Section 3.2), and here one thread at a
time touches them — the coordinator, which holds a driver lock except
while it is parked idle on its feed, or a producer that took that lock
to run a lone phase.  So a resident run costs what ``ScheduleCore``
costs, plus one placement-clock reading on each side of its compute and
one trip price.

**Where a run computes is measured, not configured**
(docs/ARCHITECTURE.md §5.8): a trip to a worker is this engine's
dearest bookkeeping.  Every vertex starts *resident*: the coordinator,
worker ``num_workers`` of its own ``ScheduleCore``, claims its ready
runs, computes and commits them, no frame built, and settles each with
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

Correctness relies on the same argument as the serial oracle: the
scheduler never holds two phases of one vertex ready at once, a vertex
executes in one place at a time (here, then — after its state has moved,
FIFO ahead of the first member that needs it — on one worker), so every
behaviour's state evolves in strict phase order, exactly as serially.
Placement only changes *where* and *when* ready pairs execute, never
which pairs are ready.  At shutdown the promoted vertices' states come
back as :meth:`~repro.core.vertex.Vertex.snapshot_state` payloads and
are restored into the coordinator's copies, so post-run program state
matches a serial execution.

Failure handling prefers the root cause, mirroring the threaded engine:
a vertex error, resident or remote (:class:`~repro.errors.VertexExecutionError`
naming the vertex and the exact phase) beats a worker crash
(:class:`~repro.errors.EngineError`), which beats the wedge watchdog.
Results that precede the failure — a failing run's surviving prefix
included — are committed first.  Only frames are pickled: a run frame
that does not encode raises
:class:`~repro.errors.VertexExecutionError` at the run's head phase,
and a vertex that never leaves the coordinator need not pickle at all.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...core.invariants import InvariantChecker
from ...core.program import Program, RunResult
from ...core.state import ADAPTIVE_RUN_CEILING, Pair
from ...core.tracer import ExecutionTracer
from ...core.vertex import VertexContext
from ...errors import EngineError, VertexExecutionError
from ...events import PhaseInput
from ..core import DRAIN, Placement, ScheduleCore
from ..feed import PhaseFeed
from .lifecycle import ProcessWorkerPool
from .protocol import (
    ResultBatch,
    ResultMsg,
    WorkerCrashMsg,
    decode,
    encode,
    run_from_contexts,
)
from .worker import _describe_pickle_failure

__all__ = ["ProcessEngine"]

_POLL_S = 0.05  # result-queue poll quantum while work is in flight
_START_BURST = ADAPTIVE_RUN_CEILING  # most phases one admission starts
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


class ProcessEngine:
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
        Watchdog: seconds without a worker frame or a resident commit
        (and at shutdown) before the run is declared wedged.
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
        if num_workers < 1:
            raise EngineError(f"num_workers must be >= 1, got {num_workers}")
        if max_in_flight_phases is not None and max_in_flight_phases < 1:
            raise EngineError(
                f"max_in_flight_phases must be >= 1 or None, "
                f"got {max_in_flight_phases}"
            )
        self.program = program
        self.num_workers = num_workers
        self.checker = checker
        self.tracer = tracer
        self.max_in_flight_phases = max_in_flight_phases
        self.join_timeout = join_timeout
        self.start_method = start_method

    def run(
        self,
        phase_inputs: Sequence[PhaseInput],
        stop_event: object = None,
    ) -> RunResult:
        """Execute every phase; returns the :class:`RunResult`.

        The phases go into a :class:`~repro.runtime.feed.PhaseFeed` that
        is closed before the run begins: the same admission path as
        :meth:`run_feed`.

        With *stop_event* (any ``is_set()`` object) the coordinator stops
        admitting new phases once the event is set, drains in-flight
        work, and shuts the workers down gracefully — the result covers
        exactly the started phases.

        Raises the first vertex exception, or a run frame that does not
        pickle, as :class:`~repro.errors.VertexExecutionError`, and
        :class:`EngineError` on worker crash or a wedged run.
        """
        return self._execute(PhaseFeed.of(phase_inputs), stop_event=stop_event)

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
        *stop_event*).  An open feed blocks on a real condition variable;
        a closed one never does."""
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
        clock = _clock
        # The coordinator executes runs too: it is worker ``num_workers``
        # in the per-worker execution counts.
        me = self.num_workers
        core = ScheduleCore(
            self.program,
            self.num_workers + 1,
            checker=self.checker,
            tracer=self.tracer,
            retire=retire,
            sink=sink,
        )
        runtime = core.runtime
        pool = ProcessWorkerPool(self.num_workers, self.start_method)

        # Ready pairs: of promoted vertices, to ship; of resident
        # vertices, which the coordinator executes itself.
        ship: Deque[Pair] = deque()
        mine: Deque[Pair] = deque()
        in_flight: Dict[Pair, VertexContext] = {}
        held: List[PhaseInput] = []  # at most one prefetched feed phase

        # Every vertex starts resident (ScheduleCore has just reset the
        # program: this process holds exactly the initial state).
        placement = Placement(self.program.numbering.n)
        shipped: Set[int] = set()  # promoted, behaviour on the wire
        # The trip's price in marshalling CPU: build, encode and queue a
        # run frame (``send``); receive and decode its reply (``recv``,
        # None before the first).  Until a frame is shipped, ``send`` is
        # what encoding and decoding the longest run so far (``priced``
        # members) unsent cost; a run that does not encode is no sample.
        send: Price = (0.0, 0.0)
        recv: Optional[Price] = None
        priced = 0
        shipped_members = 0
        drain = dict.fromkeys(DRAIN, 0)
        # This thread holds the driver lock except while it is parked on
        # the empty open feed: only then may a producer run a phase on
        # its own thread (``hand``); what failed there is raised here.
        driver = threading.Lock()
        parked = False
        failed: List[BaseException] = []
        last_drive = 0.0  # how long the last producer-driven phase took

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
            window = self.max_in_flight_phases
            return window is None or core.phases_in_flight < window

        def admit_burst() -> bool:
            # Listing 2, inlined: start the backlog the feed holds
            # (``held``: at most one phase the idle wait prefetched), as
            # far as flow control allows, in one burst: one horizon to
            # coalesce over.  The feed is taken only when its depth says
            # it holds a phase.
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

        def marshalled(v: int, prepared: List[Tuple[int, VertexContext]]) -> float:
            # Encode and decode a run frame, unsent.
            began = clock()
            decode(encode(run_from_contexts(v, prepared)))
            return clock() - began

        def trip(n: int) -> float:
            return _cost(send, n) + (_cost(recv, n) if recv else 0.0)

        def price(v: int, phases: List[int], ctxs: List[VertexContext]) -> float:
            nonlocal send, priced
            n = len(phases)
            if not shipped_members and n > priced:
                # Nothing shipped, and no run this long priced: marshal
                # its head alone and then all of it, unsent.  The very
                # first frame pays for warming pickle's caches (~100 us,
                # five frames' worth) once: it is marshalled twice.
                prepared = list(zip(phases, ctxs))
                try:
                    if not priced:
                        marshalled(v, prepared[:1])
                    head = marshalled(v, prepared[:1])
                    whole = marshalled(v, prepared) if n > 1 else head
                except Exception:  # noqa: BLE001 - no price sample
                    pass
                else:
                    send, priced = _fit(head, whole, n), n
            return trip(n)

        def run_resident(v: int, p: int) -> None:
            # Listing 1's body with no wire in it — and what computing
            # cost, compared with what shipping would have.
            phases, ctxs = core.claim(me, v, p)
            drain["inline_runs"] += 1
            n = len(phases)
            # A staked run stops once it has cost shipping all of it.
            cost = price(v, phases, ctxs)
            staked = placement.staked(v)
            failure: Optional[VertexExecutionError] = None
            began = clock()
            try:
                executed = runtime.compute(
                    v, ctxs, (lambda: clock() - began >= cost) if staked else None
                )
            except VertexExecutionError as exc:
                failure, executed = exc, phases.index(exc.phase)
            placement.settle(v, clock() - began, cost if executed == n else trip(executed))
            done = phases[:executed]
            completed = runtime.commit(v, done, ctxs)
            place(core.commit(me, completed)[0])
            if failure is not None:
                raise failure
            if executed < n:
                # The tail keeps its claims; its head is dispatched again,
                # to wherever the vertex now lives.
                drain["handovers"] += 1
                place([(v, phases[executed])])

        def compute_swept(v: int, ctxs: List[VertexContext]) -> None:
            cost = trip(1) if priced else price(v, [ctxs[0].phase], ctxs)
            began = clock()
            runtime.compute(v, ctxs)
            placement.settle(v, clock() - began, cost)

        def sweep() -> None:
            drain["inline_runs"] += core.sweep(me, compute_swept)
            drain["swept_phases"] += 1

        def run_here() -> None:
            # A lone phase with every vertex resident (so nothing is in
            # flight or to ship) is swept, each pair a run of one judged as
            # run_resident judges it; else the next ready pair runs.
            if placement.moved or core.phases_in_flight != 1:
                run_resident(*mine.popleft())
                return
            mine.clear()
            sweep()

        def hand(pi: PhaseInput) -> bool:
            # A producer's lone phase, on the producer's thread: admitted
            # and swept there if this thread is parked idle (quiescent,
            # nothing promoted, held or stopping) and has been idle at
            # least as long as the last such drive took.  A producer that
            # comes back sooner is ahead of the engine: it hands off, and
            # its backlog coalesces.
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

        def dispatch() -> bool:
            # Claim each ready pair of a promoted vertex into a run of
            # prepared contexts and ship the run as one frame to the
            # vertex's sticky worker — the first time, with the behaviour
            # itself, as the resident runs left it.
            nonlocal send, shipped_members
            if not ship:
                return False
            while ship:
                v, p = ship.popleft()
                w = pool.worker_of(v)
                prepared = list(zip(*core.claim(w, v, p)))
                in_flight.update(((v, q), ctx) for q, ctx in prepared)
                began = clock()
                behavior = None
                if v not in shipped:
                    shipped.add(v)
                    behavior = self.program.behavior(v)
                run = run_from_contexts(v, prepared, behavior)
                try:
                    frame = encode(run)
                except Exception as exc:  # noqa: BLE001 - any pickling failure
                    raise VertexExecutionError(
                        run.name,
                        prepared[0][0],
                        "run not picklable: " + _describe_pickle_failure(exc),
                    ) from exc
                pool.submit_to_worker(w, frame)
                send = _rescaled(send, clock() - began, len(prepared))
                shipped_members += len(prepared)
                drain["pooled_runs"] += 1
            return True

        def commit_run(w: int, v: int, results: Sequence[ResultMsg]) -> None:
            # One worker reply = one run's results (its surviving prefix
            # when a member failed), committed whole.
            if not results:
                return
            phases = [res.phase for res in results]
            ctxs = [in_flight.pop((v, q)) for q in phases]
            replies = [(res.outputs, res.records) for res in results]
            completed = runtime.commit_remote(v, phases, ctxs, replies)
            place(core.commit(w, completed)[0])

        def receive(msg: object) -> None:
            # One worker frame: a run's reply, or a crash report.  A reply
            # ends at its error entry: the run raises below, and the
            # members behind it, which never ran, are never dispatched
            # again.
            if isinstance(msg, WorkerCrashMsg):
                raise EngineError(
                    f"worker {msg.worker_id} crashed: {msg.message}"
                )
            assert isinstance(msg, ResultBatch)
            results = msg.results
            if results and results[-1].error is not None:
                # Commit the run's surviving prefix, then surface the
                # vertex failure as the root cause.
                failed = results[-1]
                commit_run(msg.worker_id, msg.vertex, results[:-1])
                raise VertexExecutionError(
                    self.program.numbering.name_of(msg.vertex),
                    failed.phase,
                    failed.error,
                )
            commit_run(msg.worker_id, msg.vertex, results)

        started = time.perf_counter()
        driver.acquire()
        feed.hand = hand
        try:
            pool.start()
            last_progress = time.monotonic()
            while True:
                progressed = False
                while admit_burst():
                    progressed = True
                if dispatch():
                    progressed = True
                if in_flight:
                    # Replies first, so workers stay fed; block for one
                    # only with no run to execute here meanwhile.
                    began = clock()
                    msg = pool.collect(timeout=0 if mine else _POLL_S)
                    if msg is not None:
                        if isinstance(msg, ResultBatch) and msg.results:
                            # A first reply takes the send price's split.
                            recv = _rescaled(
                                recv or send, clock() - began, len(msg.results)
                            )
                        last_progress = time.monotonic()
                        receive(msg)
                        continue
                    if not mine:
                        dead = pool.dead_workers()
                        if dead:
                            # Give a queued crash report precedence over
                            # the bare exit code.
                            crash = pool.collect(timeout=0)
                            if isinstance(crash, WorkerCrashMsg):
                                receive(crash)
                            wid, code = dead[0]
                            raise EngineError(
                                f"worker {wid} died (exit code {code}) with "
                                f"{len(in_flight)} pairs in flight"
                            )
                        if time.monotonic() - last_progress > self.join_timeout:
                            raise EngineError(
                                f"run wedged: no progress within "
                                f"{self.join_timeout}s "
                                f"({len(in_flight)} pairs in flight)"
                            )
                        continue
                if mine:
                    # With nothing in flight, the resident backlog runs
                    # through without re-entering admission and dispatch,
                    # until a commit readies a pair to ship.
                    run_here()
                    while mine and not ship and not in_flight:
                        run_here()
                    last_progress = time.monotonic()  # once per burst
                    continue
                if progressed:
                    continue
                if not core.quiescent:
                    # Nothing in flight, nothing to run here, nothing
                    # left to dispatch: no commit can ever complete the
                    # started phases, whatever the feed does next.
                    raise EngineError(
                        f"engine stalled before quiescence: in-flight "
                        f"phases {core.state.in_flight_phases()!r}"
                    )
                # Quiescent, so flow control admitted anything held: only
                # a stop request leaves a phase there.
                if feed.drained or stopping():
                    break  # every started phase committed
                # Idle: park on the feed until a phase arrives or the
                # producer closes it; a lone phase may run meanwhile on
                # the producer's thread.
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
            # Graceful drain: restore the promoted vertices' final states
            # into this process's copies: post-run state matches serial.
            finals = pool.shutdown(self.join_timeout)
            for final in finals.values():
                for name, state in final.states.items():
                    self.program.behaviors[name].restore_state(state)
        except BaseException:
            # Crash path: never mask the root cause with shutdown issues.
            pool.terminate()
            raise
        finally:
            feed.hand = None
            driver.release()
        elapsed = time.perf_counter() - started

        wire = pool.wire.summary()
        task_frames = wire["runs"]["messages"]
        return core.result(
            f"process[w={self.num_workers}]",
            elapsed,
            {
                "num_workers": self.num_workers,
                "start_method": pool.start_method,
                "per_worker_utilization": {
                    wid: (final.busy_s / elapsed if elapsed > 0 else 0.0)
                    for wid, final in sorted(finals.items())
                },
                "ipc_round_trips": task_frames,
                "serialization_bytes": wire,
                "drain": drain,
                "ipc": {
                    "task_frames": task_frames,
                    "mean_tasks_per_frame": (
                        shipped_members / task_frames if task_frames else 0.0
                    ),
                    "promoted": [
                        self.program.numbering.name_of(v) for v in placement.moved
                    ],
                },
            },
        )
