"""The process port: the worker processes and what the coordinator keeps
of them.

:class:`ProcessWorkerPool` is the driver's away port
(:mod:`repro.runtime.driver`) on worker processes.  It spawns, prices,
sends to, collects from and shuts down the workers:

* **Spawn** — one ``multiprocessing`` process per worker, each with its
  own task queue plus one shared result queue.  A worker starts empty:
  nothing about the program crosses at spawn, and a vertex's behaviour
  reaches its worker only when the coordinator promotes it, riding the
  vertex's first :class:`~.protocol.RunMsg`.  The driver sends vertex
  *v*'s runs to worker ``(v - 1) % workers``.  The start method defaults
  to ``fork`` where available (cheap on Linux) and ``spawn`` elsewhere;
  the coordinator never waits for a boot — a frame sent to a worker that
  is still starting waits in its FIFO task queue.
* **Price** — a trip is marshalling CPU on :data:`_clock`: build, encode
  and queue a run frame (``send``); receive and decode its reply
  (``recv``, ``None`` before the first).  Until a frame is shipped,
  ``send`` is what encoding and decoding the longest run so far
  (``priced`` members) unsent cost; a run that does not encode is no
  sample.
* **Graceful shutdown** — a :class:`~.protocol.ShutdownMsg` per worker,
  then a join with watchdog timeout; the workers' parting
  :class:`~.protocol.FinalStateMsg` frames (the promoted vertices'
  states, busy-seconds) are restored into the coordinator's copies.
* **Crash shutdown** — :meth:`abort` kills outright; used when the run
  already failed and the root cause must not be masked by a wedged
  drain (the error-preference discipline of the threaded engine's
  shutdown path).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from ...core.program import PairRuntime, Program
from ...core.vertex import VertexContext
from ...errors import EngineError, VertexExecutionError
from .protocol import (
    FinalStateMsg,
    ResultBatch,
    ShutdownMsg,
    WireStats,
    WorkerCrashMsg,
    decode,
    encode,
    run_from_contexts,
)
from .worker import _describe_pickle_failure, worker_main

__all__ = ["ProcessWorkerPool"]

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


class ProcessWorkerPool:
    """The driver's away port on *num_workers* worker processes.

    Parameters
    ----------
    program:
        The program whose promoted vertices ship, and into whose
        behaviours the workers' final states are restored.
    num_workers:
        Worker process count (the paper's k computation processors).
    join_timeout:
        Seconds :meth:`close` waits for every worker's final state.
    start_method:
        ``fork`` / ``spawn`` / ``forkserver``; default per platform.
    """

    def __init__(
        self, program: Program, num_workers: int, join_timeout: float,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise EngineError(f"num_workers must be >= 1, got {num_workers}")
        self.workers = num_workers
        self.clock = _clock
        self.start_method = start_method or (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._ctx = mp.get_context(self.start_method)
        self.wire = WireStats()
        self._program = program
        self._join_timeout = join_timeout
        # Started workers only, in worker-id order: a worker whose start
        # failed is never joined or killed.
        self._task_queues: List[Any] = []
        self._processes: List[Any] = []
        self.result_queue: Any = None
        self._in_flight: Dict[Tuple[int, int], VertexContext] = {}
        self._shipped: Set[int] = set()  # promoted, behaviour on the wire
        self._send: Price = (0.0, 0.0)
        self._recv: Optional[Price] = None
        self._priced = 0
        self._shipped_members = 0
        self._finals: Dict[int, FinalStateMsg] = {}

    def start(self, runtime: PairRuntime) -> None:
        """Spawn every worker, empty.  If one fails to start, its
        exception propagates and :meth:`abort` stops the ones that did."""
        self.result_queue = self._ctx.Queue()
        for worker_id in range(self.workers):
            task_queue = self._ctx.Queue()
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, task_queue, self.result_queue),
                name=f"repro-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            self._task_queues.append(task_queue)
            self._processes.append(process)

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
        # the behaviour itself, as the resident runs left it — metered
        # under "runs".
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
        self.wire.count("runs", frame)
        self._task_queues[w].put(frame)
        self._send = _rescaled(self._send, self.clock() - began, len(prepared))
        self._shipped_members += len(prepared)

    def _receive(self, timeout: float) -> Optional[object]:
        # The next worker message within *timeout* seconds (0: only one
        # already queued), or None.  Its bytes are metered under the
        # class of the decoded message, so every received byte lands in
        # exactly one class: a crash report stands in for a reply.
        try:
            frame = self.result_queue.get(timeout=timeout)
        except queue_mod.Empty:
            return None
        msg = decode(frame)
        self.wire.count(
            "final_state" if isinstance(msg, FinalStateMsg) else "result_batches",
            frame,
        )
        return msg

    def collect(self, timeout: float):
        # One worker frame: a run's reply, or a crash report.  A reply
        # ends at its error entry: the members behind it, which never
        # ran, are never dispatched again.
        began = self.clock()
        msg = self._receive(timeout)
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

    def _dead(self) -> List[Tuple[int, Optional[int]]]:
        # (worker_id, exitcode) for every worker that has died.
        return [
            (i, p.exitcode)
            for i, p in enumerate(self._processes)
            if not p.is_alive() and p.exitcode is not None
        ]

    def check(self) -> None:
        dead = self._dead()
        if dead:
            # Give a queued crash report precedence over the bare exit code.
            crash = self._receive(0)
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
        self._finals = self.shutdown(self._join_timeout)
        for final in self._finals.values():
            for name, state in final.states.items():
                self._program.behaviors[name].restore_state(state)

    def shutdown(self, timeout: float) -> Dict[int, FinalStateMsg]:
        """Graceful drain: ask every worker to exit, gather final states.

        Returns the :class:`~.protocol.FinalStateMsg` per worker id.
        Raises :class:`~repro.errors.EngineError` if a worker fails to
        answer or exit within *timeout* — after killing the rest so no
        process outlives the engine.
        """
        if not self._processes:
            return {}
        shutdown_frame = encode(ShutdownMsg())
        for task_queue in self._task_queues:
            self.wire.count("shutdown", shutdown_frame)
            task_queue.put(shutdown_frame)
        finals: Dict[int, FinalStateMsg] = {}
        deadline = time.monotonic() + timeout
        while len(finals) < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = sorted(set(range(self.workers)) - set(finals))
                self.abort()
                raise EngineError(
                    f"workers {missing!r} failed to shut down within "
                    f"{timeout}s"
                )
            msg = self._receive(min(remaining, 0.5))
            if msg is None:
                dead = [(i, code) for i, code in self._dead() if i not in finals]
                if dead:
                    self.abort()
                    raise EngineError(f"workers died during shutdown: {dead!r}")
                continue
            if isinstance(msg, FinalStateMsg):
                finals[msg.worker_id] = msg
            # Stale result frames from an aborted run are drained and
            # dropped here; crash messages surface as missing finals.
        self._join_all(max(0.0, deadline - time.monotonic()) + 1.0)
        return finals

    def abort(self) -> None:
        """Kill every worker immediately (crash path)."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        self._join_all(5.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
        # Unblock multiprocessing feeder threads so interpreter exit is
        # clean even after a hard terminate.
        for q in [*self._task_queues, self.result_queue]:
            if q is not None:
                q.cancel_join_thread()

    def _join_all(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for process in self._processes:
            process.join(max(0.0, deadline - time.monotonic()))

    def stats(self, elapsed: float, moved: List[str]) -> dict:
        wire = self.wire.summary()
        task_frames = wire["runs"]["messages"]
        return {
            "num_workers": self.workers,
            "start_method": self.start_method,
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
