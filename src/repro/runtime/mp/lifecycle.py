"""Worker-pool lifecycle: spawn, sticky assignment, shutdown.

:class:`ProcessWorkerPool` owns the OS side of the process backend:

* **Spawn** — one ``multiprocessing`` process per worker, each with its
  own task queue plus one shared result queue.  A worker starts empty:
  nothing about the program crosses at spawn, and a vertex's behaviour
  reaches its worker only when the coordinator promotes it, riding the
  vertex's first :class:`~.protocol.RunMsg`.  Vertices are assigned
  round-robin by numbering index (``worker_of(v) = (v - 1) % W``).  The
  start method defaults to ``fork`` where available (cheap on Linux) and
  ``spawn`` elsewhere; the coordinator never waits for a boot — a frame
  sent to a worker that is still starting waits in its FIFO task queue.
* **Graceful shutdown** — a :class:`~.protocol.ShutdownMsg` per worker,
  then a join with watchdog timeout; the workers' parting
  :class:`~.protocol.FinalStateMsg` frames (the promoted vertices'
  states, busy-seconds) are collected for the engine.
* **Crash shutdown** — :meth:`terminate` kills outright; used when the
  run already failed and the root cause must not be masked by a wedged
  drain (the error-preference discipline of the threaded engine's
  shutdown path).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from typing import Any, Dict, List, Optional, Tuple

from ...errors import EngineError
from .protocol import (
    FinalStateMsg,
    ShutdownMsg,
    WireStats,
    decode,
    encode,
    traffic_class_of,
)
from .worker import worker_main

__all__ = ["ProcessWorkerPool", "default_start_method"]


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class ProcessWorkerPool:
    """N worker processes with sticky vertex assignment.

    Parameters
    ----------
    num_workers:
        Worker process count (the paper's k computation processors).
    start_method:
        ``fork`` / ``spawn`` / ``forkserver``; default per platform.
    """

    def __init__(
        self, num_workers: int, start_method: Optional[str] = None
    ) -> None:
        if num_workers < 1:
            raise EngineError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.start_method = start_method or default_start_method()
        self._ctx = mp.get_context(self.start_method)
        self.wire = WireStats()
        # Started workers only, in worker-id order: a worker whose start
        # failed is never joined or killed.
        self._task_queues: List[Any] = []
        self._processes: List[Any] = []
        self.result_queue: Any = None

    # -- assignment ------------------------------------------------------

    def worker_of(self, v: int) -> int:
        """The worker that owns vertex index *v* (sticky, round-robin)."""
        return (v - 1) % self.num_workers

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker, empty.  If one fails to start, its
        exception propagates and :meth:`terminate` stops the ones that
        did."""
        self.result_queue = self._ctx.Queue()
        for worker_id in range(self.num_workers):
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

    def submit_to_worker(self, worker_id: int, frame: bytes) -> None:
        """Send an encoded :class:`~.protocol.RunMsg` to *worker_id*'s
        task queue, metering its bytes under ``"runs"``."""
        self.wire.count("runs", frame)
        self._task_queues[worker_id].put(frame)

    def collect(self, timeout: float) -> Optional[object]:
        """Next worker message within *timeout* seconds (0: only one
        already queued), or ``None``.

        The frame's bytes are metered under the class of the *decoded*
        message (result_batches / final_state), so every received byte
        lands in exactly one class."""
        try:
            frame = self.result_queue.get(timeout=timeout)
        except queue_mod.Empty:
            return None
        msg = decode(frame)
        self.wire.count(traffic_class_of(msg), frame)
        return msg

    def dead_workers(self) -> List[Tuple[int, Optional[int]]]:
        """``(worker_id, exitcode)`` for every worker that has died."""
        return [
            (i, p.exitcode)
            for i, p in enumerate(self._processes)
            if not p.is_alive() and p.exitcode is not None
        ]

    def shutdown(self, timeout: float) -> Dict[int, FinalStateMsg]:
        """Graceful drain: ask every worker to exit, gather final states.

        Returns the :class:`~.protocol.FinalStateMsg` per worker id.
        Raises :class:`~repro.errors.EngineError` if a worker fails to
        answer or exit within *timeout* — after terminating the rest so
        no process outlives the engine.
        """
        if not self._processes:
            return {}
        shutdown_frame = encode(ShutdownMsg())
        for task_queue in self._task_queues:
            self.wire.count("shutdown", shutdown_frame)
            task_queue.put(shutdown_frame)
        finals: Dict[int, FinalStateMsg] = {}
        deadline = time.monotonic() + timeout
        while len(finals) < self.num_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = sorted(
                    set(range(self.num_workers)) - set(finals)
                )
                self.terminate()
                raise EngineError(
                    f"workers {missing!r} failed to shut down within "
                    f"{timeout}s"
                )
            msg = self.collect(timeout=min(remaining, 0.5))
            if msg is None:
                if self.dead_workers() and len(finals) < self.num_workers:
                    dead = [
                        (i, code)
                        for i, code in self.dead_workers()
                        if i not in finals
                    ]
                    if dead:
                        self.terminate()
                        raise EngineError(
                            f"workers died during shutdown: {dead!r}"
                        )
                continue
            if isinstance(msg, FinalStateMsg):
                finals[msg.worker_id] = msg
            # Stale result frames from an aborted run are drained and
            # dropped here; crash messages surface as missing finals.
        self._join_all(max(0.0, deadline - time.monotonic()) + 1.0)
        return finals

    def terminate(self) -> None:
        """Kill every worker immediately (crash path)."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        self._join_all(5.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
        self._drain_queues()

    def _join_all(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for process in self._processes:
            process.join(max(0.0, deadline - time.monotonic()))

    def _drain_queues(self) -> None:
        # Unblock multiprocessing feeder threads so interpreter exit is
        # clean even after a hard terminate.
        for q in [*self._task_queues, self.result_queue]:
            if q is None:
                continue
            try:
                q.cancel_join_thread()
            except (AttributeError, OSError):  # pragma: no cover
                pass
