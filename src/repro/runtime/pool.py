"""The computation thread pool.

The paper's prototype used ``ThreadPoolExecutor`` with "one computation
thread for each processor" plus the always-present environment thread.
:class:`ComputationThreadPool` is the minimal equivalent: it runs one
callable per worker, propagates the first exception any worker raised, and
joins with a watchdog timeout so a wedged run fails loudly instead of
hanging the test suite.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from ..errors import EngineError
from .backend import OS_BACKEND, ThreadingBackend

__all__ = ["ComputationThreadPool"]


class ComputationThreadPool:
    """Runs ``target(worker_id)`` on *num_threads* daemon threads.

    Usage::

        pool = ComputationThreadPool(4, worker_loop, name="compute")
        pool.start()
        ...
        pool.join(timeout=60)
        pool.reraise()   # propagate the first worker exception, if any

    Threads come from the *backend* (default: real OS threads), so the
    deterministic test scheduler can run the same worker loops as
    cooperatively stepped tasks.
    """

    def __init__(
        self,
        num_threads: int,
        target: Callable[[int], None],
        name: str = "worker",
        backend: Optional[ThreadingBackend] = None,
    ) -> None:
        if num_threads < 1:
            raise EngineError(f"need at least one thread, got {num_threads}")
        self.num_threads = num_threads
        self._target = target
        backend = backend or OS_BACKEND
        self._threads = [
            backend.thread(target=self._run, args=(i,), name=f"{name}-{i}")
            for i in range(num_threads)
        ]
        self._errors: List[BaseException] = []
        self._error_lock = threading.Lock()

    def _run(self, worker_id: int) -> None:
        try:
            self._target(worker_id)
        except BaseException as exc:  # noqa: BLE001 - propagate to the caller
            with self._error_lock:
                self._errors.append(exc)

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def wait(self, timeout: Optional[float] = None) -> None:
        """Join every thread for at most *timeout* seconds in total
        (:meth:`any_alive` says whether that was enough)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in self._threads:
            t.join(None if deadline is None else max(0.0, deadline - time.monotonic()))

    def join(self, timeout: Optional[float] = None) -> None:
        """Join every thread.  With a *timeout*, raises
        :class:`EngineError` if any thread is still alive afterwards.

        When a worker already raised, the timeout error names and chains
        that exception (``__cause__``; also on the ``worker_errors``
        attribute): a crashed worker that wedges a sibling is reported by
        its root cause, not just the wedge.
        """
        self.wait(timeout)
        stuck = [t.name for t in self._threads if t.is_alive()]
        if stuck:
            with self._error_lock:
                errors = list(self._errors)
            message = f"threads failed to terminate: {stuck!r}"
            if errors:
                message += (
                    f" (after worker error: {type(errors[0]).__name__}: "
                    f"{errors[0]})"
                )
            exc = EngineError(message)
            exc.worker_errors = errors  # type: ignore[attr-defined]
            if errors:
                raise exc from errors[0]
            raise exc

    def reraise(self) -> None:
        """Re-raise the first exception any worker raised (if any)."""
        with self._error_lock:
            if self._errors:
                raise self._errors[0]

    @property
    def errors(self) -> List[BaseException]:
        with self._error_lock:
            return list(self._errors)

    def any_alive(self) -> bool:
        return any(t.is_alive() for t in self._threads)
