"""The single global lock, instrumented.

Section 3.2: "A lock is used to guarantee that each thread has exclusive
access to the data structures while updating them."  Section 4 attributes
the sub-linear two-thread speedup to "the number of threads contending for
the data structures" — so the lock records exactly the quantities that
argument needs:

* how many acquisitions there were and how many of them *contended*
  (found the lock held);
* cumulative wait time (time spent blocked acquiring);
* cumulative hold time (time spent inside critical sections).

The engine reports these in :attr:`RunResult.stats`.  The simulator
models the same lock to locate the compute-grain crossover the paper
predicts ("as long as the computations performed by the vertices take
significantly more time than the computations performed to maintain the
data structures, the speedup will be close to linear"), which
``tests/test_paper_figures.py::TestSection4Speedup`` pins.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from .backend import OS_BACKEND, ThreadingBackend

__all__ = ["InstrumentedLock"]


class InstrumentedLock:
    """A mutual-exclusion lock with contention statistics.

    Usable as a context manager::

        lock = InstrumentedLock()
        with lock:
            ...critical section...

    Statistics are themselves guarded by a tiny internal meta-lock so they
    stay consistent under concurrency; the overhead is two lock operations
    per acquisition, negligible next to the scheduler bookkeeping.

    The underlying lock comes from the *backend* (default: real threads),
    so the deterministic test scheduler can substitute a virtual lock; the
    meta-lock stays a real ``threading.Lock`` because statistics updates
    never block and must not become scheduling points.
    """

    def __init__(
        self,
        clock=time.perf_counter,
        backend: Optional[ThreadingBackend] = None,
    ) -> None:
        self._lock = (backend or OS_BACKEND).lock()
        self._meta = threading.Lock()
        self._clock = clock
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_time = 0.0
        self.total_hold_time = 0.0
        self._acquired_at = 0.0

    def acquire(self) -> None:
        if self._lock.acquire(blocking=False):
            with self._meta:
                self.acquisitions += 1
            self._acquired_at = self._clock()
            return
        start = self._clock()
        self._lock.acquire()
        waited = self._clock() - start
        with self._meta:
            self.acquisitions += 1
            self.contended_acquisitions += 1
            self.total_wait_time += waited
        self._acquired_at = self._clock()

    def release(self) -> None:
        held = self._clock() - self._acquired_at
        self._lock.release()
        with self._meta:
            self.total_hold_time += held

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def stats(self) -> Dict[str, Any]:
        """Snapshot of the contention statistics."""
        with self._meta:
            return {
                "acquisitions": self.acquisitions,
                "contended_acquisitions": self.contended_acquisitions,
                "contention_ratio": (
                    self.contended_acquisitions / self.acquisitions
                    if self.acquisitions
                    else 0.0
                ),
                "total_wait_time": self.total_wait_time,
                "total_hold_time": self.total_hold_time,
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"InstrumentedLock(acquisitions={s['acquisitions']}, "
            f"contended={s['contended_acquisitions']}, "
            f"wait={s['total_wait_time']:.6f}s, hold={s['total_hold_time']:.6f}s)"
        )
