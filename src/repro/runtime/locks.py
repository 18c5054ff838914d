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

    The statistics are updated only while the lock is held, so the lock
    they describe also keeps them consistent: a section costs one
    acquire, one release and two clock readings (three when contended).

    The underlying lock comes from the *backend* (default: real threads),
    so the deterministic test scheduler can substitute a virtual lock.
    """

    def __init__(
        self,
        clock=time.perf_counter,
        backend: Optional[ThreadingBackend] = None,
    ) -> None:
        self._lock = (backend or OS_BACKEND).lock()
        self._clock = clock
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_time = 0.0
        self.total_hold_time = 0.0
        self._acquired_at = 0.0

    def acquire(self) -> None:
        if self._lock.acquire(blocking=False):
            self.acquisitions += 1
            self._acquired_at = self._clock()
            return
        start = self._clock()
        self._lock.acquire()
        self._acquired_at = now = self._clock()
        self.acquisitions += 1
        self.contended_acquisitions += 1
        self.total_wait_time += now - start

    def release(self) -> None:
        self.total_hold_time += self._clock() - self._acquired_at
        self._lock.release()

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def stats(self) -> Dict[str, Any]:
        """Snapshot of the contention statistics.

        Taken without the lock: call it once the threads that take the
        lock have finished, as the engines do after joining theirs.
        """
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
