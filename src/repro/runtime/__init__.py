"""Runtime layer: the multithreaded engine of Section 3.2 / Section 4.

The paper's prototype used ``java.util.concurrent``'s ``Lock``,
``Condition``, ``BlockingQueue`` and ``ThreadPoolExecutor``; this package
provides the equivalent substrate built on :mod:`threading` —

* :class:`~repro.runtime.blocking_queue.BlockingQueue` — the run queue
  (blocking dequeue, at-most-once per item, poison-free close protocol);
* :class:`~repro.runtime.locks.InstrumentedLock` — the single global lock,
  with contention / hold-time statistics for the Section 4 analysis;
* :class:`~repro.runtime.pool.ComputationThreadPool` — worker threads;
* :class:`~repro.runtime.feed.PhaseFeed` — what the environment process
  (Listing 2) starts phases from: a live stream, or a batch closed
  before the run begins;
* :class:`~repro.runtime.core.ScheduleCore` — the Listing 1 / Listing 2
  critical-section bodies (admit / claim / commit / result), shared by
  every engine;
* :class:`~repro.runtime.engine.ParallelEngine` — the full algorithm;
* :class:`~repro.runtime.mp.ProcessEngine` — the same algorithm on worker
  *processes* (true shared-memory parallelism past the GIL; see
  :mod:`repro.runtime.mp`).  It is not re-exported here: importing it
  loads :mod:`multiprocessing`, which a threaded engine never needs.
"""

from .blocking_queue import BlockingQueue
from .locks import InstrumentedLock
from .pool import ComputationThreadPool
from .feed import PhaseFeed
from .core import ScheduleCore
from .engine import ParallelEngine

__all__ = [
    "BlockingQueue",
    "InstrumentedLock",
    "ComputationThreadPool",
    "PhaseFeed",
    "ScheduleCore",
    "ParallelEngine",
]
