"""Runtime layer: the engines of Section 3.2 / Section 4.

Both real engines run one driver — a coordinator that is the only caller
of the scheduling core — and differ only in where it hands the runs of
the vertices it does not execute itself:

* :class:`~repro.runtime.feed.PhaseFeed` — what the coordinator starts
  phases from (Listing 2): a live stream, or a batch closed before the
  run begins;
* :class:`~repro.runtime.core.ScheduleCore` — the Listing 1 / Listing 2
  critical-section bodies (admit / claim / commit / sweep / result),
  shared by every engine;
* :mod:`~repro.runtime.driver` — the coordinator loop over an *away*
  port;
* :class:`~repro.runtime.engine.ParallelEngine` — the coordinator over
  executor threads, which take runs from a
  :class:`~repro.runtime.blocking_queue.BlockingQueue` each and run on a
  :class:`~repro.runtime.pool.ComputationThreadPool`;
* :class:`~repro.runtime.mp.ProcessEngine` — the coordinator over worker
  *processes* (true parallelism past the GIL; see
  :mod:`repro.runtime.mp`).  It is not re-exported here: importing it
  loads :mod:`multiprocessing`, which a threaded engine never needs.
"""

from .blocking_queue import BlockingQueue
from .pool import ComputationThreadPool
from .feed import PhaseFeed
from .core import ScheduleCore
from .engine import ParallelEngine

__all__ = [
    "BlockingQueue",
    "ComputationThreadPool",
    "PhaseFeed",
    "ScheduleCore",
    "ParallelEngine",
]
