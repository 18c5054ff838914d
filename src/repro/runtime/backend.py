"""The threading backend seam: every primitive the engine blocks on.

The parallel engine, thread pool, run queue, and instrumented lock do not
touch :mod:`threading` directly; they ask a *backend* for their
synchronisation primitives.  Two implementations exist:

* :class:`ThreadingBackend` (the default, module singleton
  :data:`OS_BACKEND`) hands out the real stdlib primitives — production
  behaviour, OS-scheduled preemption.
* :class:`repro.testing.schedule.VirtualBackend` hands out cooperative
  equivalents driven by a deterministic
  :class:`~repro.testing.schedule.VirtualScheduler`, so a test can
  *choose* the interleaving (and replay it from a seed) instead of hoping
  the OS produces the interesting one.

The seam is deliberately duck-typed: a backend is anything with these
factory methods.  Engine code must route every blocking operation through
it — adding a bare ``threading.Lock()`` to the engine would silently
escape schedule exploration.

``preempt`` is the one member that is data, not a factory: an optional
``callable(point: str)`` invoked by :class:`repro.core.state.SchedulerState`
between scheduling-set mutations.  The OS backend leaves it ``None``
(zero overhead); the virtual backend points it at the scheduler's switch
primitive, which is what lets schedule exploration interleave *inside*
the critical section and catch lock-discipline bugs.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Tuple

__all__ = ["ThreadingBackend", "OS_BACKEND"]


class ThreadingBackend:
    """The default backend: real OS threads and stdlib primitives."""

    #: Optional hook called between scheduling-set mutations (see
    #: :class:`repro.core.state.SchedulerState`).  ``None`` means "no
    #: preemption points": the real lock already guards the mutations.
    preempt: Optional[Callable[[str], None]] = None

    def lock(self) -> threading.Lock:
        """A mutual-exclusion lock."""
        return threading.Lock()

    def condition(self, lock: Optional[threading.Lock] = None) -> threading.Condition:
        """A condition variable, optionally bound to an existing *lock*."""
        return threading.Condition(lock)

    def event(self) -> threading.Event:
        """A one-shot flag with ``set``/``is_set``/``wait``."""
        return threading.Event()

    def semaphore(self, value: int = 1) -> threading.Semaphore:
        """A counting semaphore initialised to *value*."""
        return threading.Semaphore(value)

    def thread(
        self,
        target: Callable[..., None],
        name: Optional[str] = None,
        args: Tuple = (),
    ) -> threading.Thread:
        """An unstarted daemon thread running ``target(*args)``."""
        return threading.Thread(target=target, name=name, args=args, daemon=True)

    def clock(self) -> float:
        """A monotonic clock (seconds); virtual backends return virtual time."""
        return time.perf_counter()


#: The process-wide default backend (real threads).
OS_BACKEND = ThreadingBackend()
