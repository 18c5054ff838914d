"""The threading backend seam: every primitive the threaded engine blocks on.

The threaded engine's driver, its executor threads and their job deques
do not touch :mod:`threading` directly; they ask a *backend* for their
synchronisation primitives and their clock.  Two implementations exist:

* :class:`ThreadingBackend` (the default, module singleton
  :data:`OS_BACKEND`) hands out the real stdlib primitives — production
  behaviour, OS-scheduled preemption.
* :class:`repro.testing.schedule.VirtualBackend` hands out cooperative
  equivalents driven by a deterministic
  :class:`~repro.testing.schedule.VirtualScheduler`, so a test can
  *choose* the interleaving (and replay it from a seed) instead of hoping
  the OS produces the interesting one.

The seam is deliberately duck-typed: a backend is anything with
``lock``, ``condition``, ``thread`` and ``clock``.  Engine code must route every blocking operation through
it — adding a bare ``threading.Lock()`` to the engine would silently
escape schedule exploration.  Only the driver thread touches the
scheduling sets, so there is no interleaving inside them to explore: the
explored schedules are the driver's hand-offs to its executors.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Tuple

__all__ = ["ThreadingBackend", "OS_BACKEND"]


class ThreadingBackend:
    """The default backend: real OS threads and stdlib primitives."""

    def lock(self) -> threading.Lock:
        """A mutual-exclusion lock."""
        return threading.Lock()

    def condition(self, lock: Optional[threading.Lock] = None) -> threading.Condition:
        """A condition variable, optionally bound to an existing *lock*."""
        return threading.Condition(lock)

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
