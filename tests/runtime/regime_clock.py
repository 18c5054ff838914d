"""A real-thread backend whose clock is scripted to pick the drain regime.

:class:`~repro.runtime.engine.ParallelEngine` decides where a run
executes by comparing two durations it measures with ``backend.clock``:
a vertex's compute (taken outside the global lock) and the critical
sections around it (taken inside).  :class:`RegimeClockBackend` hands out
real OS primitives but keeps a per-thread clock that ticks in only one
of those two places, so a test chooses the regime instead of hoping the
host's timings produce it:

* ``compute_dear=True`` — time stands still inside a critical section
  and advances one second per reading outside: locked time reads 0,
  compute reads >= 1, nothing is ever strictly cheaper than its hand-off
  and every run goes through the pool (the paper's algorithm);
* ``compute_dear=False`` — the reverse: compute reads 0, locked time
  reads > 0, and the environment thread keeps whatever becomes ready.

The flag may be flipped while a run is in progress, and a vertex can make
itself expensive on either setting by calling :meth:`RegimeClockBackend.spend`
from its ``on_execute``.
"""

import threading
from contextlib import contextmanager
from unittest import mock

from repro.runtime.backend import ThreadingBackend


class _TrackedLock:
    """A ``threading.Lock`` that tells its backend who is inside."""

    def __init__(self, held):
        self._lock = threading.Lock()
        self._held = held

    def acquire(self, blocking=True, timeout=-1):
        got = self._lock.acquire(blocking, timeout)
        if got:
            self._held.depth = getattr(self._held, "depth", 0) + 1
        return got

    def release(self):
        self._held.depth -= 1
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    __enter__ = acquire

    def __exit__(self, *exc_info):
        self.release()


class RegimeClockBackend(ThreadingBackend):
    def __init__(self, compute_dear):
        self.compute_dear = compute_dear
        self._local = threading.local()

    def lock(self):
        return _TrackedLock(self._local)

    def clock(self):
        local = self._local
        now = getattr(local, "now", 0.0)
        inside = getattr(local, "depth", 0) > 0
        if inside != self.compute_dear:
            now = local.now = now + 1.0
        return now

    def spend(self, seconds):
        """Advance the calling thread's clock: scripted compute time."""
        self._local.now = getattr(self._local, "now", 0.0) + seconds


class ProcessRegimeClock:
    """The process coordinator's placement clock, scripted.

    :class:`~repro.runtime.mp.ProcessEngine` keeps a vertex in the
    coordinator while computing one of its runs costs this thread less
    CPU than marshalling that run would, both read through
    ``repro.runtime.mp.engine._clock``
    (:func:`repro.testing.scripted_placement` swaps it).  This clock
    stands still except where the script says otherwise: every frame the
    coordinator encodes (the unsent ones it prices the trip with
    included) costs ``wire`` seconds plus ``member`` per run member, and
    compute costs nothing — so every vertex stays resident — until an
    ``on_execute`` calls :meth:`spend`.
    """

    def __init__(self, wire=1.0, member=0.0):
        self.wire = wire
        self.member = member
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        """Advance the clock: scripted compute time."""
        self.now += seconds

    @contextmanager
    def scripted(self, dear_runs):
        """Script the engine inside the ``with``: this clock, promotion
        after *dear_runs* dear runs in a row."""
        from repro.runtime.mp import engine
        from repro.testing import scripted_placement

        real_encode = engine.encode

        def encode(msg):
            self.now += self.wire + self.member * len(msg.members)
            return real_encode(msg)

        with mock.patch.object(engine, "encode", encode):
            with scripted_placement(self, dear_runs):
                yield self
