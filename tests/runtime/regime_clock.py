"""A real-thread backend whose clock is scripted to pick the drain regime.

:class:`~repro.runtime.engine.ParallelEngine` decides where a run
executes by comparing two durations it measures with ``backend.clock``:
a vertex's compute on the environment thread, and the round trip of an
empty hand-off to an executor, taken once as the run starts.
:class:`RegimeClockBackend` hands out real OS primitives but keeps a
per-thread clock that stands still except where the script says, so a
test chooses the regime instead of hoping the host's timings produce it:

* ``compute_dear=False`` — a hand-off costs one second on the thread
  that makes it (every notify of a backend condition, i.e. every queue
  put), and compute reads 0: the environment keeps whatever becomes
  ready;
* ``compute_dear=True`` — every reading advances the clock by
  :data:`DEAR` seconds and every notify takes one such step back, so a
  hand-off measured in this regime reads free, compute reads at least
  ``DEAR`` — dearer than any run's hand-off measured in either regime —
  and every vertex moves away after its ``DEAR_RUNS`` runs here.

The flag may be flipped while a run is in progress, and a vertex can make
itself expensive on either setting by calling :meth:`RegimeClockBackend.spend`
from its ``on_execute``.
"""

import threading
from contextlib import contextmanager
from unittest import mock

from repro.runtime.backend import ThreadingBackend

#: A dear reading: more than the hand-offs of the longest run (64
#: members, at one second each in the cheap regime).
DEAR = 1000.0


class RegimeClockBackend(ThreadingBackend):
    def __init__(self, compute_dear):
        self.compute_dear = compute_dear
        self._local = threading.local()

    def condition(self, lock=None):
        backend = self

        class Priced(threading.Condition):
            def notify(self, n=1):
                backend.spend(-DEAR if backend.compute_dear else 1.0)
                super().notify(n)

        return Priced(lock)

    def clock(self):
        if self.compute_dear:
            self.spend(DEAR)
        return getattr(self._local, "now", 0.0)

    def spend(self, seconds):
        """Advance the calling thread's clock: scripted compute time."""
        self._local.now = getattr(self._local, "now", 0.0) + seconds


class ProcessRegimeClock:
    """The process coordinator's placement clock, scripted.

    :class:`~repro.runtime.mp.ProcessEngine` keeps a vertex in the
    coordinator while computing one of its runs costs this thread less
    CPU than marshalling that run would, both read through
    ``repro.runtime.mp.lifecycle._clock``
    (:func:`repro.testing.fuzz.scripted_placement` swaps it).  This clock
    stands still except where the script says otherwise: every run frame
    the coordinator encodes (``repro.runtime.mp.lifecycle.encode``, the
    unsent ones it prices the trip with included) costs ``wire`` seconds plus ``member`` per run member, and
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
        from repro.runtime.mp import lifecycle
        from repro.runtime.mp.protocol import RunMsg
        from repro.testing.fuzz import scripted_placement

        real_encode = lifecycle.encode

        def encode(msg):
            if isinstance(msg, RunMsg):  # not the shutdown request
                self.now += self.wire + self.member * len(msg.members)
            return real_encode(msg)

        with mock.patch.object(lifecycle, "encode", encode):
            with scripted_placement(self, dear_runs):
                yield self
