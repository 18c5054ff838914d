"""Tests for the instrumented global lock.

Timing statistics are asserted against an injected fake clock (each call
advances it by exactly one tick), so the tests are deterministic: no
sleeps, no wall-clock thresholds, no flakiness on loaded machines.
"""

import os
import sys
import threading

from repro.runtime.locks import InstrumentedLock


class TickClock:
    """A clock returning 0.0, 1.0, 2.0, ... — one tick per reading."""

    def __init__(self):
        self._now = -1.0
        self._guard = threading.Lock()

    def __call__(self):
        with self._guard:
            self._now += 1.0
            return self._now


class TestBasics:
    def test_context_manager(self):
        lock = InstrumentedLock()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_acquisition_counting(self):
        lock = InstrumentedLock()
        for _ in range(3):
            with lock:
                pass
        stats = lock.stats()
        assert stats["acquisitions"] == 3
        assert stats["contended_acquisitions"] == 0
        assert stats["contention_ratio"] == 0.0

    def test_hold_time_accumulates(self):
        # Uncontended acquire reads the clock at acquire and at release:
        # exactly one tick apart under the fake clock.
        lock = InstrumentedLock(clock=TickClock())
        with lock:
            pass
        assert lock.stats()["total_hold_time"] == 1.0
        with lock:
            pass
        assert lock.stats()["total_hold_time"] == 2.0

    def test_repr(self):
        lock = InstrumentedLock()
        with lock:
            pass
        assert "acquisitions=1" in repr(lock)


class TestContention:
    def test_contended_acquisition_detected(self):
        # Deterministic contention: under the virtual scheduler the waiter
        # is *guaranteed* to attempt acquisition while the holder still
        # owns the lock, so the contended path runs on every execution.
        from repro.testing.schedule import (
            RoundRobinPolicy,
            VirtualBackend,
            VirtualScheduler,
        )

        sched = VirtualScheduler(policy=RoundRobinPolicy())
        backend = VirtualBackend(sched)
        lock = InstrumentedLock(clock=TickClock(), backend=backend)
        gate = backend.event()
        waiter_done = []

        def holder():
            with lock:
                gate.set()
                # Spin at yield points long enough for the round-robin
                # schedule to run the waiter into the contended acquire
                # while the lock is still held.
                for _ in range(10):
                    sched.switch("holding")

        def waiter():
            gate.wait()
            with lock:
                waiter_done.append(True)

        backend.thread(target=holder, name="holder").start()
        backend.thread(target=waiter, name="waiter").start()
        sched.run_all()
        assert waiter_done == [True]
        stats = lock.stats()
        assert stats["acquisitions"] == 2
        assert stats["contended_acquisitions"] == 1
        # The fake clock ticks once per reading, so the contended acquire
        # measured a strictly positive wait — deterministically.
        assert stats["total_wait_time"] > 0.0
        assert stats["contention_ratio"] == 0.5

    def test_mutual_exclusion(self):
        """Concurrent increments under the lock never lose updates, and
        neither do the statistics it keeps under itself: more threads
        than cores, preempted as often as the interpreter allows."""
        lock = InstrumentedLock()
        counter = {"n": 0}
        n = 2 * (os.cpu_count() or 1) + 1
        shares = [8000 // n + (i < 8000 % n) for i in range(n)]

        def bump(times):
            for _ in range(times):
                with lock:
                    counter["n"] += 1

        threads = [threading.Thread(target=bump, args=(s,)) for s in shares]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert counter["n"] == 8000
        assert lock.stats()["acquisitions"] == 8000
