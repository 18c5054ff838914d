"""Tests for the run queue, including concurrent at-most-once delivery."""

import threading
import time

import pytest

from repro.errors import QueueClosedError
from repro.runtime.blocking_queue import BlockingQueue


class TestBasics:
    def test_fifo_order(self):
        q = BlockingQueue()
        for i in range(5):
            q.put(i)
        assert [q.get() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_put_many(self):
        q = BlockingQueue()
        q.put_many([1, 2, 3])
        assert len(q) == 3
        assert q.get() == 1

    def test_put_many_empty_is_noop(self):
        q = BlockingQueue()
        q.put_many([])
        assert len(q) == 0

    def test_get_timeout(self):
        q = BlockingQueue()
        with pytest.raises(TimeoutError):
            q.get(timeout=0.01)

    def test_len_and_depth_stats(self):
        q = BlockingQueue()
        q.put(1)
        q.put(2)
        q.get()
        q.put(3)
        assert q.max_depth == 2
        assert q.total_enqueued == 3
        assert q.total_dequeued == 1

    def test_repr(self):
        q = BlockingQueue()
        q.put(1)
        assert "depth=1" in repr(q)


class TestClose:
    def test_close_then_drain(self):
        q = BlockingQueue()
        q.put("item")
        q.close()
        assert q.get() == "item"  # already-enqueued items still delivered
        with pytest.raises(QueueClosedError):
            q.get()

    def test_put_after_close_rejected(self):
        q = BlockingQueue()
        q.close()
        with pytest.raises(QueueClosedError):
            q.put(1)
        with pytest.raises(QueueClosedError):
            q.put_many([1])

    def test_close_idempotent(self):
        q = BlockingQueue()
        q.close()
        q.close()
        assert q.closed

    def test_close_wakes_blocked_getters(self):
        q = BlockingQueue()
        results = []

        def getter():
            try:
                q.get()
            except QueueClosedError:
                results.append("closed")

        threads = [threading.Thread(target=getter) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        q.close()
        for t in threads:
            t.join(timeout=2)
        assert results == ["closed"] * 3


class TestConcurrency:
    def test_blocking_get_receives_later_put(self):
        q = BlockingQueue()
        result = []

        def getter():
            result.append(q.get())

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.02)
        q.put("late")
        t.join(timeout=2)
        assert result == ["late"]

    def test_at_most_once_under_contention(self):
        """N items, many consumers: every item delivered exactly once."""
        q = BlockingQueue()
        n_items, n_consumers = 2000, 8
        received = [[] for _ in range(n_consumers)]

        def consumer(idx: int) -> None:
            while True:
                try:
                    received[idx].append(q.get())
                except QueueClosedError:
                    return

        threads = [
            threading.Thread(target=consumer, args=(i,)) for i in range(n_consumers)
        ]
        for t in threads:
            t.start()
        for i in range(n_items):
            q.put(i)
        # Give consumers time to drain, then close.
        while q.total_dequeued < n_items:
            time.sleep(0.005)
        q.close()
        for t in threads:
            t.join(timeout=5)
        everything = [x for part in received for x in part]
        assert sorted(everything) == list(range(n_items))
        assert len(everything) == n_items  # no duplicates

    def test_concurrent_producers(self):
        q = BlockingQueue()
        n_producers, per_producer = 4, 500

        def producer(base: int) -> None:
            for i in range(per_producer):
                q.put(base + i)

        threads = [
            threading.Thread(target=producer, args=(i * per_producer,))
            for i in range(n_producers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        drained = [q.get() for _ in range(n_producers * per_producer)]
        assert sorted(drained) == list(range(n_producers * per_producer))


class TestCloseEdgeCases:
    """Close-protocol corners: closing under blocked getters/putters, the
    timeout/close race, and the virtual-backend equivalents."""

    def test_close_while_getter_blocked_with_timeout(self):
        # A getter blocked *with a timeout* must still wake with
        # QueueClosedError (not TimeoutError) when close wins the race.
        q = BlockingQueue()
        outcome = []

        def getter():
            try:
                q.get(timeout=30.0)
            except QueueClosedError:
                outcome.append("closed")
            except TimeoutError:
                outcome.append("timeout")

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=2)
        assert outcome == ["closed"]

    def test_put_many_after_close_delivers_nothing(self):
        q = BlockingQueue()
        q.put(1)
        q.close()
        with pytest.raises(QueueClosedError):
            q.put_many([2, 3])
        assert q.get() == 1
        with pytest.raises(QueueClosedError):
            q.get()
        assert q.total_enqueued == 1  # the rejected batch left no trace

    def test_close_empty_queue_immediately_raises_on_get(self):
        q = BlockingQueue()
        q.close()
        with pytest.raises(QueueClosedError):
            q.get()
        with pytest.raises(QueueClosedError):
            q.get(timeout=0.01)

    def test_stats_frozen_after_close(self):
        q = BlockingQueue()
        q.put_many([1, 2])
        q.get()
        q.close()
        q.get()  # drain the survivor
        assert q.total_enqueued == 2
        assert q.total_dequeued == 2
        assert q.closed

    def test_close_under_virtual_backend_wakes_blocked_getters(self):
        # The same close-while-blocked protocol, but deterministically
        # scheduled: the getters park on the virtual condition and close
        # must wake every one of them.
        from repro.testing.schedule import (
            RandomPolicy,
            VirtualBackend,
            VirtualScheduler,
        )

        sched = VirtualScheduler(policy=RandomPolicy(2))
        backend = VirtualBackend(sched)
        q = BlockingQueue(backend=backend)
        outcome = []

        def getter(me):
            try:
                q.get()
            except QueueClosedError:
                outcome.append(me)

        def closer():
            sched.switch("pre-close")
            q.close()

        for i in range(3):
            backend.thread(target=getter, args=(i,), name=f"g{i}").start()
        backend.thread(target=closer, name="closer").start()
        sched.run_all()
        assert sorted(outcome) == [0, 1, 2]


class TestZeroMessageLastPhase:
    """Workers must terminate when the *last* phase produces no messages
    at all — the close protocol cannot rely on a final completion event
    coming from a worker."""

    def _silent_tail_program(self):
        from repro.core.program import Program
        from repro.core.vertex import EMIT_NOTHING, FunctionVertex
        from repro.graph.generators import chain_graph

        # Source emits only in phase 1; phases 2..4 are entirely empty of
        # messages, so no worker commit marks them complete after start.
        def source(ctx):
            return 7 if ctx.phase == 1 else EMIT_NOTHING

        g = chain_graph(3)
        prog = Program(
            g,
            {
                "v1": FunctionVertex(source),
                "v2": FunctionVertex(lambda ctx: ctx.input("v1")),
                "v3": FunctionVertex(lambda ctx: ctx.input("v2")),
            },
        )
        return prog

    def test_engine_exits_when_last_phases_are_silent(self):
        from repro.runtime.engine import ParallelEngine
        from repro.streams.generators import phase_signals

        prog = self._silent_tail_program()
        result = ParallelEngine(prog, num_threads=3).run(phase_signals(4))
        assert result.phases_run == 4
        assert result.records["v3"] == [(1, 7)]

    def test_virtual_engine_exits_when_last_phases_are_silent(self):
        # Same scenario under exhaustive-ish deterministic schedules: a
        # close-protocol hole here would surface as DeadlockError.
        from repro.runtime.engine import ParallelEngine
        from repro.streams.generators import phase_signals
        from repro.testing.schedule import (
            RandomPolicy,
            VirtualBackend,
            VirtualScheduler,
        )

        for seed in range(5):
            sched = VirtualScheduler(policy=RandomPolicy(seed))
            prog = self._silent_tail_program()
            engine = ParallelEngine(
                prog, num_threads=2, backend=VirtualBackend(sched)
            )
            try:
                result = engine.run(phase_signals(3))
            finally:
                sched.shutdown()
            assert result.phases_run == 3


class TestBlockedGetsStat:
    """``blocked_gets`` counts *waits*, not calls — the contention signal
    the lock-contention benchmark reads."""

    def test_immediate_get_is_not_blocked(self):
        q = BlockingQueue()
        q.put(1)
        q.get()
        assert q.blocked_gets == 0

    def test_waiting_get_counts_once(self):
        q = BlockingQueue()

        def putter():
            time.sleep(0.05)
            q.put(1)

        t = threading.Thread(target=putter)
        t.start()
        assert q.get(timeout=5) == 1
        t.join(timeout=2)
        # One blocked call = one increment, even across spurious wakeups.
        assert q.blocked_gets == 1

    def test_closed_and_drained_get_is_not_blocked(self):
        # Regression: the shutdown path's final get() used to be counted
        # as a blocked get, inflating the contention stats of every run
        # by one per worker.
        q = BlockingQueue()
        q.close()
        for _ in range(3):
            with pytest.raises(QueueClosedError):
                q.get()
        assert q.blocked_gets == 0

    def test_timed_out_get_still_counts_as_blocked(self):
        q = BlockingQueue()
        with pytest.raises(TimeoutError):
            q.get(timeout=0.01)
        assert q.blocked_gets == 1
