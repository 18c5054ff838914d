"""PhaseFeed: the bounded blocking handoff between ingest and engine."""

import threading
import time

import pytest

from repro.errors import ServeError
from repro.events import PhaseInput
from repro.runtime.feed import PhaseFeed


def _pi(p, ts=None):
    return PhaseInput(p, float(p) if ts is None else ts, {})


class TestBasics:
    def test_fifo_order(self):
        feed = PhaseFeed(capacity=8)
        for p in (1, 2, 3):
            assert feed.put([_pi(p)])
        assert [feed.get(timeout=0).phase for _ in range(3)] == [1, 2, 3]

    def test_phases_must_be_sequential(self):
        feed = PhaseFeed()
        feed.put([_pi(1)])
        with pytest.raises(ServeError):
            feed.put([_pi(3)])

    def test_nonblocking_get_on_empty(self):
        feed = PhaseFeed()
        assert feed.get(timeout=0) is None

    def test_depth_and_drained(self):
        feed = PhaseFeed()
        feed.put([_pi(1)])
        assert feed.depth == 1
        assert not feed.drained
        feed.close()
        assert not feed.drained  # still one item queued
        assert feed.get(timeout=0).phase == 1
        assert feed.drained

    def test_invalid_capacity(self):
        with pytest.raises(ServeError):
            PhaseFeed(capacity=0)


class TestCapacity:
    def test_put_blocks_at_capacity_and_counts_stall(self):
        feed = PhaseFeed(capacity=2)
        feed.put([_pi(1)])
        feed.put([_pi(2)])
        assert feed.put([_pi(3)], timeout=0.05) is False  # full: timed out
        assert feed.put_stalls >= 1
        assert feed.get(timeout=0).phase == 1
        assert feed.put([_pi(3)], timeout=1.0) is True  # space freed

    def test_high_water_tracks_peak(self):
        feed = PhaseFeed(capacity=4)
        for p in (1, 2, 3):
            feed.put([_pi(p)])
        feed.get(timeout=0)
        assert feed.high_water == 3

    def test_blocked_put_wakes_on_get(self):
        feed = PhaseFeed(capacity=1)
        feed.put([_pi(1)])
        done = []

        def producer():
            feed.put([_pi(2)], timeout=5.0)
            done.append(True)

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        assert not done
        assert feed.get(timeout=1.0).phase == 1
        t.join(timeout=5.0)
        assert done


class TestAdmission:
    """One :meth:`PhaseFeed.put` hands over every phase an admission
    sealed: one hold and one wake-up while they fit."""

    def test_a_waiting_consumer_finds_the_whole_admission(self):
        feed = PhaseFeed(capacity=8)
        woke = []

        def consumer():
            first = feed.get(timeout=5.0)
            woke.append((first.phase, feed.depth))

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.05)
        assert feed.put([_pi(1), _pi(2), _pi(3)])
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert woke == [(1, 2)]
        assert feed.high_water == 3 and feed.total_put == 3

    def test_an_admission_larger_than_the_feed_enters_as_it_drains(self):
        feed = PhaseFeed(capacity=2)
        got = []

        def consumer():
            while len(got) < 5:
                pi = feed.get(timeout=5.0)
                if pi is not None:
                    got.append(pi.phase)

        t = threading.Thread(target=consumer)
        t.start()
        assert feed.put([_pi(p) for p in range(1, 6)], timeout=5.0)
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert got == [1, 2, 3, 4, 5]
        assert feed.high_water <= 2

    def test_a_timed_out_admission_keeps_its_prefix(self):
        feed = PhaseFeed(capacity=2)
        assert feed.put([_pi(1), _pi(2), _pi(3)], timeout=0.05) is False
        assert feed.depth == 2 and feed.put_stalls == 1
        assert feed.get(timeout=0).phase == 1
        assert feed.put([_pi(3)], timeout=1.0)  # the rest, resent
        assert [feed.get(timeout=0).phase for _ in range(2)] == [2, 3]

    def test_an_empty_admission_is_a_no_op(self):
        feed = PhaseFeed()
        assert feed.put([])
        assert feed.depth == 0 and feed.total_put == 0


class TestClose:
    def test_get_returns_none_after_close_and_drain(self):
        feed = PhaseFeed()
        feed.put([_pi(1)])
        feed.close()
        assert feed.get(timeout=0).phase == 1
        assert feed.get(timeout=0) is None
        assert feed.get() is None  # closed + drained: no blocking

    def test_put_after_close_rejected(self):
        feed = PhaseFeed()
        feed.close()
        with pytest.raises(ServeError):
            feed.put([_pi(1)])

    def test_close_is_idempotent(self):
        feed = PhaseFeed()
        feed.close()
        feed.close()
        assert feed.closed

    def test_close_wakes_blocked_producer(self):
        feed = PhaseFeed(capacity=1)
        feed.put([_pi(1)])
        errors = []

        def producer():
            try:
                feed.put([_pi(2)], timeout=5.0)
            except ServeError as exc:
                errors.append(exc)

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        feed.close()
        t.join(timeout=5.0)
        assert errors  # closing while a producer waits raises to it

    def test_close_wakes_blocked_consumer(self):
        feed = PhaseFeed()
        out = []

        def consumer():
            out.append(feed.get(timeout=5.0))

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.05)
        feed.close()
        t.join(timeout=5.0)
        assert out == [None]


class TestDirectHand:
    """A consumer's ``hand`` takes a lone phase put into an empty feed on
    the producer's thread; what it declines is queued as before."""

    def test_a_hand_that_accepts_runs_the_phase_on_the_producers_thread(self):
        feed = PhaseFeed(capacity=4)
        taken = []
        feed.hand = lambda pi: taken.append(
            (pi.phase, threading.current_thread())) is None
        assert feed.put([_pi(1)])
        assert taken == [(1, threading.current_thread())]
        assert feed.depth == 0 and feed.get(timeout=0) is None

    def test_a_hand_that_declines_leaves_the_phase_queued(self):
        feed = PhaseFeed(capacity=4)
        offered = []
        feed.hand = lambda pi: offered.append(pi.phase) and False
        assert feed.put([_pi(1)])
        assert offered == [1]
        assert feed.get(timeout=0).phase == 1

    def test_only_a_lone_phase_into_an_empty_feed_is_offered(self):
        feed = PhaseFeed(capacity=8)
        offered = []

        def hand(pi):
            offered.append(pi.phase)
            return False

        feed.hand = hand
        feed.put([_pi(1), _pi(2)])  # an admission of two: queued whole
        feed.put([_pi(3)])  # a lone phase behind a backlog: queued
        assert offered == []
        assert [feed.get(timeout=0).phase for _ in range(3)] == [1, 2, 3]
        feed.put([_pi(4)])
        assert offered == [4]

    def test_numbering_holds_across_the_hand(self):
        feed = PhaseFeed(capacity=4)
        offered = []

        def hand(pi):
            offered.append(pi.phase)
            return True

        feed.hand = hand
        with pytest.raises(ServeError, match="expected phase 1, got 2"):
            feed.put([_pi(2)])
        assert offered == []  # an out-of-order phase never reaches it
        feed.put([_pi(1)])
        feed.put([_pi(2)])
        feed.hand = None
        with pytest.raises(ServeError, match="expected phase 3, got 2"):
            feed.put([_pi(2)])
        assert offered == [1, 2]

    def test_a_closed_feed_refuses_before_the_hand(self):
        feed = PhaseFeed()
        offered = []
        feed.hand = lambda pi: offered.append(pi.phase) is None
        feed.close()
        with pytest.raises(ServeError, match="closed feed"):
            feed.put([_pi(1)])
        assert offered == [] and feed.total_put == 0

    def test_a_hand_may_close_the_feed(self):
        # A consumer whose drive failed refuses every later phase.
        feed = PhaseFeed()

        def hand(pi):
            feed.close()
            return True

        feed.hand = hand
        assert feed.put([_pi(1)])
        with pytest.raises(ServeError, match="closed feed"):
            feed.put([_pi(2)])
        assert feed.drained

    def test_counters_advance_as_for_a_queued_phase(self):
        taken, queued = PhaseFeed(capacity=4), PhaseFeed(capacity=4)
        taken.hand = lambda pi: True
        for p in (1, 2, 3):
            taken.put([_pi(p)])
            queued.put([_pi(p)])
            queued.get(timeout=0)
        for feed in (taken, queued):
            assert (feed.total_put, feed.high_water, feed.put_stalls) == (3, 1, 0)
            assert feed.depth == 0
