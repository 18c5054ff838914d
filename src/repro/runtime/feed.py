"""A bounded handoff of sealed phases from an ingest thread to an engine.

:class:`PhaseFeed` is the streaming-admission seam of the continuous-
operation mode: the ingest side :meth:`put`\\ s the
:class:`~repro.events.PhaseInput`\\ s each admission sealed (one POST
body's worth, in one hand-off), and the engine side :meth:`get`\\ s
phases as scheduling capacity frees up.  The feed is deliberately tiny
— a deque plus one condition variable.
It is also how a batch run reaches an engine: :meth:`PhaseFeed.of` is a
feed whose producer finished before the engine started, so both real
engines have one admission path (Listing 2 "merely starts new phases
repeatedly").  An open feed blocks on a real condition variable; a
closed one never does, which is why the virtual scheduler's cooperative
tasks may consume a closed feed but never an open one (``repro serve``
never runs under the virtual scheduler).

A consumer parked on an empty open feed may offer a **direct hand**
(:attr:`PhaseFeed.hand`): an admission of exactly one phase into an
empty feed is then first offered to it on the producer's thread, and a
phase it takes never enters the deque; the numbering and the counters
advance as for a queued one (docs/ARCHITECTURE.md §5.8).

Backpressure is built in: a full feed blocks the producer (counting the
stall) until the engine drains below capacity, which is the credit-style
throttling half of the serve layer's bounded-memory story — the other
half being the bounded :class:`~repro.ingest.ReorderBuffer` upstream.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Optional, Sequence

from ..errors import ServeError
from ..events import PhaseInput

__all__ = ["PhaseFeed"]


class PhaseFeed:
    """A closable bounded FIFO of sealed :class:`PhaseInput` phases.

    Parameters
    ----------
    capacity:
        Maximum phases buffered between producer and engine.  A
        :meth:`put` against a full feed blocks (backpressure) until the
        engine takes one; ``put_stalls`` counts those waits.

    The consumer side may set :attr:`hand`, a ``hand(phase_input) ->
    bool`` that runs the phase itself and says whether it did; it is
    called with the feed's (re-entrant) lock held, so it may close the
    feed, and it must never block on a thread that waits for the feed.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ServeError(f"feed capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: Deque[PhaseInput] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._next_phase = 1
        self.put_stalls = 0
        self.high_water = 0
        self.total_put = 0
        self.hand: Optional[Callable[[PhaseInput], bool]] = None

    @classmethod
    def of(cls, phase_inputs: Sequence[PhaseInput]) -> "PhaseFeed":
        """A feed already holding every phase of *phase_inputs*, closed:
        a batch run, as the engines admit it.  Filled without a producer,
        so it skips :meth:`put`'s numbering check; the engine's
        admission (``PairRuntime.register_phase``) makes the same one."""
        feed = cls()
        feed._items.extend(phase_inputs)
        feed.total_put = feed.high_water = len(feed._items)
        feed.capacity = max(1, feed.total_put)
        feed._closed = True
        return feed

    # -- producer side --------------------------------------------------

    def put(
        self, phases: Sequence[PhaseInput], timeout: Optional[float] = None
    ) -> bool:
        """Enqueue one admission's sealed phases, in order; blocks while
        the feed is full.

        While they fit, the whole admission costs one condition hold and
        one wake-up of the consumer, so an engine blocked on :meth:`get`
        finds every phase of it at once.  Returns True once every phase
        is in, False if *timeout* elapsed on a full feed: the phases
        before that point are in, the rest are NOT (the caller retries
        the rest or gives up).  Phases must arrive in sequential order,
        matching the ``register_phase`` contract downstream.  One phase
        put into an empty feed is first offered to the :attr:`hand`.
        """
        with self._cond:
            items = self._items
            if (
                len(phases) == 1 and not items and self.hand is not None
                and not self._closed and phases[0].phase == self._next_phase
                and self.hand(phases[0])
            ):
                self._next_phase += 1
                self.total_put += 1
                if not self.high_water:
                    self.high_water = 1
                return True
            for pi in phases:
                if self._closed:
                    raise ServeError("cannot put a phase into a closed feed")
                if pi.phase != self._next_phase:
                    raise ServeError(
                        f"feed phases must be sequential: expected phase "
                        f"{self._next_phase}, got {pi.phase}"
                    )
                if len(items) >= self.capacity:
                    self.put_stalls += 1
                    self._cond.notify_all()  # what is in may be taken now
                    while len(items) >= self.capacity:
                        if not self._cond.wait(timeout):
                            return False
                        if self._closed:
                            raise ServeError(
                                "feed closed while a producer was blocked on it"
                            )
                items.append(pi)
                self._next_phase += 1
                self.total_put += 1
                if len(items) > self.high_water:
                    self.high_water = len(items)
            self._cond.notify_all()
            return True

    def close(self) -> None:
        """No more phases will arrive; getters drain what remains then
        see ``None``.  Idempotent.  Wakes any blocked producer (which
        then raises — closing under a blocked producer is a caller bug
        the error makes loud rather than a silent hang)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- consumer side --------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[PhaseInput]:
        """Take the next phase.

        Returns ``None`` when the feed is closed *and* drained, or when
        *timeout* elapses with nothing available (callers distinguish the
        two via :attr:`drained`).  ``timeout=0`` is a non-blocking poll.
        """
        with self._cond:
            if not self._items and not self._closed:
                if timeout == 0:
                    return None
                self._cond.wait(timeout)
            if not self._items:
                return None
            pi = self._items.popleft()
            self._cond.notify_all()
            return pi

    # -- observability --------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def drained(self) -> bool:
        """Closed and nothing left to take."""
        with self._cond:
            return self._closed and not self._items

    @property
    def depth(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return (
            f"PhaseFeed(capacity={self.capacity}, depth={self.depth}, "
            f"closed={self._closed}, put={self.total_put})"
        )
