"""A thread-safe blocking FIFO with a close protocol: the queues between
the threaded engine's coordinator and its executor threads.

Section 3.2's requirements: "any thread executing a dequeue operation
suspends until an item is available for dequeuing, and the dequeue
operation atomically removes an item from the queue such that each item on
the queue is dequeued at most once.  It is also assumed to be empty at
system initialization time."

This implementation adds two things the paper's infinite loops did not
need:

* **Termination.**  :meth:`BlockingQueue.close` wakes every blocked
  consumer; once the queue is both closed and drained, further
  :meth:`get` calls raise :class:`~repro.errors.QueueClosedError`, which
  the worker loop treats as "no more work, exit".  Items already
  enqueued at close time are still delivered (close-then-drain), so no
  ready pair is ever lost.
* **Batched enqueue.**  :meth:`BlockingQueue.put_many` hands a commit's
  newly ready pairs over in one critical section.

Statistics (:attr:`total_enqueued`, :attr:`total_dequeued`,
:attr:`max_depth`, :attr:`blocked_gets`) feed the engine's run report.
``blocked_gets`` counts only dequeues that actually *waited* — a get that
returns an item immediately, or that raises immediately because the queue
is closed and drained, is not contention and is not counted.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Optional, TypeVar

from ..errors import QueueClosedError
from .backend import OS_BACKEND, ThreadingBackend

__all__ = ["BlockingQueue"]

T = TypeVar("T")


class BlockingQueue(Generic[T]):
    """An unbounded FIFO with blocking dequeue and at-most-once delivery.

    The condition variable comes from the *backend* (default: real
    threads), so the deterministic test scheduler can control exactly when
    blocked consumers wake.
    """

    def __init__(self, backend: Optional[ThreadingBackend] = None) -> None:
        self._items: Deque[T] = deque()
        self._cond = (backend or OS_BACKEND).condition()
        self._closed = False
        self.total_enqueued = 0
        self.total_dequeued = 0
        self.max_depth = 0
        self.blocked_gets = 0

    def put(self, item: T) -> None:
        """Enqueue *item*.  Raises :class:`QueueClosedError` after close."""
        with self._cond:
            if self._closed:
                raise QueueClosedError("put() on a closed queue")
            self._items.append(item)
            self.total_enqueued += 1
            if len(self._items) > self.max_depth:
                self.max_depth = len(self._items)
            self._cond.notify()

    def put_many(self, items: List[T]) -> None:
        """Enqueue several items atomically (single wake-up batch)."""
        if not items:
            return
        with self._cond:
            if self._closed:
                raise QueueClosedError("put_many() on a closed queue")
            self._items.extend(items)
            self.total_enqueued += len(items)
            if len(self._items) > self.max_depth:
                self.max_depth = len(self._items)
            self._cond.notify(len(items))

    def get(self, timeout: Optional[float] = None) -> T:
        """Dequeue one item, blocking while the queue is empty and open.

        Raises
        ------
        QueueClosedError
            When the queue is closed and drained — the "no more work"
            signal for consumers.
        TimeoutError
            When *timeout* (seconds) elapses with nothing available; used
            only by tests and watchdogs — workers block indefinitely.
        """
        with self._cond:
            waited = False
            while True:
                if self._items:
                    self.total_dequeued += 1
                    return self._items.popleft()
                if self._closed:
                    raise QueueClosedError("queue closed and drained")
                if not waited:
                    # Count the get as blocked only now that it will
                    # actually wait (an immediate QueueClosedError above
                    # is shutdown, not contention).
                    self.blocked_gets += 1
                    waited = True
                if not self._cond.wait(timeout):
                    raise TimeoutError(
                        f"BlockingQueue.get timed out after {timeout}s"
                    )

    def close(self) -> None:
        """Close the queue: already-enqueued items are still delivered,
        then every blocked/future :meth:`get` raises
        :class:`QueueClosedError`.  Idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def __repr__(self) -> str:
        with self._cond:
            return (
                f"BlockingQueue(depth={len(self._items)}, closed={self._closed}, "
                f"enqueued={self.total_enqueued}, dequeued={self.total_dequeued})"
            )
