"""The process coordinator's dispatch backlog, pre-partitioned by worker."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Set, Tuple

from ...core.state import Pair

__all__ = ["ReadyFrontier"]


class ReadyFrontier:
    """Ready pairs waiting for worker credit, one FIFO bucket per sticky
    worker.

    Each ready pair is routed to its worker's bucket **once, at
    insertion** (``assign`` is the sticky map, so a vertex's bucket never
    changes), and a drain touches only the pairs it takes plus the
    workers that still hold a backlog — not the whole backlog, most of
    which may belong to credit-starved workers.  Per-worker FIFO order,
    which the phase-order argument relies on, holds by construction: a
    bucket is only appended to or popped.

    The frontier never consults scheduler internals: it only holds pairs
    the scheduler's mutators already returned as ready, so it cannot
    weaken the exactly-once placement argument.
    """

    __slots__ = ("_assign", "_buckets", "_backlog", "_len")

    def __init__(self, assign: Callable[[int], int]) -> None:
        self._assign = assign
        self._buckets: Dict[int, Deque[Pair]] = {}
        self._backlog: Set[int] = set()  # workers with a non-empty bucket
        self._len = 0

    def push(self, pairs: Iterable[Pair]) -> None:
        """Append newly ready pairs (FIFO per worker)."""
        for pair in pairs:
            w = self._assign(pair[0])
            bucket = self._buckets.get(w)
            if bucket is None:
                bucket = self._buckets[w] = deque()
            bucket.append(pair)
            self._backlog.add(w)
            self._len += 1

    def drain(
        self, capacity: Callable[[int], int]
    ) -> Tuple[List[Tuple[int, List[Pair]]], Set[int]]:
        """Take up to ``capacity(w)`` pairs — the worker's remaining
        credit window — per backlogged worker.

        Returns ``(batches, starved)``: one ``(worker, pairs)`` entry per
        worker that had credit, and the set of workers that still had
        pairs waiting when their credit ran out (the adaptive window
        controller's widening signal).  O(pairs drained + backlogged
        workers).
        """
        batches: List[Tuple[int, List[Pair]]] = []
        starved: Set[int] = set()
        for w in sorted(self._backlog):
            bucket = self._buckets[w]
            take = min(len(bucket), max(0, capacity(w)))
            if take < len(bucket):
                starved.add(w)
            if take:
                batches.append((w, [bucket.popleft() for _ in range(take)]))
                self._len -= take
            if not bucket:
                self._backlog.discard(w)
        return batches, starved

    def __len__(self) -> int:
        return self._len
