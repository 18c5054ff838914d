"""Server-Sent Events: wire formatting and listener fan-out.

SSE is the natural transport for the serve layer's result stream: results
flow strictly server→client, ordering matters, and the line-delimited
``text/event-stream`` format needs no dependency beyond the stdlib HTTP
server.  The shapes here follow the little ``MessageAnnouncer`` /
``format_sse`` idiom common in streaming dashboards: the announcer holds
one bounded queue per listener and *drops* for listeners that stop
reading, so one stuck consumer can never backpressure the engine — the
engine's own backpressure belongs at ingest, not egress.

A message is serialised at most once on its way out (and not at all
with no listener): :func:`format_sse` does the only ``json.dumps``,
:meth:`MessageAnnouncer.announce` does the only UTF-8 encode, and every
listener queue receives that same ``bytes`` object — the HTTP handler
just joins whatever its queue holds into one write.
"""

from __future__ import annotations

import json
import queue
import threading
from typing import Any, Callable, List, Optional, Union

__all__ = ["format_sse", "MessageAnnouncer"]


def format_sse(data: Any, event: Optional[str] = None, id: Optional[str] = None) -> str:
    """Format one SSE message (``data:`` JSON-encoded unless already str).

    Multi-line payloads are legal SSE — every line gets its own ``data:``
    prefix — but JSON encoding keeps each message to one line anyway.
    """
    payload = data if isinstance(data, str) else json.dumps(data, sort_keys=True)
    lines: List[str] = []
    if event is not None:
        lines.append(f"event: {event}")
    if id is not None:
        lines.append(f"id: {id}")
    for chunk in payload.splitlines() or [""]:
        lines.append(f"data: {chunk}")
    return "\n".join(lines) + "\n\n"


class MessageAnnouncer:
    """Fan one message stream out to any number of SSE listeners.

    Each listener gets its own bounded :class:`queue.Queue` of UTF-8
    encoded messages (encoded once, shared by every listener); announce
    is non-blocking — a full listener queue drops the message for that
    listener (counted in :attr:`dropped`) instead of stalling the
    announcing thread, which may be inside the engine's critical section.
    """

    def __init__(self, max_queue: int = 256) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = max_queue
        self._listeners: List["queue.Queue[bytes]"] = []
        self._lock = threading.Lock()
        self.announced = 0
        self.dropped = 0

    def listen(self) -> "queue.Queue[bytes]":
        """Register a new listener; returns its message queue."""
        q: "queue.Queue[bytes]" = queue.Queue(maxsize=self.max_queue)
        with self._lock:
            self._listeners.append(q)
        return q

    def unlisten(self, q: "queue.Queue[bytes]") -> None:
        """Remove a listener (idempotent)."""
        with self._lock:
            try:
                self._listeners.remove(q)
            except ValueError:
                pass

    def announce(self, msg: Union[str, Callable[[], str]]) -> None:
        """Deliver *msg* to every listener, dropping for full queues; a
        callable *msg* is formatted only if there is a listener."""
        with self._lock:
            listeners = list(self._listeners)
            self.announced += 1
        if not listeners:
            return
        if callable(msg):
            msg = msg()
        data = msg.encode("utf-8")
        for q in listeners:
            try:
                q.put_nowait(data)
            except queue.Full:
                with self._lock:
                    self.dropped += 1

    @property
    def listener_count(self) -> int:
        with self._lock:
            return len(self._listeners)

    def __repr__(self) -> str:
        return (
            f"MessageAnnouncer(listeners={self.listener_count}, "
            f"announced={self.announced}, dropped={self.dropped})"
        )
