"""The load generator: open-loop pacing, latency stamping, the HTTP client.

Closed loop (throughput): the next group is sent as soon as the previous
send returned, so a slow system simply receives less load.  Open loop
(latency): group *i* is **due** at ``start + i * interval`` whatever the
system does; a phase's latency is measured from the due time of the group
whose arrival sealed it, so a stall that delays later sends lengthens the
latency of everything queued behind it instead of hiding it.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LATE_SEND_S = 0.002  # a send that starts this long after its due time is late


def open_loop(
    groups: Sequence[Any],
    interval_s: float,
    send: Callable[[Any], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[List[float], List[float]]:
    """Send ``groups[i]`` at ``start + i * interval_s``.

    Returns ``(due, lag)``: each group's due time on *clock* and how long
    after it the send actually began (0 when on time).
    """
    start = clock()
    due: List[float] = []
    lag: List[float] = []
    for i, group in enumerate(groups):
        at = start + i * interval_s
        remaining = at - clock()
        if remaining > 0:
            sleep(remaining)
        lag.append(max(0.0, clock() - at))
        due.append(at)
        send(group)
    return due, lag


def phase_latencies_ms(
    sealed_by: Sequence[Optional[int]],
    first_group: int,
    due: Sequence[float],
    receipt: Dict[int, float],
) -> Tuple[List[float], int]:
    """Latency of every phase sealed by an open-loop group, from that
    group's **due** time to the phase's receipt at the sink.

    ``due[i]`` belongs to group ``first_group + i``.  Returns the
    latencies in ms and the number of such phases that never arrived
    (each of those misses any latency limit).
    """
    out: List[float] = []
    missing = 0
    for phase, group in enumerate(sealed_by, start=1):
        if group is None or group < first_group:
            continue
        got = receipt.get(phase)
        if got is None:
            missing += 1
        else:
            out.append((got - due[group - first_group]) * 1e3)
    return out, missing


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class HttpProducer:
    """One keep-alive connection POSTing NDJSON bodies to ``/events``."""

    def __init__(self, host: str, port: int, retries: int = 40) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        self.retries = retries
        self.post_s: List[float] = []  # round trip of every POST
        self.http_429 = 0
        self.accepted = 0
        self.late = 0
        self.refused_events = 0  # still refused after the bounded retry

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, Any]:
        self.conn.request(method, path, body=body)
        resp = self.conn.getresponse()
        payload = resp.read()
        return resp.status, json.loads(payload) if payload else None

    def post_events(self, body: bytes) -> None:
        lines = body.splitlines(keepends=True)
        for _ in range(self.retries):
            started = time.perf_counter()
            status, reply = self.request("POST", "/events", b"".join(lines))
            self.post_s.append(time.perf_counter() - started)
            self.accepted += reply.get("accepted", 0)
            self.late += reply.get("late", 0)
            if status == 200:
                return
            if status != 429:
                break
            # Resume from the refused line after the server drains a bit.
            self.http_429 += 1
            lines = lines[reply["rejected_line"] - 1 :]
            time.sleep(0.02)
        self.refused_events += len(lines)

    def close(self) -> None:
        self.conn.close()


class SseReader(threading.Thread):
    """Reads ``GET /stream`` on its own connection and stamps each
    ``phase`` frame on receipt; frames are parsed after the run."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(name="sse-reader", daemon=True)
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        self.conn.request("GET", "/stream")
        # Headers are back only after the server registered the listener,
        # so no frame announced from here on can be missed.
        self.resp = self.conn.getresponse()
        self.frames: List[Tuple[float, bytes]] = []
        self.count = 0
        self.arrived = threading.Condition()

    def run(self) -> None:
        is_phase = False
        try:
            while True:
                line = self.resp.readline()
                if not line:
                    return
                if line.startswith(b"event:"):
                    is_phase = line.strip() == b"event: phase"
                elif line.startswith(b"data:") and is_phase:
                    self.frames.append((time.perf_counter(), line[5:]))
                    with self.arrived:
                        self.count += 1
                        self.arrived.notify_all()
        except (OSError, http.client.HTTPException, ValueError):
            return  # connection closed under us at shutdown

    def wait_for(self, count: int, timeout: float) -> bool:
        """Until *count* frames are in (phases retire in order, one frame
        each, so that is also "until phase *count* arrived")."""
        deadline = time.monotonic() + timeout
        with self.arrived:
            while self.count < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.arrived.wait(remaining)
        return True

    def parsed(self) -> List[Tuple[float, Dict[str, Any]]]:
        return [(stamp, json.loads(raw)) for stamp, raw in list(self.frames)]

    def close(self) -> None:
        self.conn.close()
