"""Shared fixtures for the serve-layer tests.

The oracle pattern: replay the same arrival stream through a fresh
:class:`ReorderBuffer` (same wait/quantum), run the sealed phases through
the serial executor on a fresh copy of the program, and compare what the
serve pipeline streamed over SSE.  Values are compared after a JSON
round-trip (SSE serialises tuples as lists).
"""

import json
import queue

import pytest

from repro.core.serial import SerialExecutor
from repro.ingest import ReorderBuffer
from repro.models.domains.keyed import build_keyed_workload


def norm(value):
    """JSON round-trip normalisation (tuples become lists, recursively)."""
    return json.loads(json.dumps(value, sort_keys=True, default=repr))


def parse_sse(msg):
    """Parse one SSE message into (event, id, data)."""
    event = sse_id = None
    data_lines = []
    for line in msg.splitlines():
        if line.startswith("event: "):
            event = line[len("event: "):]
        elif line.startswith("id: "):
            sse_id = line[len("id: "):]
        elif line.startswith("data: "):
            data_lines.append(line[len("data: "):])
    data = json.loads("\n".join(data_lines)) if data_lines else None
    return event, sse_id, data


def drain_queue(q):
    """All messages currently buffered on an announcer listener queue
    (listeners hold the UTF-8 wire bytes; tests read text)."""
    out = []
    while True:
        try:
            out.append(q.get_nowait().decode("utf-8"))
        except queue.Empty:
            break
    return out


def phase_events(messages):
    """The parsed ``event: phase`` payloads from raw SSE messages."""
    out = []
    for msg in messages:
        event, _id, data = parse_sse(msg)
        if event == "phase":
            out.append(data)
    return out


def serial_oracle(workload):
    """(records_by_phase, records_by_ts, n_phases) for a keyed workload.

    Replays ``workload.arrivals`` through a fresh buffer + serial
    executor.  Entries are ``(vertex, normalised value)`` sorted by
    vertex name.
    """
    buf = ReorderBuffer(wait=workload.wait, quantum=workload.quantum)
    phases = []
    for a in workload.arrivals:
        phases.extend(buf.offer(a))
    phases.extend(buf.flush())
    result = SerialExecutor(workload.program).run(phases)
    by_phase = {}
    by_ts = {}
    ts_of = {pi.phase: pi.timestamp for pi in phases}
    for name, recs in result.records.items():
        for phase, value in recs:
            by_phase.setdefault(phase, []).append([name, norm(value)])
            by_ts.setdefault(ts_of[phase], []).append([name, norm(value)])
    for entries in by_phase.values():
        entries.sort()
    for entries in by_ts.values():
        entries.sort()
    return by_phase, by_ts, len(phases)


@pytest.fixture
def keyed_workload():
    """A small but non-trivial keyed laundering workload (fresh copy)."""
    return build_keyed_workload(num_keys=4, ticks=30, seed=17)


@pytest.fixture
def keyed_workload_oracle():
    """An identical, independent copy for the serial oracle."""
    return build_keyed_workload(num_keys=4, ticks=30, seed=17)
