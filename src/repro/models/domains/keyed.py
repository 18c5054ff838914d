"""Keyed account-laundering traffic: the serve layer's heavy fixture.

The serve and differential tests need a workload that is (a) **keyed** —
one independent detection chain per account, a graph whose components
share no path, so the scheduler may run them concurrently; (b)
**externally driven** — sources emit only what the stream delivers
(``PassthroughSource``), so a chain is silent in a phase that brings it
no event; and (c) **bit-deterministic per key** — an account's event
stream is a pure function of ``(seed, key)``, so every run sees
identical per-key data no matter which other keys share it.

Each account runs ``txn[k] -> detect[k] -> audit[k]``: transactions
(amount payloads keyed by account) feed a structuring detector that
alerts when an amount spikes against the account's own rolling baseline
— the money-laundering shape from Section 1, per key.  Alert payloads
deliberately contain **no phase numbers**, so a record's value does not
depend on how many phases other keys' traffic opened before it.

:func:`keyed_arrivals` also computes the exact watermark wait that
guarantees zero lateness for its own traffic (the worst
arrival-minus-binned-timestamp gap), which is the condition under which
a run fed in arrival order equals one fed in timestamp order.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ...core.program import Program
from ...core.vertex import EMIT_NOTHING, PassthroughSource, Vertex, VertexContext
from ...errors import WorkloadError
from ...events import Event
from ...graph.model import ComputationGraph
from ...ingest import ArrivingEvent, bin_timestamp
from ..basic import Recorder, single_changed_value

__all__ = [
    "StructuringDetector",
    "KeyedWorkload",
    "build_keyed_program",
    "keyed_arrivals",
    "keyed_arrival_stream",
    "build_keyed_workload",
]


class StructuringDetector(Vertex):
    """Per-account spike detector over a rolling amount baseline.

    Alerts with ``("laundering-alert", key, amount, ratio)`` when an
    amount exceeds *threshold* times the account's rolling mean (the
    alerted amount is excluded from the baseline so a spike does not
    mask its successors); silent otherwise — the Δ discipline.
    """

    def __init__(
        self, key: Hashable, window: int = 8, threshold: float = 3.0
    ) -> None:
        if window < 1:
            raise WorkloadError(f"window must be >= 1, got {window}")
        if threshold <= 1.0:
            raise WorkloadError(f"threshold must be > 1, got {threshold}")
        self.key = key
        self.window = window
        self.threshold = threshold
        self._amounts: deque = deque(maxlen=window)

    def reset(self) -> None:
        self._amounts = deque(maxlen=self.window)

    def on_execute(self, ctx: VertexContext) -> Any:
        changed, payload = single_changed_value(ctx)
        if not changed:
            return EMIT_NOTHING
        amount = float(payload["amount"])
        if len(self._amounts) >= max(3, self.window // 2):
            mean = sum(self._amounts) / len(self._amounts)
            if mean > 0 and amount > self.threshold * mean:
                return (
                    "laundering-alert",
                    self.key,
                    round(amount, 6),
                    round(amount / mean, 4),
                )
        self._amounts.append(amount)
        return EMIT_NOTHING


def build_keyed_program(
    keys: Sequence[Hashable],
    window: int = 8,
    threshold: float = 3.0,
    name: Optional[str] = None,
) -> Tuple[Program, Dict[str, Hashable]]:
    """One ``txn -> detect -> audit`` chain per key.

    Returns the program and the source -> key mapping.
    """
    if not keys:
        raise WorkloadError("at least one key is required")
    if len(set(keys)) != len(keys):
        raise WorkloadError("keys must be distinct")
    g = ComputationGraph(name=name or f"keyed[{len(keys)}]")
    behaviors: Dict[str, Vertex] = {}
    key_of_source: Dict[str, Hashable] = {}
    for k in keys:
        src, det, sink = f"txn[{k}]", f"detect[{k}]", f"audit[{k}]"
        g.add_vertices([src, det, sink])
        g.add_edge(src, det)
        g.add_edge(det, sink)
        behaviors[src] = PassthroughSource()
        behaviors[det] = StructuringDetector(
            k, window=window, threshold=threshold
        )
        behaviors[sink] = Recorder()
        key_of_source[src] = k
    return Program(g, behaviors, name=g.name), key_of_source


def keyed_arrivals(
    keys: Sequence[Hashable],
    ticks: int,
    seed: int = 0,
    anomaly_rate: float = 0.08,
    clock_noise: float = 0.05,
    delay_mean: float = 0.3,
    delay_jitter: float = 0.4,
    drop_rate: float = 0.1,
    tick_interval: float = 1.0,
    quantum: float = 1.0,
) -> Tuple[List[ArrivingEvent], float]:
    """Per-key transaction traffic over a noisy, delaying network.

    Every account draws from its own ``Random(f"{seed}|{key}")`` stream,
    so its events are identical no matter which other keys share the
    run.  Amounts are a steady baseline with occasional *anomaly_rate*
    structuring spikes; stamps get Gaussian clock noise; delivery adds
    bounded random delay; *drop_rate* thins ticks so sources are
    genuinely bursty.

    Returns ``(arrivals in arrival order, wait)`` where *wait* is the
    smallest watermark wait with **zero lateness** for this traffic —
    a reorder buffer run with it drops nothing.
    """
    if ticks < 0:
        raise WorkloadError("ticks must be >= 0")
    arrivals: List[ArrivingEvent] = []
    for k in keys:
        rng = random.Random(f"{seed}|{k}")
        for tick in range(ticks):
            if rng.random() < drop_rate:
                continue
            base = 40.0 + 20.0 * rng.random()
            if rng.random() < anomaly_rate:
                base *= 6.0 + 4.0 * rng.random()
            true_ts = tick * tick_interval
            stamped = round(true_ts + rng.gauss(0.0, clock_noise), 6)
            delay = delay_mean + rng.random() * delay_jitter
            arrival = max(stamped, round(true_ts + delay, 6))
            arrivals.append(
                ArrivingEvent(
                    Event(
                        stamped,
                        f"txn[{k}]",
                        {"account": k, "amount": round(base, 6)},
                    ),
                    arrival=arrival,
                )
            )
    arrivals.sort(key=lambda a: (a.arrival, a.event.source, a.event.timestamp))
    wait = 0.0
    for a in arrivals:
        gap = a.arrival - bin_timestamp(a.event.timestamp, quantum)
        wait = max(wait, gap)
    return arrivals, wait + 1e-9


def keyed_arrival_stream(
    keys: Sequence[Hashable],
    ticks: int,
    seed: int = 0,
    anomaly_rate: float = 0.08,
    clock_noise: float = 0.05,
    delay_mean: float = 0.3,
    delay_jitter: float = 0.4,
    drop_rate: float = 0.1,
    tick_interval: float = 1.0,
):
    """:func:`keyed_arrivals` as a **bounded-memory generator**.

    The list form materialises ``keys * ticks`` events up front — fine
    for the differential tests, fatal for the serve layer's soak runs
    (10^5+ phases must not allocate the whole stream).  This yields the
    same events in the same arrival order while holding only the
    events still "in the network": per key, draws are identical to the
    list form (each account's stream is a pure function of
    ``(seed, key)``), and a rolling heap releases an arrival once no
    later tick can generate an earlier one (every event from tick t
    arrives at ``>= t * tick_interval + delay_mean``).

    Pick the watermark wait as ``delay_mean + delay_jitter + k * sigma``
    of the clock noise for the lateness rate you can tolerate; unlike
    the list form there is no whole-stream pass to compute the exact
    zero-lateness wait.
    """
    if ticks < 0:
        raise WorkloadError("ticks must be >= 0")
    import heapq

    rngs = {k: random.Random(f"{seed}|{k}") for k in keys}
    heap: List[Tuple[float, str, float, int, ArrivingEvent]] = []
    counter = 0
    for tick in range(ticks):
        # Nothing generated at this or a later tick can arrive before
        # tick * tick_interval + delay_mean; older arrivals are final.
        threshold = tick * tick_interval + delay_mean
        while heap and heap[0][0] < threshold:
            yield heapq.heappop(heap)[-1]
        true_ts = tick * tick_interval
        for k in keys:
            rng = rngs[k]
            if rng.random() < drop_rate:
                continue
            base = 40.0 + 20.0 * rng.random()
            if rng.random() < anomaly_rate:
                base *= 6.0 + 4.0 * rng.random()
            stamped = round(true_ts + rng.gauss(0.0, clock_noise), 6)
            delay = delay_mean + rng.random() * delay_jitter
            arrival = max(stamped, round(true_ts + delay, 6))
            event = ArrivingEvent(
                Event(
                    stamped,
                    f"txn[{k}]",
                    {"account": k, "amount": round(base, 6)},
                ),
                arrival=arrival,
            )
            heapq.heappush(
                heap,
                (arrival, event.event.source, stamped, counter, event),
            )
            counter += 1
    while heap:
        yield heapq.heappop(heap)[-1]


@dataclass(frozen=True)
class KeyedWorkload:
    """A keyed program plus its traffic and the zero-lateness wait."""

    program: Program
    key_of_source: Dict[str, Hashable]
    arrivals: List[ArrivingEvent]
    wait: float
    quantum: float


def build_keyed_workload(
    num_keys: int = 8,
    ticks: int = 60,
    seed: int = 0,
    window: int = 8,
    threshold: float = 3.0,
    quantum: float = 1.0,
    **traffic: Any,
) -> KeyedWorkload:
    """The standard keyed fixture: *num_keys* account chains plus
    their arrival stream and safe wait."""
    if num_keys < 1:
        raise WorkloadError(f"num_keys must be >= 1, got {num_keys}")
    keys = [f"acct{i:02d}" for i in range(num_keys)]
    program, key_of_source = build_keyed_program(
        keys, window=window, threshold=threshold
    )
    arrivals, wait = keyed_arrivals(
        keys, ticks, seed=seed, quantum=quantum, **traffic
    )
    return KeyedWorkload(
        program=program,
        key_of_source=key_of_source,
        arrivals=arrivals,
        wait=wait,
        quantum=quantum,
    )
