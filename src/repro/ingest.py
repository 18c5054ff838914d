"""Ingestion under noisy clocks and transmission delays (Section 6).

The core algorithm assumes "there is no delay between the instant at which
an event is generated and the instant at which it arrives" and that
"timestamps are accurate".  Section 6 names the real-world relaxation as
future work: "clocks in sensors are noisy and message delays may be
significant and random.  The fusion engine must wait long enough after
time t to ensure that sensor data taken at time t arrives with high
probability."

This module implements that wait as a **watermark-based reorder buffer**:

* events arrive in *arrival* order carrying their (possibly past)
  generation timestamps;
* the buffer holds them until the watermark — the maximum arrival time
  seen, minus a configurable ``wait`` — passes their generation timestamp;
* sealed timestamps become phases (via the ordinary
  :class:`~repro.events.PhaseAssembler` semantics); events arriving after
  their timestamp has been sealed are **late**: counted, reported, and
  excluded (the engine cannot revise a phase that may already have
  executed downstream).

The knob the paper describes is explicit: a larger ``wait`` lowers the
late-event rate (fewer effectively false readings of "no message") at the
cost of detection latency.  :func:`late_event_tradeoff` sweeps it — the
error-vs-latency analysis the paper defers; EXPERIMENTS.md records the
curve and ``tests/test_ingest.py::TestTradeoff`` pins its shape.

Clock noise is modelled by :func:`noisy_observations`: true timestamps are
jittered per-sensor before transmission, and transmission adds random
delay, so arrival order differs from generation order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import BackpressureError, WorkloadError
from .events import Event, PhaseInput

__all__ = [
    "ArrivingEvent",
    "ReorderBuffer",
    "Row",
    "bin_timestamp",
    "noisy_observations",
    "late_event_tradeoff",
    "TradeoffPoint",
]

#: One arrival as :meth:`ReorderBuffer.offer_rows` takes it:
#: ``(timestamp, source, value, arrival)`` — an :class:`ArrivingEvent`
#: without the two objects.
Row = Tuple[float, str, Any, float]


def bin_timestamp(timestamp: float, quantum: float) -> float:
    """Round *timestamp* to the nearest multiple of *quantum*, half-up.

    The binning rule must be a pure function of the timestamp — every
    consumer (the reorder buffer, workload generators computing safe
    waits) has to place a given stamp in the same
    snapshot.  Python's ``round()`` is banker's round-half-even, so
    exact half-quantum stamps used to bin by parity (0.5 -> 0.0 but
    1.5 -> 2.0 at quantum 1): identical sensor offsets landed in
    different phases.  Half-up keeps "nearest instant" semantics with a
    deterministic, parity-free tie rule.
    """
    return math.floor(timestamp / quantum + 0.5) * quantum


@dataclass(frozen=True, slots=True)
class ArrivingEvent:
    """An event as seen at the fusion engine's doorstep.

    ``event.timestamp`` is the (noisy) generation timestamp the sensor
    stamped; ``arrival`` is when the engine received it, a finite time
    (an infinite one would move the watermark past every later event).
    """

    event: Event
    arrival: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival):
            raise WorkloadError(f"arrival {self.arrival} is not finite")
        if self.arrival < self.event.timestamp:
            raise WorkloadError(
                f"event arrived before it was generated "
                f"({self.arrival} < {self.event.timestamp})"
            )


class ReorderBuffer:
    """Watermark-based phase sealing for delayed, out-of-order events.

    Parameters
    ----------
    wait:
        How long (in timestamp units) to wait past an instant before
        sealing it — the paper's "wait long enough after time t".
    quantum:
        Timestamp granularity.  Generation timestamps are binned to
        multiples of *quantum* before phase grouping, so jittered clocks
        reading "almost the same instant" land in one snapshot.  This is
        the discrete analogue of the paper's simultaneity assumption.
    max_buffered:
        Optional cap on *pending bins* (distinct unsealed timestamps).
        An offer that would have to open a new bin beyond the cap raises
        :class:`~repro.errors.BackpressureError` instead of growing
        without limit — the serve layer turns that into a producer stall
        / HTTP 429.  Offers into an *existing* bin always succeed (they
        add no bin), and late events are never backpressured (they are
        counted and dropped as usual).  ``None`` (default) is unbounded,
        the batch-mode behaviour.
    max_late_kept:
        Optional cap on how many late :class:`ArrivingEvent` objects are
        *retained* for inspection.  :attr:`late_count` always counts
        every late event; continuous operation sets a small cap so an
        adversarial late stream cannot grow :attr:`late_events` forever.
    """

    def __init__(
        self,
        wait: float,
        quantum: float = 1.0,
        max_buffered: Optional[int] = None,
        max_late_kept: Optional[int] = None,
    ) -> None:
        # Both comparisons are false for NaN; an infinite wait or quantum
        # would never seal a bin.
        if not (0 <= wait < math.inf):
            raise WorkloadError(f"wait must be finite and >= 0, got {wait}")
        if not (0 < quantum < math.inf):
            raise WorkloadError(f"quantum must be finite and > 0, got {quantum}")
        if max_buffered is not None and max_buffered < 1:
            raise WorkloadError(
                f"max_buffered must be >= 1 or None, got {max_buffered}"
            )
        if max_late_kept is not None and max_late_kept < 0:
            raise WorkloadError(
                f"max_late_kept must be >= 0 or None, got {max_late_kept}"
            )
        self.wait = wait
        self.quantum = quantum
        self.max_buffered = max_buffered
        self.max_late_kept = max_late_kept
        self._pending: Dict[float, Dict[str, object]] = {}  # binned ts -> values
        self._watermark = float("-inf")
        self._sealed_upto = float("-inf")
        # The lowest pending bin (inf when none): a seal is due exactly
        # when it falls below the watermark.
        self._lowest = float("inf")
        self._next_phase = 1
        self.late_events: List[ArrivingEvent] = []
        self._late_total = 0
        self.accepted = 0
        self.pending_high_water = 0

    @property
    def watermark(self) -> float:
        """Timestamps at or below this value are sealed or sealable."""
        return self._watermark

    def offer(self, arriving: ArrivingEvent) -> List[PhaseInput]:
        """Ingest one arrival; returns any phases sealed by its watermark
        advance (oldest first).  The one-row case of :meth:`offer_rows`.

        Arrivals must be fed in arrival order (the network delivers them
        that way by construction).

        Raises
        ------
        BackpressureError
            If ``max_buffered`` is set and admitting this event would
            open one pending bin too many.  The event is *not* consumed;
            the producer may retry after the consumer drains (or after
            :meth:`advance_watermark` seals old bins).
        """
        event = arriving.event
        sealed, _, refusal = self.offer_rows(
            [(event.timestamp, event.source, event.value, arriving.arrival)]
        )
        if refusal is not None:
            raise refusal
        return sealed

    def offer_rows(
        self, rows: Sequence[Row]
    ) -> Tuple[List[PhaseInput], int, Optional[Exception]]:
        """Ingest arrivals given as ``(timestamp, source, value, arrival)``
        rows, in arrival order, exactly as one :meth:`offer` each.

        Returns ``(sealed, taken, refusal)``: the phases the rows sealed
        (oldest first) and how many rows were consumed.  Ingest stops at
        the first row the buffer cannot take, which is left unconsumed:
        *refusal* is then the reason — a :class:`BackpressureError` (the
        row would open one pending bin too many) or the ``ValueError`` /
        ``OverflowError`` of a timestamp that does not bin — and ``None``
        when every row was taken.  Returning instead of raising keeps the
        phases sealed before that row, which the caller must still hand
        on.
        """
        pending = self._pending
        quantum = self.quantum
        cap = self.max_buffered
        sealed: List[PhaseInput] = []
        taken = 0
        for timestamp, source, value, arrival in rows:
            try:
                ts = bin_timestamp(timestamp, quantum)
            except (ValueError, OverflowError) as exc:
                return sealed, taken, exc
            if ts <= self._sealed_upto:
                self._record_late(timestamp, source, value, arrival)
                taken += 1
                continue
            slot = pending.get(ts)
            if slot is None:
                if cap is not None and len(pending) >= cap:
                    return sealed, taken, BackpressureError(
                        f"reorder buffer at capacity ({cap} pending "
                        f"bins); timestamp {ts} would open one more"
                    )
                slot = pending[ts] = {}
                if len(pending) > self.pending_high_water:
                    self.pending_high_water = len(pending)
                if ts < self._lowest:
                    self._lowest = ts
            slot[source] = value
            self.accepted += 1
            taken += 1
            watermark = arrival - self.wait
            if watermark > self._watermark:
                self._watermark = watermark
            if self._lowest < self._watermark:
                sealed += self._seal_ready()
        return sealed, taken, None

    def advance_watermark(self, to: float) -> List[PhaseInput]:
        """Force the watermark forward to *to* (wall-clock sealing).

        Arrival-driven sealing stalls when producers go quiet: the last
        few bins wait forever for an arrival to push the watermark past
        them.  A serving loop calls this from its clock ("it is now t,
        anything older than t - wait is sealable") so results keep
        flowing — and so a *full* bounded buffer can drain without a
        producer being able to offer.  Never moves the watermark
        backwards, and ignores a NaN.  Returns the phases sealed (oldest
        first).
        """
        if not to > self._watermark:
            return []
        self._watermark = to
        return self._seal_ready()

    def _record_late(
        self, timestamp: float, source: str, value: Any, arrival: float
    ) -> None:
        self._late_total += 1
        if self.max_late_kept is None or len(self.late_events) < self.max_late_kept:
            self.late_events.append(
                ArrivingEvent(Event(timestamp, source, value), arrival)
            )

    def _seal_ready(self) -> List[PhaseInput]:
        # Strictly below the watermark: an event whose delay equals the
        # wait arrives exactly when watermark == its timestamp, and must
        # still be admitted (wait >= max-delay guarantees zero lateness).
        ready = sorted(ts for ts in self._pending if ts < self._watermark)
        out: List[PhaseInput] = []
        for ts in ready:
            # The popped bin is referenced nowhere else: it becomes the
            # phase's values as it is.
            out.append(PhaseInput(self._next_phase, ts, self._pending.pop(ts)))
            self._next_phase += 1
            self._sealed_upto = ts
        self._lowest = min(self._pending, default=float("inf"))
        return out

    def flush(self) -> List[PhaseInput]:
        """Seal everything still pending (end of stream).

        After a flush the stream is closed: every timestamp counts as
        sealed, so a subsequent :meth:`offer` records its event as late
        instead of resurrecting a phase behind ones already handed out.
        """
        self._watermark = float("inf")
        out = self._seal_ready()
        self._sealed_upto = float("inf")
        return out

    @property
    def late_count(self) -> int:
        """Total late events observed (counted even when the retained
        :attr:`late_events` list is capped by ``max_late_kept``)."""
        return self._late_total

    @property
    def pending_bins(self) -> int:
        """Distinct unsealed timestamps currently buffered."""
        return len(self._pending)

    def __repr__(self) -> str:
        return (
            f"ReorderBuffer(wait={self.wait}, pending={len(self._pending)}, "
            f"sealed_upto={self._sealed_upto}, late={self.late_count})"
        )


def noisy_observations(
    sources: Sequence[str],
    ticks: int,
    clock_noise: float = 0.1,
    delay_mean: float = 0.5,
    delay_jitter: float = 0.5,
    seed: int = 0,
    tick_interval: float = 1.0,
) -> List[ArrivingEvent]:
    """Simulate sensors with drifting clocks over a lossy network.

    Each source observes the world at true instants ``0, 1, ..., ticks-1``
    (scaled by *tick_interval*), stamps each observation with a jittered
    clock reading (Gaussian, sigma = *clock_noise*), and the message takes
    ``delay_mean + U(0, delay_jitter)`` to reach the engine.  Returns the
    arrivals in arrival order — generally *not* generation order, which is
    the whole problem.
    """
    if ticks < 0:
        raise WorkloadError("ticks must be >= 0")
    rng = random.Random(seed)
    offsets = {s: (sum(s.encode()) % 7) for s in sources}  # stable per source
    arrivals: List[ArrivingEvent] = []
    for tick in range(ticks):
        true_ts = tick * tick_interval
        for source in sources:
            stamped = true_ts + rng.gauss(0.0, clock_noise)
            delay = delay_mean + rng.random() * delay_jitter
            arrivals.append(
                ArrivingEvent(
                    Event(stamped, source, round(true_ts + offsets[source], 3)),
                    arrival=max(stamped, true_ts + delay),
                )
            )
    arrivals.sort(key=lambda a: a.arrival)
    return arrivals


@dataclass(frozen=True, slots=True)
class TradeoffPoint:
    """One point of the wait-vs-lateness curve."""

    wait: float
    phases_sealed: int
    events_accepted: int
    events_late: int
    late_rate: float
    mean_sealing_latency: float


def late_event_tradeoff(
    arrivals: Sequence[ArrivingEvent],
    waits: Iterable[float],
    quantum: float = 1.0,
) -> List[TradeoffPoint]:
    """Sweep the watermark wait and measure lateness vs sealing latency.

    *mean_sealing_latency* is the average of (sealing arrival time − phase
    timestamp) over sealed phases: how stale a snapshot is by the time the
    engine may execute it.  The paper's deferred analysis is exactly this
    curve: wait longer and fewer events are effectively lost (fewer false
    "absences"), but every detection gets slower.
    """
    points: List[TradeoffPoint] = []
    for wait in waits:
        buf = ReorderBuffer(wait=wait, quantum=quantum)
        latencies: List[float] = []
        for arriving in arrivals:
            for phase in buf.offer(arriving):
                latencies.append(arriving.arrival - phase.timestamp)
        buf.flush()
        total = buf.accepted + buf.late_count
        points.append(
            TradeoffPoint(
                wait=wait,
                phases_sealed=buf._next_phase - 1,
                events_accepted=buf.accepted,
                events_late=buf.late_count,
                late_rate=buf.late_count / total if total else 0.0,
                mean_sealing_latency=(
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
            )
        )
    return points
