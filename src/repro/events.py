"""Events and phase assembly.

The paper's model (Section 2): external events carry timestamps; all events
with the same timestamp form a *phase* (a snapshot of the environment at
that instant), and phases are indexed sequentially in timestamp order.  The
data-fusion engine treats every event within a phase as simultaneous.

This module provides:

* :class:`Event` — a timestamped external observation addressed to a source
  vertex.
* :class:`PhaseInput` — the external inputs of one phase.
* :class:`PhaseAssembler` — groups a timestamp-ordered event stream into
  phases, assigning sequential phase numbers starting at 1, exactly as the
  paper's indexing scheme requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping

from .errors import PhaseOrderError

__all__ = ["Event", "PhaseInput", "PhaseAssembler", "assemble_phases"]


@dataclass(frozen=True, slots=True)
class Event:
    """A timestamped external observation.

    Attributes
    ----------
    timestamp:
        Generation instant.  The paper assumes zero transmission delay and
        perfectly accurate clocks, so arrival time equals ``timestamp``.
    source:
        Name of the source vertex this event is addressed to.
    value:
        Arbitrary payload (sensor reading, transaction record, ...).
    """

    timestamp: float
    source: str
    value: Any

    def __post_init__(self) -> None:
        if not isinstance(self.source, str) or not self.source:
            raise ValueError("Event.source must be a non-empty string")


@dataclass(frozen=True, slots=True)
class PhaseInput:
    """The external inputs for one phase.

    Attributes
    ----------
    phase:
        Sequential phase number (1-based).
    timestamp:
        The instant this phase snapshots.
    values:
        Mapping from source-vertex name to the payload delivered to that
        source in this phase.  Sources absent from the mapping receive a
        bare *phase signal* (Section 3.1.2): they are still scheduled for
        the phase but observe no new external datum.
    """

    phase: int
    timestamp: float
    values: Mapping[str, Any] = field(default_factory=dict)

    def value_for(self, source: str, default: Any = None) -> Any:
        """Return the payload for *source*, or *default* if none arrived."""
        return self.values.get(source, default)

    def __contains__(self, source: str) -> bool:
        return source in self.values


class PhaseAssembler:
    """Groups a timestamp-ordered event stream into sequential phases.

    All events sharing a timestamp belong to one phase (Section 2).  The
    assembler enforces the paper's assumption that events arrive in
    timestamp order; out-of-order events raise :class:`PhaseOrderError`
    because the model has no re-ordering buffer (Section 6 lists delayed /
    noisy timestamps as future work).

    Examples
    --------
    >>> pa = PhaseAssembler()
    >>> pa.add(Event(0.0, "a", 1))
    >>> pa.add(Event(0.0, "b", 2))
    >>> pa.add(Event(1.5, "a", 3))
    >>> [pi.phase for pi in pa.flush()]   # phase 2 is still open
    [1]
    >>> [pi.phase for pi in pa.finish()]  # end of stream seals it
    [2]
    """

    def __init__(self) -> None:
        self._next_phase = 1
        self._current_ts: float | None = None
        self._current: Dict[str, Any] = {}
        self._completed: List[PhaseInput] = []
        self._last_emitted_ts: float | None = None

    @property
    def next_phase(self) -> int:
        """The phase number the next new timestamp will be assigned."""
        return self._next_phase

    def add(self, event: Event) -> None:
        """Ingest one event; events must arrive in timestamp order."""
        ts = event.timestamp
        if self._last_emitted_ts is not None and ts <= self._last_emitted_ts:
            raise PhaseOrderError(
                f"event timestamp {ts} is not after already-flushed "
                f"timestamp {self._last_emitted_ts}"
            )
        if self._current_ts is None:
            self._current_ts = ts
        elif ts < self._current_ts:
            raise PhaseOrderError(
                f"event timestamp {ts} arrived after timestamp {self._current_ts}"
            )
        elif ts > self._current_ts:
            self._seal_current()
            self._current_ts = ts
        if event.source in self._current:
            # Two same-phase events for one source: the later one wins, as a
            # snapshot holds a single value per source per instant.
            pass
        self._current[event.source] = event.value

    def _seal_current(self) -> None:
        assert self._current_ts is not None
        self._completed.append(
            PhaseInput(self._next_phase, self._current_ts, dict(self._current))
        )
        self._next_phase += 1
        self._current = {}
        self._current_ts = None

    def flush(self) -> List[PhaseInput]:
        """Return all phases sealed so far (a phase seals when a strictly
        later timestamp is observed).  The in-progress phase is retained."""
        out, self._completed = self._completed, []
        if out:
            self._last_emitted_ts = out[-1].timestamp
        return out

    def finish(self) -> List[PhaseInput]:
        """Seal the in-progress phase (end of stream) and return everything
        not yet flushed."""
        if self._current_ts is not None:
            self._seal_current()
        return self.flush()


def assemble_phases(events: Iterable[Event]) -> List[PhaseInput]:
    """Assemble a finite, timestamp-ordered event iterable into phases.

    Convenience wrapper around :class:`PhaseAssembler` for batch use::

        phases = assemble_phases(my_trace)
        engine.run(phases)
    """
    pa = PhaseAssembler()
    for ev in events:
        pa.add(ev)
    return pa.finish()

