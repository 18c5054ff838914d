"""Edge message channels with Δ-dataflow latching semantics.

Section 3.1.2: executing a pair ``(v, p)`` means consuming any inputs ``v``
received for phase ``p`` **and using previous values for any inputs it has
not received for phase p**.  Because the pipeline lets a predecessor run
many phases ahead of a consumer, an edge cannot hold just "the latest
value" — it holds a small per-phase history, and a consumer executing
phase ``p`` reads the newest entry whose phase is ``<= p``.

:class:`EdgeChannel` stores that history and garbage-collects superseded
entries once the consumer has moved past them; a send must exceed one floor,
the newer of the last phase sent and the consumer's GC point.

:class:`EdgeStore` owns one channel per graph edge and, per vertex, the
flat in- and out-channel tables the pair data path walks: a *run* — one
vertex, ascending phases — reads each input channel once
(:meth:`EdgeChannel.read_run`), sends member by member, and is accounted
and garbage-collected once (:meth:`EdgeStore.settle_run`).  All mutation
happens inside the engine's single global lock, so the structures
themselves are unsynchronised.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Sequence, Set, Tuple

from ..errors import SchedulerError
from ..graph.numbering import Numbering

__all__ = ["EdgeChannel", "EdgeStore"]


class EdgeChannel:
    """The message history of one directed edge.

    Entries are ``(phase, value)`` with strictly increasing phases.
    """

    __slots__ = ("_phases", "_values", "_consumed_upto", "_floor")

    def __init__(self) -> None:
        self._phases: List[int] = []
        self._values: List[Any] = []
        self._consumed_upto = 0
        self._floor = 0  # max(last phase sent, consumed_upto): a send exceeds it

    def send(self, phase: int, value: Any) -> None:
        """Append the phase-*phase* message.

        Phases must arrive strictly increasing — the sender executes its
        phases in order, and sends at most one message per edge per phase.
        """
        if phase <= self._floor:
            if self._phases and phase <= self._phases[-1]:
                raise SchedulerError(
                    f"edge message for phase {phase} after phase {self._phases[-1]}: "
                    f"senders must emit in strictly increasing phase order"
                )
            raise SchedulerError(
                f"edge message for phase {phase} arrived after the consumer "
                f"finished phase {self._consumed_upto}"
            )
        self._floor = phase
        self._phases.append(phase)
        self._values.append(value)

    def read_run(
        self,
        name: str,
        phases: Sequence[int],
        inputs: Sequence[Dict[str, Any]],
        changed: Sequence[Set[str]],
    ) -> None:
        """Fill in what a consumer executing each of the ascending
        *phases* observes on this input, under the key *name*.

        ``inputs[i][name]`` becomes the newest entry with phase ``<=
        phases[i]`` (left unset if there is none); *name* joins
        ``changed[i]`` iff an entry exists at exactly ``phases[i]`` (a
        message for that phase is waiting on this input).  Entries and
        phases both ascend, so one forward cursor serves the whole run.
        """
        at, values = self._phases, self._values
        n = len(at)
        i = 0
        for k, phase in enumerate(phases):
            while i < n and at[i] <= phase:
                i += 1
            if i:
                inputs[k][name] = values[i - 1]
                if at[i - 1] == phase:
                    changed[k].add(name)

    def consume_upto(self, phase: int) -> int:
        """Mark phases ``<= phase`` consumed and drop superseded entries.

        The newest entry with phase ``<= phase`` is *retained*: it is the
        latched "previous value" for later phases that bring no message.
        Returns the number of entries dropped (memory instrumentation).
        """
        if phase < self._consumed_upto:
            return 0
        self._consumed_upto = phase
        if phase > self._floor:
            self._floor = phase
        idx = bisect_right(self._phases, phase)
        if idx > 1:
            # Keep the latched entry at idx-1; drop everything before it.
            del self._phases[: idx - 1]
            del self._values[: idx - 1]
            return idx - 1
        return 0

    @property
    def pending_entries(self) -> int:
        """Entries currently stored (after GC) — memory instrumentation."""
        return len(self._phases)

    def __repr__(self) -> str:
        return (
            f"EdgeChannel(entries={list(zip(self._phases, self._values))!r}, "
            f"consumed_upto={self._consumed_upto})"
        )


class EdgeStore:
    """All edge channels of one run, with flat per-vertex channel tables.

    Built once per run of the program.  ``in_channels[v]`` lists
    ``(predecessor name, channel)`` and ``out_channels[v]`` lists
    ``(successor name, successor index, channel)``, both in ascending
    neighbour-index order (slot 0 unused) — the form the pair data path
    walks, so it never hashes an edge tuple or translates between
    indices and names.  ``preds`` / ``succs`` are the index adjacency.
    """

    def __init__(self, numbering: Numbering) -> None:
        self._channels: Dict[Tuple[int, int], EdgeChannel] = {}
        self.preds: Dict[int, List[int]] = {}
        self.succs: Dict[int, List[int]] = {}
        # O(1) memory instrumentation: entries currently buffered across
        # all channels, and the run's high-water mark.  Unbounded
        # pipelining lets these grow with the phase backlog; flow control
        # bounds them (the memory ablation measures exactly this).
        self.live_entries = 0
        self.peak_entries = 0
        g = numbering.graph
        n = numbering.n
        names = [""] + [numbering.name_of(v) for v in range(1, n + 1)]
        for v in range(1, n + 1):
            self.preds[v] = sorted(numbering.index_of[u] for u in g.predecessors(names[v]))
            self.succs[v] = sorted(numbering.index_of[w] for w in g.successors(names[v]))
            for w in self.succs[v]:
                self._channels[(v, w)] = EdgeChannel()
        self.in_channels: List[List[Tuple[str, EdgeChannel]]] = [[]] + [
            [(names[u], self._channels[(u, v)]) for u in self.preds[v]]
            for v in range(1, n + 1)
        ]
        self.out_channels: List[List[Tuple[str, int, EdgeChannel]]] = [[]] + [
            [(names[w], w, self._channels[(v, w)]) for w in self.succs[v]]
            for v in range(1, n + 1)
        ]

    def channel(self, src: int, dst: int) -> EdgeChannel:
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise SchedulerError(f"no edge {src} -> {dst}") from None

    def settle_run(self, dst: int, upto: int, sent: int) -> None:
        """Close the books on one committed run of *dst* (caller holds
        the lock): account the messages it *sent*, sample
        the high-water mark — after the run's sends, before its GC — and
        garbage-collect *dst*'s input channels up to *upto*, the last
        committed member's phase.  ``consume_upto`` is monotone, so one
        GC there leaves the channels as the per-member GCs would."""
        live = self.live_entries + sent
        if live > self.peak_entries:
            self.peak_entries = live
        for _, ch in self.in_channels[dst]:
            live -= ch.consume_upto(upto)
        self.live_entries = live

    def total_pending_entries(self) -> int:
        """Total stored entries across channels (memory instrumentation)."""
        return sum(ch.pending_entries for ch in self._channels.values())
