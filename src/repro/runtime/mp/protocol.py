"""The coordinator <-> worker wire protocol.

Everything that crosses a process boundary is one of the message types
below, pickled into a bytes frame by :func:`encode` and restored by
:func:`decode`:

* :class:`RunMsg` — coordinator -> worker, the only task frame: one run
  (v, [p..p+k]) claimed via
  :meth:`~repro.core.state.SchedulerState.claim_run`; a single pair is a
  run of one.  It carries *prepared* context snapshots, never live
  engine objects, so a frame is self-contained and replayable.  The
  vertex id, name and successor tuple ride the frame once; each
  :class:`RunMember` carries only the per-phase payload (phase, latched
  inputs, changed set, external input).  One frame costs one pickle
  header and one queue round trip regardless of how many members it
  carries, and a latched input that did not change between members is
  the same object in each, which pickle writes once and back-references.
  The first frame of a vertex the coordinator has *promoted* (it ran the
  vertex itself until then) also carries the behaviour object itself, in
  ``behavior``, holding the state those runs left: a worker starts empty
  and holds exactly the vertices promoted to it.
* :class:`ResultBatch` — worker -> coordinator, the only result frame:
  the run's vertex and one :class:`ResultMsg` entry per executed member
  of a :class:`RunMsg`, in member order.  A reply ends at its error
  entry: when a member fails, the batch carries every result produced
  *before* the failure and then the error entry itself (its exact
  phase), so the coordinator commits the survivors before surfacing the
  error; the members behind it never ran.
* :class:`ShutdownMsg` — coordinator -> worker: drain and exit; the
  worker answers with a :class:`FinalStateMsg` carrying the
  :meth:`~repro.core.vertex.Vertex.snapshot_state` of every behaviour
  promoted to it, so each promoted vertex's state crosses the pipe once
  each way.
* :class:`WorkerCrashMsg` — worker -> coordinator: the worker loop itself
  failed (bad frame, unpicklable state, ...).  Distinct from a vertex
  failure so the engine can report the right root cause.

Framing is explicit (we pickle to bytes ourselves, then put the bytes on
a ``multiprocessing`` queue) so both directions can be metered: the
engine reports ``serialization_bytes`` per traffic class and
``ipc_round_trips`` in :attr:`RunResult.stats`.  :class:`WireStats`
accumulates those counters coordinator-side, every frame under exactly
one class, so the per-class byte counts sum to the actual pipe traffic.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Optional, Sequence, Tuple

from ...core.vertex import VertexContext

__all__ = [
    "RunMember",
    "RunMsg",
    "ResultMsg",
    "ResultBatch",
    "ShutdownMsg",
    "FinalStateMsg",
    "WorkerCrashMsg",
    "encode",
    "decode",
    "run_from_contexts",
    "WireStats",
]


def _positional(cls: type) -> type:
    """Pickle *cls* as ``cls(*field values)``: a slotted dataclass
    otherwise pickles through per-instance ``fields()`` walks in Python,
    several microseconds per object each way — per frame, on the
    coordinator's one thread, that is the dominant encode/decode cost of
    a run of one."""
    values = attrgetter(*cls.__slots__)
    cls.__reduce__ = lambda self: (cls, values(self))
    return cls


@_positional
@dataclass(frozen=True, slots=True)
class RunMember:
    """One phase of a run: the per-phase payload only (the vertex id,
    name and successors ride the enclosing :class:`RunMsg`)."""

    phase: int
    inputs: Dict[str, Any]
    changed: Tuple[str, ...]
    phase_input: Any = None


@_positional
@dataclass(frozen=True, slots=True)
class RunMsg:
    """A run (v, [p..p+k]), one member or many: members execute
    back-to-back worker-side, in the order given (ascending phase).
    ``behavior``, on a promoted vertex's first frame only, is the
    :class:`~repro.core.vertex.Vertex` itself, which the worker adopts
    before the first member."""

    vertex: int
    name: str
    successors: Tuple[str, ...]
    members: Tuple[RunMember, ...] = ()
    behavior: Any = None


@_positional
@dataclass(frozen=True, slots=True)
class ResultMsg:
    """One executed member of a run — an entry of a :class:`ResultBatch`,
    never a frame of its own: outputs + records, or the vertex error.

    ``error`` is ``None`` on success, else the stringified vertex failure
    (the coordinator re-raises it as
    :class:`~repro.errors.VertexExecutionError` with the original vertex
    name and phase).  Every output rides the wire and the coordinator
    delivers every one.
    """

    phase: int
    outputs: Dict[str, Any] = field(default_factory=dict)
    records: Tuple[Any, ...] = ()
    error: Optional[str] = None


@_positional
@dataclass(frozen=True, slots=True)
class ResultBatch:
    """The results of one :class:`RunMsg` of *vertex*, in member order.

    A reply ends at its error entry: results that precede it are the
    batch's survivors, which the coordinator commits before re-raising
    the error.
    """

    worker_id: int
    vertex: int
    results: Tuple[ResultMsg, ...] = ()


@dataclass(frozen=True, slots=True)
class ShutdownMsg:
    """Drain, report final vertex state, and exit."""


@dataclass(frozen=True, slots=True)
class FinalStateMsg:
    """The worker's parting report: vertex states and cumulative busy
    seconds.

    ``states`` maps the name of each vertex promoted to this worker to
    its :meth:`~repro.core.vertex.Vertex.snapshot_state`, which the
    coordinator applies with
    :meth:`~repro.core.vertex.Vertex.restore_state`.  A worker holds no
    other vertex, so no other is named.
    """

    worker_id: int
    states: Dict[str, Any] = field(default_factory=dict)
    busy_s: float = 0.0


@dataclass(frozen=True, slots=True)
class WorkerCrashMsg:
    """The worker loop itself failed (not a vertex computation)."""

    worker_id: int
    message: str


def encode(msg: object) -> bytes:
    """Pickle *msg* into a self-contained frame."""
    return pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)


def decode(frame: bytes) -> object:
    """Restore a frame produced by :func:`encode`.

    Frames are whole pickle blobs: a truncated ("partially read") frame
    raises ``pickle.UnpicklingError`` / ``EOFError`` rather than yielding
    a corrupt message, which the worker loop reports as a
    :class:`WorkerCrashMsg`.
    """
    return pickle.loads(frame)


def run_from_contexts(
    v: int,
    prepared: Sequence[Tuple[int, VertexContext]],
    behavior: Any = None,
) -> RunMsg:
    """Snapshot a claimed run's prepared contexts into one run frame.

    *prepared* is the ascending-phase list of ``(phase, ctx)`` for the
    members of one :meth:`~repro.core.state.SchedulerState.claim_run`
    result.  The vertex name and successor tuple are taken from the head
    context and ride the frame once.
    """
    if not prepared:
        raise ValueError("run_from_contexts: empty member list")
    head = prepared[0][1]
    return RunMsg(
        vertex=v,
        name=head.name,
        successors=tuple(head._successors),
        members=tuple(
            RunMember(
                phase=p,
                inputs=ctx.inputs,
                changed=tuple(sorted(ctx.changed)),
                phase_input=ctx.phase_input,
            )
            for p, ctx in prepared
        ),
        behavior=behavior,
    )


class WireStats:
    """Byte and message counters per traffic class (coordinator side).

    Classes: ``runs`` (:class:`RunMsg` frames), ``result_batches``
    (their replies: :class:`ResultBatch` frames, or the crash report sent
    instead), ``final_state`` (shutdown replies), ``shutdown`` (the drain
    requests).  Every frame that crosses a queue is counted under
    exactly one class, so ``total_bytes`` equals the actual pipe traffic.
    """

    CLASSES = ("runs", "result_batches", "final_state", "shutdown")

    def __init__(self) -> None:
        self.bytes: Dict[str, int] = {c: 0 for c in self.CLASSES}
        self.messages: Dict[str, int] = {c: 0 for c in self.CLASSES}

    def count(self, traffic_class: str, frame: bytes) -> None:
        self.bytes[traffic_class] += len(frame)
        self.messages[traffic_class] += 1

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            c: {"messages": self.messages[c], "bytes": self.bytes[c]}
            for c in self.CLASSES
        }
        out["total_bytes"] = sum(self.bytes.values())
        return out
