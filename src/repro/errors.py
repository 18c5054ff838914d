"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.

The hierarchy mirrors the layering of the system (docs/ARCHITECTURE.md §1.2):
graph construction and numbering errors sit below scheduling errors, which
sit below engine errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "CycleError",
    "DuplicateVertexError",
    "UnknownVertexError",
    "NumberingError",
    "SchedulerError",
    "PhaseOrderError",
    "DuplicateExecutionError",
    "InvariantViolation",
    "EngineError",
    "VertexExecutionError",
    "SpecError",
    "RegistryError",
    "SerializabilityError",
    "SimulationError",
    "WorkloadError",
    "BackpressureError",
    "ServeError",
    "ScheduleError",
    "DeadlockError",
    "ScheduleLimitError",
    "ReplayDivergenceError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# Graph layer
# ---------------------------------------------------------------------------


class GraphError(ReproError):
    """A computation graph was constructed or used incorrectly."""


class CycleError(GraphError):
    """The computation graph contains a directed cycle.

    The paper requires an *acyclic* directed graph (Section 2); numbering
    and scheduling are undefined on cyclic graphs, so cycles are rejected
    eagerly at validation time.
    """

    def __init__(self, cycle: list | None = None) -> None:
        self.cycle = list(cycle) if cycle else []
        detail = f" involving {self.cycle!r}" if self.cycle else ""
        super().__init__(f"computation graph contains a cycle{detail}")


class DuplicateVertexError(GraphError):
    """Two vertices were registered under the same name."""


class UnknownVertexError(GraphError, KeyError):
    """An edge or query referenced a vertex that is not in the graph."""


class NumberingError(GraphError):
    """A vertex numbering violates the paper's requirements.

    Raised when a numbering is not a permutation, is not topologically
    sorted, or fails the additional sequential-``S(v)`` restriction of
    Section 3.1.1 (as the numbering of Figure 2(a) does).
    """


# ---------------------------------------------------------------------------
# Core scheduling layer
# ---------------------------------------------------------------------------


class SchedulerError(ReproError):
    """The scheduler state was driven incorrectly."""


class PhaseOrderError(SchedulerError):
    """Phases were started out of order or a phase number was reused."""


class DuplicateExecutionError(SchedulerError):
    """A vertex-phase pair was reported complete more than once.

    The correctness argument (Section 3.3.4) hinges on every ready pair
    executing *exactly once*; the state object enforces that actively.
    """


class InvariantViolation(SchedulerError):
    """A runtime check of definitions (7)-(9) or the x/pmax/msg consistency
    conditions failed.

    This is only raised by :class:`repro.core.invariants.InvariantChecker`
    when it is attached to a scheduler state; production runs may disable
    the checker for speed.
    """


# ---------------------------------------------------------------------------
# Engine / runtime layer
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """The parallel engine failed or was misused."""


class VertexExecutionError(EngineError):
    """A vertex raised an exception while executing a phase.

    Wraps the original exception (available as ``__cause__``) and records
    the vertex name, the phase and the bare *message* for diagnosis.
    """

    def __init__(self, vertex: str, phase: int, message: str = "") -> None:
        self.vertex = vertex
        self.phase = phase
        self.message = message
        detail = f": {message}" if message else ""
        super().__init__(
            f"vertex {vertex!r} failed while executing phase {phase}{detail}"
        )


# ---------------------------------------------------------------------------
# Specification layer
# ---------------------------------------------------------------------------


class SpecError(ReproError):
    """An XML computation specification is malformed."""


class RegistryError(SpecError):
    """A vertex class name could not be resolved in the registry."""


# ---------------------------------------------------------------------------
# Analysis / verification layer
# ---------------------------------------------------------------------------


class SerializabilityError(ReproError):
    """A parallel execution produced results that differ from the serial
    one-phase-at-a-time oracle (Section 2's correctness requirement)."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""


class WorkloadError(ReproError):
    """A workload builder was given inconsistent parameters."""


# ---------------------------------------------------------------------------
# Continuous-operation service layer (repro.serve)
# ---------------------------------------------------------------------------


class BackpressureError(ReproError):
    """An ingest stage is at capacity and the producer must slow down.

    Raised by a bounded :class:`~repro.ingest.ReorderBuffer` whose pending
    bin count is at ``max_buffered`` (the serve layer translates it into
    an HTTP 429 / a producer stall).  Deliberately *not* a
    :class:`WorkloadError`: the workload is fine, the producer is simply
    ahead of the consumer.
    """


class ServeError(ReproError):
    """The continuous-operation service (:mod:`repro.serve`) failed or
    was misused (feeding a closed session, serving an engine that does
    not support streaming admission, ...)."""


# ---------------------------------------------------------------------------
# Deterministic schedule exploration (repro.testing)
# ---------------------------------------------------------------------------


class ScheduleError(ReproError):
    """The deterministic virtual scheduler failed or was misused."""


class DeadlockError(ScheduleError):
    """Every live task is blocked with no pending virtual timeout.

    Under the cooperative scheduler a deadlock is detected *exactly* — no
    watchdog heuristics — and the exception carries the blocked-task map
    and the step-trace tail needed to replay the interleaving.
    """

    def __init__(self, blocked: dict, trace_tail: list) -> None:
        self.blocked = dict(blocked)
        self.trace_tail = list(trace_tail)
        waits = ", ".join(f"{name} on {what}" for name, what in sorted(blocked.items()))
        super().__init__(
            f"deadlock: every task is blocked ({waits}); "
            f"last {len(trace_tail)} scheduling steps: {trace_tail}"
        )


class ScheduleLimitError(ScheduleError):
    """The scheduler hit its step budget — a livelock or runaway schedule."""


class ReplayDivergenceError(ScheduleError):
    """A recorded schedule could not be replayed: the task it picked at
    some step is no longer runnable, so the program under test is not
    deterministic given the schedule (or the trace is from another
    workload)."""
