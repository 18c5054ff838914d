"""Core layer: the paper's parallel algorithm (Section 3).

* :mod:`~repro.core.pairsets` — the "custom data structures" backing the
  partial / full / ready sets.
* :mod:`~repro.core.state` — :class:`SchedulerState`, the cone-rule
  scheduler every real engine runs.
* :mod:`~repro.core.reference` — :class:`ReferenceScheduler`, the exact
  Listing 1 / Listing 2 set manipulations (the specification; imported
  on demand, a production run never loads it).
* :mod:`~repro.core.invariants` — ghost ``msg`` variables and a runtime
  checker for definitions (7)-(9).
* :mod:`~repro.core.ports` — per-edge message latches with the
  "previous value for unchanged inputs" semantics.
* :mod:`~repro.core.vertex` — the vertex behaviour API.
* :mod:`~repro.core.serial` — the one-phase-at-a-time serial oracle.
* :mod:`~repro.core.tracer` — execution tracing (Figure 3 reproduction,
  serializability evidence, pipelining measurements).
"""

from .state import SchedulerState, Pair
from .invariants import InvariantChecker
from .program import Program, PairRuntime, RunResult
from .vertex import (
    Vertex,
    SourceVertex,
    FunctionVertex,
    StatefulFunctionVertex,
    PassthroughSource,
    VertexContext,
    EMIT_NOTHING,
)
from .serial import SerialExecutor
from .tracer import ExecutionTracer, TraceEvent
from .ports import EdgeStore

__all__ = [
    "SchedulerState",
    "Pair",
    "InvariantChecker",
    "Program",
    "PairRuntime",
    "RunResult",
    "Vertex",
    "SourceVertex",
    "FunctionVertex",
    "StatefulFunctionVertex",
    "PassthroughSource",
    "VertexContext",
    "EMIT_NOTHING",
    "SerialExecutor",
    "ExecutionTracer",
    "TraceEvent",
    "EdgeStore",
]
