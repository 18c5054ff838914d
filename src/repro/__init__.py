"""repro — serializable pipelined parallel correlation of event streams.

A production-quality Python reproduction of

    Daniel M. Zimmerman and K. Mani Chandy,
    "A Parallel Algorithm for Correlating Event Streams", IPPS 2005.

The library executes Δ-dataflow computation graphs — vertices compute only
when inputs change, and the *absence* of a message conveys information —
over many concurrent phases while guaranteeing serializability: the result
is identical to executing one phase at a time from sources to sinks.

Quick start
-----------
>>> from repro import (ComputationGraph, Program, PassthroughSource,
...                    FunctionVertex, PhaseInput, ParallelEngine)
>>> g = ComputationGraph.from_edges([("sensor", "double"), ("double", "out")])
>>> prog = Program(g, {
...     "sensor": PassthroughSource(),
...     "double": FunctionVertex(lambda ctx: 2 * ctx.input("sensor")),
...     "out": FunctionVertex(lambda ctx: ctx.input("double")),
... })
>>> result = ParallelEngine(prog, num_threads=2).run(
...     [PhaseInput(1, 0.0, {"sensor": 21})])
>>> result.records["out"]
[(1, 42)]

Layers (docs/ARCHITECTURE.md §1.2 has the full inventory):

* :mod:`repro.graph` — computation graphs and the restricted vertex
  numbering of Section 3.1.1;
* :mod:`repro.core` — the scheduler state (Listings 1-2), vertex API,
  serial oracle, invariant checker, tracer;
* :mod:`repro.runtime` — the multithreaded engine (blocking queue, lock,
  thread pool, environment process);
* :mod:`repro.simulator` — a discrete-event simulated SMP for speedup
  experiments independent of the Python GIL;
* :mod:`repro.baselines` — the dense-dataflow executor;
* :mod:`repro.models`, :mod:`repro.streams` — the model library and the
  synthetic workloads of the paper's motivating domains;
* :mod:`repro.spec` — XML computation specifications;
* :mod:`repro.analysis` — serializability checking, statistics, ASCII
  rendering.
"""

from .errors import (
    CycleError,
    EngineError,
    GraphError,
    InvariantViolation,
    NumberingError,
    ReproError,
    SchedulerError,
    SerializabilityError,
    SpecError,
)
from .events import Event, PhaseAssembler, PhaseInput, assemble_phases
from .graph import ComputationGraph, Numbering, number_graph, verify_numbering
from .core import (
    EMIT_NOTHING,
    ExecutionTracer,
    FunctionVertex,
    InvariantChecker,
    PairRuntime,
    PassthroughSource,
    Program,
    RunResult,
    SchedulerState,
    SerialExecutor,
    SourceVertex,
    StatefulFunctionVertex,
    Vertex,
    VertexContext,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "GraphError",
    "CycleError",
    "NumberingError",
    "SchedulerError",
    "InvariantViolation",
    "EngineError",
    "SerializabilityError",
    "SpecError",
    # events
    "Event",
    "PhaseInput",
    "PhaseAssembler",
    "assemble_phases",
    # graph
    "ComputationGraph",
    "Numbering",
    "number_graph",
    "verify_numbering",
    # core
    "SchedulerState",
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
    # engines (loaded lazily below)
    "ParallelEngine",
    "SimulatedEngine",
    "__version__",
]


def __getattr__(name: str):
    # Engines pull in threading / simulation machinery; load them lazily
    # so importing the core stays light.
    if name == "ParallelEngine":
        from .runtime.engine import ParallelEngine

        return ParallelEngine
    if name == "SimulatedEngine":
        from .simulator.machine import SimulatedEngine

        return SimulatedEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
