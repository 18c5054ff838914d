"""Shared test fixtures and helpers."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import pytest

from repro.core.program import Program, RunResult
from repro.core.vertex import (
    EMIT_NOTHING,
    FunctionVertex,
    SourceVertex,
    Vertex,
    VertexContext,
)
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph


# ---------------------------------------------------------------------------
# Single-vertex driver: run a behaviour through scripted phases without an
# engine, for focused model tests.
# ---------------------------------------------------------------------------


class VertexHarness:
    """Drives one Vertex through phases with scripted inputs.

    ``step(phase, changed={...}, latched={...}, phase_input=...)`` executes
    one phase and returns ``(outputs, records, returned_emission)`` where
    *returned_emission* is the broadcast value (or None when silent).
    """

    def __init__(
        self,
        vertex: Vertex,
        successors: Sequence[str] = ("out",),
        name: str = "v",
    ) -> None:
        self.vertex = vertex
        self.successors = list(successors)
        self.name = name
        self.latched: Dict[str, Any] = {}

    def step(
        self,
        phase: int,
        changed: Optional[Mapping[str, Any]] = None,
        phase_input: Any = None,
    ) -> Tuple[Dict[str, Any], List[Any], Any]:
        changed = dict(changed or {})
        self.latched.update(changed)
        ctx = VertexContext(
            name=self.name,
            phase=phase,
            inputs=self.latched,
            changed=set(changed),
            successors=self.successors,
            phase_input=phase_input,
        )
        returned = self.vertex.on_execute(ctx)
        ctx.finish(returned)
        broadcast = None
        if ctx.outputs and all(
            ctx.outputs.get(s) == next(iter(ctx.outputs.values()))
            for s in ctx.outputs
        ):
            broadcast = next(iter(ctx.outputs.values())) if ctx.outputs else None
        return dict(ctx.outputs), list(ctx.records), broadcast

    def emissions(
        self, steps: Iterable[Tuple[int, Optional[Mapping[str, Any]]]]
    ) -> List[Any]:
        """Run several steps; collect the broadcast value per step (None
        when silent)."""
        out = []
        for phase, changed in steps:
            outputs, _records, broadcast = self.step(phase, changed)
            out.append(broadcast if outputs else None)
        return out


@pytest.fixture
def harness():
    return VertexHarness


@pytest.fixture
def process_remote():
    """Keep the process wire under test: on a clock that stands still
    nothing reads cheap, so ``ProcessEngine`` promotes every vertex at
    its first pair (which the coordinator executes) and every later pair
    crosses the pipe."""
    from repro.testing.fuzz import scripted_placement

    with scripted_placement():
        yield


@pytest.fixture
def strand(monkeypatch):
    """``strand(v, p)`` loses the completion of pair ``(v, p)``: the pair
    still computes and delivers, but the scheduler never hears it
    committed, so phase *p* can never complete — a stranded phase."""
    from repro.core.program import PairRuntime

    commit = PairRuntime.commit

    def strand_pair(v, p):
        def dropping(self, w, phases, ctxs):
            return [c for c in commit(self, w, phases, ctxs) if c[:2] != (v, p)]

        monkeypatch.setattr(PairRuntime, "commit", dropping)

    return strand_pair


# ---------------------------------------------------------------------------
# Tiny reusable programs
# ---------------------------------------------------------------------------


class ScriptedSource(SourceVertex):
    """Emits ``script[phase]`` when present (for exact-value tests)."""

    def __init__(self, script: Mapping[int, Any]) -> None:
        super().__init__(seed=None)
        self.script = dict(script)

    def on_execute(self, ctx: VertexContext) -> Any:
        if ctx.phase in self.script:
            return self.script[ctx.phase]
        return EMIT_NOTHING


def _forward(ctx: VertexContext) -> Any:
    # Module-level so FunctionVertex(_forward) stays picklable (the
    # process backend ships behaviours to worker processes).
    vals = ctx.changed_values()
    if not vals:
        return EMIT_NOTHING
    (value,) = vals.values()
    return value


def forward_vertex() -> FunctionVertex:
    """Forwards the single changed input (silent otherwise)."""
    return FunctionVertex(_forward)


def sum_vertex() -> FunctionVertex:
    """Sums latched inputs whenever anything changes."""

    def f(ctx: VertexContext) -> Any:
        if not ctx.changed:
            return EMIT_NOTHING
        return sum(ctx.inputs.values())

    return FunctionVertex(f)


def make_chain_program(depth: int, script: Mapping[int, Any]) -> Program:
    """source -> fwd -> ... -> fwd (depth vertices total)."""
    g = ComputationGraph(name=f"chain{depth}")
    names = [f"n{i}" for i in range(depth)]
    g.add_vertices(names)
    for a, b in zip(names, names[1:]):
        g.add_edge(a, b)
    behaviors: Dict[str, Vertex] = {names[0]: ScriptedSource(script)}
    for n in names[1:]:
        behaviors[n] = forward_vertex()
    return Program(g, behaviors)


def signals(n: int) -> List[PhaseInput]:
    return [PhaseInput(k, float(k)) for k in range(1, n + 1)]


def worker_replies(*msgs: Any) -> List[Any]:
    """Run ``worker_main`` as worker 0 in this process over two queues
    that already hold *msgs*' frames and a shutdown request; return its
    replies, decoded, in order (the last is its ``FinalStateMsg``)."""
    import queue

    from repro.runtime.mp.protocol import ShutdownMsg, decode, encode
    from repro.runtime.mp.worker import worker_main

    tasks, results = queue.Queue(), queue.Queue()
    for msg in (*msgs, ShutdownMsg()):
        tasks.put(encode(msg))
    worker_main(0, tasks, results)
    return [decode(results.get_nowait()) for _ in range(results.qsize())]


@pytest.fixture
def chain_program():
    return make_chain_program


@pytest.fixture
def phase_signals_fixture():
    return signals
