"""The serial one-phase-at-a-time oracle.

Section 2 defines correctness: "though modules are executed concurrently,
the logical effect must be the same as executing only one phase at a time
in serial order all the way from the sources to the sinks".  This module
implements that specification directly — phase p runs to completion before
phase p+1 starts, and within a phase vertices run in (topological) index
order — *without* using the scheduler state at all, so it is an
independent oracle for every parallel engine.

Δ-dataflow semantics are preserved: a vertex executes phase p iff it is a
source (it receives the phase signal) or at least one of its inputs carries
a message for phase p.  Because every edge goes from a lower to a higher
index, a single ascending scan per phase sees each message before its
consumer.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Set, Tuple

from ..events import PhaseInput
from .program import PairRuntime, Program, RunResult

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Executes a program one phase at a time (the correctness oracle).

    Examples
    --------
    >>> from repro.graph.generators import chain_graph
    >>> from repro.core.vertex import PassthroughSource, FunctionVertex
    >>> from repro.events import PhaseInput
    >>> g = chain_graph(2)
    >>> prog = Program(g, {
    ...     "v1": PassthroughSource(),
    ...     "v2": FunctionVertex(lambda ctx: ctx.input("v1")),
    ... })
    >>> result = SerialExecutor(prog).run(
    ...     [PhaseInput(1, 0.0, {"v1": 42})])
    >>> result.records["v2"]
    [(1, 42)]
    """

    def __init__(self, program: Program) -> None:
        self.program = program

    def run(self, phase_inputs: Sequence[PhaseInput]) -> RunResult:
        """Run every phase serially; returns the :class:`RunResult`."""
        self.program.reset()
        runtime = PairRuntime(self.program, phase_inputs)
        n = self.program.n
        source_indices = set(self.program.numbering.source_indices())
        executions: List[Tuple[int, int]] = []
        started = time.perf_counter()
        for p in range(1, runtime.num_phases + 1):
            has_message: Set[int] = set(source_indices)
            for v in range(1, n + 1):
                if v not in has_message:
                    continue  # no input changed: computation unnecessary
                targets = runtime.execute(v, p)
                executions.append((v, p))
                # Every target is > v (edges go low-to-high), so the
                # ascending scan will reach it later in this same phase.
                has_message.update(targets)
        elapsed = time.perf_counter() - started
        return runtime.build_result("serial", executions, elapsed)
