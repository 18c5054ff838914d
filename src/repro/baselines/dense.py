"""The dense (non-Δ) dataflow baseline.

Section 3.1: "The obvious solution ... is to ensure that every vertex
receives a message on every one of its inputs during every phase; ...
Unfortunately, this obvious solution is inefficient, because it requires
every vertex to both carry out a computation for every phase and send a
message on every one of its outputs for every phase."

:class:`DenseDataflowExecutor` implements exactly that: a serial
phase-by-phase sweep in which **every** vertex executes **every** phase
and a message flows on **every** edge in **every** phase.  When a vertex's
behaviour declines to emit (the Δ idiom), the executor re-sends the edge's
previous value — i.e. it converts "no change" into an explicit "same value
again" message, which is the paper's option (1) in the money-laundering
discussion (option (2), emit-only-on-anomaly, is the Δ engine).

Comparability contract
----------------------
For vertices that are *Δ-well-formed* — their state updates and records
depend only on ``ctx.changed_values()`` / explicitly changed inputs, not
on the mere presence of a message — the dense run produces the same
records as the Δ engines, and ``tests/baselines/test_dense.py`` checks
that.  The difference is purely cost: ``executions = N x phases`` and
``messages >= E x phases`` versus the Δ engine's change-driven counts.

Because every input of every vertex carries a message in every phase, the
``changed`` set passed to behaviours contains every input that has ever
carried a value; behaviours that trigger on "did input X change" will see
X as changed every phase, which is precisely the redundant recomputation
the paper is eliminating.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Sequence, Tuple

from ..core.program import PairRuntime, Program, RunResult
from ..events import PhaseInput

__all__ = ["DenseDataflowExecutor"]


class DenseDataflowExecutor:
    """Every vertex fires every phase; every edge carries a message every
    phase (the paper's rejected "obvious solution")."""

    def __init__(self, program: Program) -> None:
        self.program = program

    def run(self, phase_inputs: Sequence[PhaseInput]) -> RunResult:
        self.program.reset()
        runtime = PairRuntime(self.program, phase_inputs)
        n = self.program.n
        # Last value sent on each edge, for re-sending unchanged values.
        previous: Dict[Tuple[int, int], Any] = {}
        started = time.perf_counter()
        for p in range(1, runtime.num_phases + 1):
            for v in range(1, n + 1):
                ctxs = runtime.prepare(v, [p])
                runtime.compute(v, ctxs)
                # Densify: any successor the behaviour skipped receives the
                # previous value again, so downstream sees a full input set.
                outputs = ctxs[0].outputs
                for wname, w, _ in runtime.edges.out_channels[v]:
                    if wname in outputs:
                        previous[(v, w)] = outputs[wname]
                    elif (v, w) in previous:
                        outputs[wname] = previous[(v, w)]
                    # An edge that has never carried a value stays silent:
                    # there is no "previous value" to re-send yet.
                runtime.commit(v, [p], ctxs)
        elapsed = time.perf_counter() - started
        return runtime.build_result(
            "dense",
            elapsed,
            stats={
                "edges": self.program.graph.num_edges,
                "dense_executions_per_phase": n,
            },
        )
