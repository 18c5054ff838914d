"""One-shot reproduction report generator.

:func:`generate_report` runs every headline experiment of the paper
(Figures 1–3 and both Section 4 results) and returns a Markdown report of
paper-vs-measured values with the Figure 2 graph and the Figure 3 frames
rendered in it, so the evidence in EXPERIMENTS.md can be regenerated on
any machine with one command::

    python -m repro report            # print to stdout
    python -m repro report -o out.md  # write a file

``quick=True`` shrinks the workloads for CI-speed smoke reporting (the
shapes still hold; absolute virtual times differ).  The assertions behind
each verdict are pinned by ``tests/test_paper_figures.py``.
"""

from __future__ import annotations

from typing import List

from .analysis.ascii_viz import render_frames, render_graph
from .analysis.stats import format_table
from .core.tracer import ExecutionTracer, max_concurrent_phases
from .errors import NumberingError
from .graph.generators import (
    FIG3_EXPECTED,
    fig2_graph,
    fig2a_numbering,
    fig2b_numbering,
    fig3_replay,
)
from .graph.numbering import Numbering, compute_S, verify_numbering
from .simulator.costs import CostModel
from .simulator.machine import SimulatedEngine
from .simulator.metrics import speedup_curve
from .streams.workloads import fig1_workload, grid_workload

__all__ = ["generate_report"]


def _fig1(quick: bool) -> List[str]:
    phases_n = 15 if quick else 40
    cost = CostModel(compute_cost=1.0, bookkeeping_cost=0.001)
    out = ["## Figure 1 — pipelining depth", ""]
    rows = []
    # The barrier baseline of Section 2 is the same engine with one
    # phase in flight.
    for label, in_flight in (("pipelined", None), ("barrier", 1)):
        prog, phases = fig1_workload(phases=phases_n)
        tracer = ExecutionTracer()
        result = SimulatedEngine(
            prog, num_workers=10, num_processors=10, cost_model=cost,
            tracer=tracer, max_in_flight_phases=in_flight,
        ).run(phases)
        rows.append([label, max_concurrent_phases(tracer.intervals()),
                     result.wall_time])
    out.append("paper: 5 phases in flight on the depth-5 graph")
    out.append("")
    out.append("```")
    out.append(format_table(["engine", "max concurrent phases", "makespan"], rows))
    out.append("```")
    status = "REPRODUCED" if rows[0][1] == 5 and rows[1][1] == 1 else "DIVERGED"
    out.append(f"**{status}**")
    return out


def _fig2() -> List[str]:
    out = ["## Figure 2 — restricted numbering", ""]
    g = fig2_graph()
    nb = Numbering.from_mapping(g, fig2b_numbering())
    try:
        verify_numbering(g, fig2a_numbering())
        rejected = False
    except NumberingError:
        rejected = True
    s2 = sorted(compute_S(g, fig2a_numbering(), 2))
    out.extend(["```", render_graph(g, nb), "```", ""])
    out.append(f"* m-sequence (paper [3, 3, 4, 5, 5, 6, 7, 7]): "
               f"measured {nb.m_sequence()}")
    out.append(f"* S(2) under numbering (a) (paper {{1, 2, 3, 5}}): "
               f"measured {set(s2)}; verifier rejected: {rejected}")
    ok = nb.m_sequence() == [3, 3, 4, 5, 5, 6, 7, 7] and rejected and s2 == [1, 2, 3, 5]
    out.append(f"**{'REPRODUCED' if ok else 'DIVERGED'}**")
    return out


def _fig3() -> List[str]:
    out = ["## Figure 3 — execution trace", ""]
    snapshots = fig3_replay()
    verified = sum(
        (snap.ready, snap.partial) == expected
        for snap, expected in zip(snapshots, FIG3_EXPECTED)
    )
    out.extend(["```", render_frames(snapshots, n=6, phases=[1, 2]), "```", ""])
    out.append(f"* 8 steps replayed with the invariant checker attached; "
               f"ready and partial membership verified at {verified}/8 steps")
    out.append(f"**{'REPRODUCED' if verified == 8 else 'DIVERGED'}**")
    return out


def _sec4(quick: bool) -> List[str]:
    out = ["## Section 4 — speedup", ""]
    phases_n = 15 if quick else 40
    prog, phases = grid_workload(4, 4, phases=phases_n, seed=9)
    dual = speedup_curve(
        prog, phases,
        CostModel(compute_cost=1.0, bookkeeping_cost=0.35, phase_start_cost=0.1),
        [1, 2], processors=2,
    )
    out.append(f"* dual-processor, 2 workers (paper ~1.5x): measured "
               f"{dual[1].speedup:.2f}x "
               f"(lock contention {dual[0].lock_contention:.1%} -> "
               f"{dual[1].lock_contention:.1%})")
    coarse = speedup_curve(
        prog, phases, CostModel(compute_cost=50.0, bookkeeping_cost=0.05),
        [1, 2, 4] if quick else [1, 2, 4, 8],
        processors=lambda k: k + 1,
    )
    last = coarse[-1]
    out.append(f"* coarse-grain prediction ('close to linear'): speedup "
               f"{last.speedup:.2f}x at {last.workers} workers "
               f"(efficiency {last.efficiency:.1%})")
    ok = 1.25 <= dual[1].speedup <= 1.85 and last.efficiency > 0.8
    out.append(f"**{'REPRODUCED' if ok else 'DIVERGED'}**")
    return out


def generate_report(quick: bool = False) -> str:
    """Run every headline experiment; return the Markdown report."""
    sections = [
        "# Reproduction report",
        "",
        "Zimmerman & Chandy, *A Parallel Algorithm for Correlating Event "
        "Streams* (IPPS 2005) — regenerated on this machine by "
        "`python -m repro report`.",
        "",
    ]
    sections.extend(_fig1(quick))
    sections.append("")
    sections.extend(_fig2())
    sections.append("")
    sections.extend(_fig3())
    sections.append("")
    sections.extend(_sec4(quick))
    sections.append("")
    return "\n".join(sections)
