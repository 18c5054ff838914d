#!/usr/bin/env python3
"""Visualise the algorithm itself: Figures 1, 2 and 3, in your terminal.

* Figure 2 — the 7-vertex graph with its satisfactory and unsatisfactory
  numberings, S(v) tables and m-sequence;
* Figure 3 — the eight-step execution of the 6-vertex graph with the
  partial / full / ready membership of every vertex-phase pair;
* Figure 1 — the 10-vertex graph with the measured number of phases in
  flight on the simulated SMP (pipelined vs phase-barrier).

Run:  python examples/pipeline_visualization.py
"""

from repro.analysis.ascii_viz import render_frames, render_graph
from repro.core.tracer import ExecutionTracer, max_concurrent_phases
from repro.errors import NumberingError
from repro.graph.generators import (
    fig1_graph,
    fig2_graph,
    fig2a_numbering,
    fig2b_numbering,
    fig3_graph,
    fig3_replay,
)
from repro.graph.numbering import Numbering, compute_S, number_graph, verify_numbering
from repro.simulator.costs import CostModel
from repro.simulator.machine import SimulatedEngine
from repro.streams.workloads import fig1_workload


def figure2() -> None:
    print("=" * 72)
    print("FIGURE 2 — vertex numbering and the sequential-S(v) restriction")
    print("=" * 72)
    g = fig2_graph()
    nb = Numbering.from_mapping(g, fig2b_numbering())
    print(render_graph(g, nb))
    print("\n(b) satisfactory numbering:")
    for v in range(8):
        print(f"  S({v}) = {sorted(compute_S(g, fig2b_numbering(), v))}")
    print(f"  m-sequence: {nb.m_sequence()}   (paper: [3, 3, 4, 5, 5, 6, 7, 7])")
    print("\n(a) vertices 4 and 5 transposed:")
    print(f"  S(2) = {sorted(compute_S(g, fig2a_numbering(), 2))}  <- not a prefix!")
    try:
        verify_numbering(g, fig2a_numbering())
    except NumberingError as exc:
        print(f"  verifier: REJECTED — {exc}")


def figure3() -> None:
    print("\n" + "=" * 72)
    print("FIGURE 3 — eight steps of a 6-vertex execution")
    print("=" * 72)
    print(render_graph(fig3_graph(), number_graph(fig3_graph())), "\n")
    print(render_frames(fig3_replay(), n=6, phases=[1, 2]))


def figure1() -> None:
    print("\n" + "=" * 72)
    print("FIGURE 1 — 10-vertex graph, phases in flight")
    print("=" * 72)
    print(render_graph(fig1_graph(), number_graph(fig1_graph())), "\n")
    cost = CostModel(compute_cost=1.0, bookkeeping_cost=0.001)
    for label, factory in [
        ("pipelined", lambda p, t: SimulatedEngine(
            p, num_workers=10, num_processors=10, cost_model=cost, tracer=t)),
        ("barrier  ", lambda p, t: SimulatedEngine(
            p, num_workers=10, num_processors=10, cost_model=cost, tracer=t,
            max_in_flight_phases=1)),
    ]:
        prog, phases = fig1_workload(phases=40)
        tracer = ExecutionTracer()
        result = factory(prog, tracer).run(phases)
        depth = max_concurrent_phases(tracer.intervals())
        print(f"{label}: max {depth} distinct phases executing at once, "
              f"virtual makespan {result.wall_time:7.1f}")
    print("(the paper's figure shows 5 concurrent phases — the graph depth)")


if __name__ == "__main__":
    figure2()
    figure3()
    figure1()
