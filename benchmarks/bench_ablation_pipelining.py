"""Ablation — pipelining vs the phase-barrier solution, by graph shape.

Section 2 rejects "complete execution of one phase before initiating the
next" in favour of pipelining.  The win depends on graph shape: depth
feeds the pipeline, width feeds intra-phase parallelism.  This benchmark
sweeps shapes at fixed total vertex count and prints the makespan ratio
barrier / pipelined — the quantified version of the paper's Section 2
argument.
"""

from __future__ import annotations

from repro.analysis.stats import format_table
from repro.simulator.costs import CostModel
from repro.simulator.machine import SimulatedEngine
from repro.streams.workloads import grid_workload

from .conftest import emit

# (width, depth) at ~16 vertices each.
SHAPES = [(1, 16), (2, 8), (4, 4), (8, 2), (16, 1)]
COST = CostModel(compute_cost=1.0, bookkeeping_cost=0.01)
PHASES = 30
WORKERS = PROCS = 8


def run_shape(width: int, depth: int):
    prog, phases = grid_workload(width, depth, phases=PHASES, seed=20)
    pipe = SimulatedEngine(
        prog, num_workers=WORKERS, num_processors=PROCS, cost_model=COST
    ).run(phases)
    barr = SimulatedEngine(
        prog, num_workers=WORKERS, num_processors=PROCS, cost_model=COST,
        max_in_flight_phases=1,
    ).run(phases)
    assert pipe.records == barr.records
    return pipe.wall_time, barr.wall_time


def test_ablation_pipelining_by_shape(benchmark):
    def run_all():
        return [(w, d, *run_shape(w, d)) for w, d in SHAPES]

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)
    rows = [
        [f"{w}x{d}", w, d, pipe, barr, barr / pipe]
        for w, d, pipe, barr in results
    ]
    emit(
        "Ablation: pipelined vs phase-barrier makespan by graph shape "
        f"({WORKERS} workers, {PROCS} CPUs)",
        format_table(
            ["shape", "width", "depth", "pipelined", "barrier", "barrier/pipelined"],
            rows,
        )
        + "\ndeep graphs gain ~depth; wide-shallow graphs gain little — "
        "pipelining is what makes depth usable parallelism",
    )

    ratio_by_depth = {d: barr / pipe for _w, d, pipe, barr in results}
    benchmark.extra_info["ratio_depth16"] = ratio_by_depth[16]
    benchmark.extra_info["ratio_depth1"] = ratio_by_depth[1]
    assert ratio_by_depth[16] > 3.0  # deep chain: pipelining dominates
    assert ratio_by_depth[1] < 1.6  # flat graph: barrier loses little
    # Monotone trend in depth.
    assert ratio_by_depth[16] > ratio_by_depth[4] > ratio_by_depth[1]
