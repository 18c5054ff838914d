"""Ablation — scheduler bookkeeping overhead and the compute-grain knob.

Two measurements behind the paper's "as long as the computations performed
by the vertices take significantly more time than the computations
performed to maintain the data structures" qualifier:

* **micro**: raw throughput of the real scheduler-state operations
  (start_phase / complete_execution) — what one pass through the locked
  critical section of Listing 1 actually costs in this implementation;
* **macro**: simulated 4-worker efficiency as a function of the
  compute:bookkeeping ratio, locating the crossover where the global lock
  stops being negligible.
"""

from __future__ import annotations

from repro.analysis.stats import format_table
from repro.core.reference import ReferenceScheduler
from repro.graph.numbering import number_graph
from repro.simulator.costs import CostModel
from repro.simulator.metrics import speedup_curve
from repro.streams.workloads import grid_workload

from .conftest import emit

RATIOS = [1, 4, 16, 64, 256]


def drain_state(prog, phases_count: int) -> int:
    """Drive the scheduler (no vertex work) through phases_count phases of
    full-load execution; returns executed pair count."""
    state = ReferenceScheduler(prog.numbering)
    succs = {
        v: prog.numbering.successor_indices(v)
        for v in range(1, prog.n + 1)
    }
    runnable = []
    executed = 0
    for _ in range(phases_count):
        runnable.extend(state.start_phase())
        while runnable:
            v, p = runnable.pop()
            runnable.extend(state.complete_execution(v, p, succs[v]))
            executed += 1
    return executed


def test_scheduler_state_throughput(benchmark):
    prog, _ = grid_workload(6, 5, phases=1, seed=21)
    executed = benchmark(lambda: drain_state(prog, 20))
    ops_per_run = executed
    emit(
        "Micro: scheduler-state operations per full-load run",
        f"pairs executed per run: {ops_per_run} "
        f"(30-vertex graph, 20 phases; see pytest-benchmark timing above "
        f"for per-pair bookkeeping cost)",
    )
    benchmark.extra_info["pairs_per_run"] = ops_per_run
    assert executed == 30 * 20


def test_ablation_grain_efficiency(benchmark):
    def sweep():
        prog, phases = grid_workload(6, 4, phases=25, seed=22)
        rows = []
        for ratio in RATIOS:
            cm = CostModel(compute_cost=float(ratio), bookkeeping_cost=1.0)
            points = speedup_curve(
                prog, phases, cm, [1, 4], processors=lambda k: k + 1
            )
            rows.append([ratio, points[1].speedup, points[1].efficiency,
                         points[1].lock_contention])
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    emit(
        "Ablation: 4-worker efficiency vs compute/bookkeeping grain ratio",
        format_table(
            ["compute/bookkeeping", "speedup(4)", "efficiency", "lock contention"],
            rows,
        )
        + "\nefficiency approaches 1 as vertex compute dwarfs the locked "
        "bookkeeping — the paper's linearity precondition",
    )

    effs = [r[2] for r in rows]
    benchmark.extra_info["efficiency_by_ratio"] = dict(zip(RATIOS, effs))
    # Efficiency is monotone in grain and spans the crossover.
    assert all(a <= b + 0.02 for a, b in zip(effs, effs[1:]))
    assert effs[0] < 0.5 < effs[-1]
    assert effs[-1] > 0.9
