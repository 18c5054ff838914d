"""Ablation — run-queue discipline and detection latency.

The algorithm requires only at-most-once dequeue; the *order* of the run
queue is a free scheduling policy.  Under a **burst arrival** — all
phases land at once, the crisis-management load shape of Section 1 — the
backlog makes discipline matter.  This benchmark compares FIFO (the
paper's implied BlockingQueue), LIFO, phase-ordered and vertex-ordered
disciplines, plus the phase-barrier baseline, on:

* virtual makespan (throughput), and
* mean / max per-phase **detection latency** (phase start → phase
  complete) — the quantity the motivating applications ("detected
  rapidly", Section 1) actually care about.

All five schedules are verified byte-identical to the serial oracle:
serializability makes scheduling policy a pure performance knob.  (At
sustainably paced arrivals the system drains between phases and every
discipline coincides; the burst is where policy shows.)
"""

from __future__ import annotations

import statistics

from repro.analysis.stats import format_table
from repro.core.serial import SerialExecutor
from repro.core.tracer import ExecutionTracer
from repro.simulator.costs import CostModel
from repro.simulator.machine import SimulatedEngine
from repro.streams.workloads import grid_workload

from .conftest import emit

PHASES = 30
# Burst arrival: the environment injects every phase immediately
# (env_interval = 0), building a real backlog.
COST = CostModel(compute_cost=1.0, bookkeeping_cost=0.02)
DISCIPLINES = ["fifo", "lifo", "low_phase_first", "low_vertex_first"]


def completion_times(tracer: ExecutionTracer):
    """Phase -> completion instant.  The burst arrives at t = 0, so the
    completion instant *is* the arrival-relative detection latency (the
    started-to-completed span would hide queueing for engines that defer
    phase starts, like the barrier)."""
    return {
        ev.pair[1]: ev.time
        for ev in tracer.events
        if ev.kind == "phase_completed"
    }


def run_all():
    prog, phases = grid_workload(4, 4, phases=PHASES, seed=9)
    serial = SerialExecutor(prog).run(phases)
    rows = []
    for disc in DISCIPLINES:
        tracer = ExecutionTracer()
        res = SimulatedEngine(
            prog,
            num_workers=4,
            num_processors=4,
            cost_model=COST,
            tracer=tracer,
            queue_discipline=disc,
        ).run(phases)
        assert res.records == serial.records
        lats = completion_times(tracer)
        rows.append(
            [
                disc,
                res.wall_time,
                statistics.mean(lats.values()),
                max(lats.values()),
            ]
        )
    tracer = ExecutionTracer()
    res = SimulatedEngine(
        prog, num_workers=4, num_processors=4, cost_model=COST, tracer=tracer,
        max_in_flight_phases=1,
    ).run(phases)
    assert res.records == serial.records
    lats = completion_times(tracer)
    rows.append(
        ["barrier", res.wall_time, statistics.mean(lats.values()),
         max(lats.values())]
    )
    return rows


def test_ablation_queue_discipline(benchmark):
    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    emit(
        "Ablation: run-queue discipline under a burst arrival "
        "(4x4 grid, 4 workers, all 30 phases injected at t=0)",
        format_table(
            ["discipline", "makespan", "mean detection latency", "max"],
            rows,
        )
        + "\nall five schedules produce identical records — serializability "
        "turns queue order into a pure performance knob",
    )

    by_name = {r[0]: r for r in rows}
    benchmark.extra_info["mean_latency_fifo"] = by_name["fifo"][2]
    benchmark.extra_info["mean_latency_low_phase"] = by_name["low_phase_first"][2]
    # Draining old phases first minimises mean detection latency among the
    # pipelined disciplines; LIFO/vertex-order starve old phases.
    assert by_name["low_phase_first"][2] <= by_name["fifo"][2] + 1e-9
    assert by_name["low_phase_first"][2] < by_name["lifo"][2]
    assert by_name["low_phase_first"][2] < by_name["low_vertex_first"][2]
    # Throughput stays within a modest band across disciplines.
    makespans = [r[1] for r in rows]
    assert max(makespans) / min(makespans) < 1.5
