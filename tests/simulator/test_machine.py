"""Tests for the simulated SMP engine: correctness, determinism, and the
speedup shapes of the paper's Section 4."""

import pytest

from repro.analysis.serializability import assert_serializable
from repro.core.invariants import InvariantChecker
from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.tracer import ExecutionTracer
from repro.errors import SimulationError
from repro.graph.generators import chain_graph
from repro.simulator.costs import CostModel
from repro.simulator.machine import SimulatedEngine
from repro.simulator.metrics import SpeedupPoint, speedup_curve
from repro.streams.generators import phase_signals
from repro.streams.workloads import (
    fig1_workload,
    grid_workload,
    pipeline_workload,
    sum_behaviors,
)

from tests.conftest import make_chain_program, signals


class TestCorrectness:
    @pytest.mark.parametrize("workers,procs", [(1, 1), (2, 2), (4, 2), (3, 8)])
    def test_matches_serial_oracle(self, workers, procs):
        prog, phases = grid_workload(3, 3, phases=20, seed=6)
        serial = SerialExecutor(prog).run(phases)
        sim = SimulatedEngine(
            prog, num_workers=workers, num_processors=procs
        ).run(phases)
        assert_serializable(serial, sim)

    def test_invariants_clean(self):
        prog, phases = fig1_workload(phases=15)
        checker = InvariantChecker()
        SimulatedEngine(prog, num_workers=3, checker=checker).run(phases)
        assert checker.violations == []

    def test_barrier_mode_matches_serial(self):
        prog, phases = grid_workload(2, 3, phases=15, seed=7)
        serial = SerialExecutor(prog).run(phases)
        sim = SimulatedEngine(
            prog, num_workers=2, max_in_flight_phases=1
        ).run(phases)
        assert_serializable(serial, sim)

    def test_zero_phases(self):
        prog = make_chain_program(2, {})
        res = SimulatedEngine(prog, num_workers=2).run([])
        assert res.execution_count == 0
        assert res.wall_time == 0.0

    def test_invalid_params(self):
        prog = make_chain_program(2, {})
        with pytest.raises(SimulationError):
            SimulatedEngine(prog, num_workers=0)
        with pytest.raises(SimulationError):
            SimulatedEngine(prog, num_processors=0)
        with pytest.raises(SimulationError):
            SimulatedEngine(prog, max_in_flight_phases=0)


class TestDeterminism:
    def test_identical_reruns(self):
        prog, phases = grid_workload(3, 3, phases=20, seed=8)
        engine = SimulatedEngine(
            prog, num_workers=3, cost_model=CostModel(jitter=0.3, seed=5)
        )
        r1 = engine.run(phases)
        r2 = engine.run(phases)
        assert r1.wall_time == r2.wall_time
        assert r1.executions == r2.executions
        assert r1.records == r2.records

    def test_jitter_changes_schedule_not_results(self):
        prog, phases = grid_workload(3, 3, phases=20, seed=8)
        r1 = SimulatedEngine(
            prog, num_workers=3, cost_model=CostModel(jitter=0.4, seed=1)
        ).run(phases)
        r2 = SimulatedEngine(
            prog, num_workers=3, cost_model=CostModel(jitter=0.4, seed=2)
        ).run(phases)
        assert r1.records == r2.records
        assert r1.executions_as_set() == r2.executions_as_set()


class TestVirtualTime:
    def test_serial_makespan_accounts_all_work(self):
        """k=1, P=1, unit compute: makespan >= executions x compute."""
        prog, phases = pipeline_workload(depth=4, phases=10)
        cm = CostModel(compute_cost=1.0, bookkeeping_cost=0.0, phase_start_cost=0.0)
        res = SimulatedEngine(
            prog, num_workers=1, num_processors=1, cost_model=cm
        ).run(phases)
        assert res.wall_time == pytest.approx(res.execution_count * 1.0)

    def test_makespan_bounded_below_by_critical_path(self):
        prog, phases = pipeline_workload(depth=6, phases=1)
        cm = CostModel(compute_cost=2.0, bookkeeping_cost=0.0, phase_start_cost=0.0)
        res = SimulatedEngine(
            prog, num_workers=8, num_processors=8, cost_model=cm
        ).run(phases)
        # One phase through a depth-6 chain cannot beat 6 x 2.0.
        assert res.wall_time >= 12.0

    def test_tracer_uses_virtual_clock(self):
        prog, phases = pipeline_workload(depth=3, phases=5)
        tracer = ExecutionTracer()
        cm = CostModel(compute_cost=1.0)
        res = SimulatedEngine(
            prog, num_workers=2, cost_model=cm, tracer=tracer
        ).run(phases)
        times = [ev.time for ev in tracer.events]
        assert max(times) <= res.wall_time
        assert any(t > 0 for t in times)


class TestSpeedupShapes:
    """The Section 4 results, as shape assertions."""

    def test_dual_processor_two_workers_speedup_about_half(self):
        """The paper: ~50% speedup with 2 computation threads on a
        dual-processor (env thread always present).  With a moderate
        bookkeeping:compute ratio the simulated machine lands in the same
        band."""
        prog, phases = grid_workload(4, 4, phases=40, seed=9)
        cm = CostModel(compute_cost=1.0, bookkeeping_cost=0.35, phase_start_cost=0.1)
        points = speedup_curve(prog, phases, cm, [1, 2], processors=2)
        speedup = points[1].speedup
        assert 1.25 <= speedup <= 1.85, f"speedup {speedup} outside paper band"

    def test_near_linear_for_coarse_grain(self):
        """The paper's prediction: near-linear speedup with one worker per
        processor when vertex compute dominates bookkeeping."""
        prog, phases = grid_workload(8, 4, phases=25, seed=10)
        cm = CostModel(compute_cost=50.0, bookkeeping_cost=0.05)
        points = speedup_curve(
            prog, phases, cm, [1, 2, 4], processors=lambda k: k + 1
        )
        assert points[1].speedup > 1.8
        assert points[2].speedup > 3.4
        assert points[2].efficiency > 0.85

    def test_fine_grain_degrades(self):
        """When bookkeeping rivals compute, the global lock serialises and
        efficiency collapses — the flip side of the paper's prediction."""
        prog, phases = grid_workload(8, 4, phases=25, seed=10)
        cm = CostModel(compute_cost=0.05, bookkeeping_cost=0.05)
        points = speedup_curve(
            prog, phases, cm, [1, 4], processors=lambda k: k + 1
        )
        assert points[1].efficiency < 0.7

    def test_more_workers_never_hurt_much(self):
        prog, phases = grid_workload(6, 3, phases=20, seed=11)
        cm = CostModel(compute_cost=5.0, bookkeeping_cost=0.1)
        points = speedup_curve(
            prog, phases, cm, [1, 2, 4, 8], processors=lambda k: k
        )
        makespans = [p.makespan for p in points]
        assert makespans[1] < makespans[0]
        # Saturation beyond available parallelism is fine; regression is not.
        assert makespans[3] <= makespans[1] * 1.05

    def test_speedup_point_formatting(self):
        prog, phases = grid_workload(2, 2, phases=5)
        points = speedup_curve(prog, phases, CostModel(), [1])
        assert len(SpeedupPoint.header().split()) == 7
        assert len(points[0].row().split()) == 7

    def test_speedup_curve_empty(self):
        prog, phases = grid_workload(2, 2, phases=5)
        assert speedup_curve(prog, phases, CostModel(), []) == []


class TestStats:
    def test_stats_structure(self):
        prog, phases = grid_workload(3, 3, phases=10)
        res = SimulatedEngine(prog, num_workers=2, num_processors=2).run(phases)
        assert res.stats["num_workers"] == 2
        assert 0 <= res.stats["processors"]["utilization"] <= 1.0
        assert res.stats["lock"]["total_requests"] > 0
        assert res.engine == "simulated[k=2,P=2]"


class TestFlowControlMemory:
    """Edge-history memory vs pipelining freedom: every phase a producer
    runs ahead of a slow consumer stays in that edge's history, so the
    paper's unthrottled environment buys its pipelining with memory that
    ``max_in_flight_phases`` bounds (EXPERIMENTS.md records the sweep)."""

    def test_a_small_bound_caps_memory_at_unbounded_throughput(self):
        g = chain_graph(5)
        prog = Program(g, sum_behaviors(g, seed=5))
        # The sink is 10x slower than the rest: the head races ahead.
        cost = CostModel(
            compute_cost=lambda name, phase: 10.0 if name == "v5" else 1.0,
            bookkeeping_cost=0.01,
        )
        runs = {
            bound: SimulatedEngine(
                prog, num_workers=4, num_processors=4, cost_model=cost,
                max_in_flight_phases=bound,
            ).run(phase_signals(120))
            for bound in (1, 2, 4, 8, None)
        }
        for res in runs.values():
            assert res.records == runs[None].records  # pure policy
        peak = {b: res.stats["edge_entries_peak"] for b, res in runs.items()}
        makespan = {b: res.wall_time for b, res in runs.items()}
        # Memory grows with freedom...
        assert peak[None] > peak[2] * 3
        # ...while a bound of 2 already matches unbounded throughput (the
        # slow stage pins the pipeline); only the barrier pays for it.
        assert makespan[2] <= makespan[None] * 1.05
        assert makespan[1] > makespan[2] * 1.2
        assert peak[1] <= peak[2] <= peak[4] <= peak[8]
