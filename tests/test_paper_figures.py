"""Integration tests reproducing every figure and measurement of the paper.

One test class per exhibit (Figures 1–3, the Section 4 measurement and
prediction) plus the Section 2 phase-barrier baseline they are compared
against.  This is the assertion suite; ``repro report`` runs the same
exhibits and prints the tables and renders (EXPERIMENTS.md).
"""

import pytest

from repro.analysis.ascii_viz import render_frames
from repro.analysis.serializability import assert_serializable
from repro.core.invariants import InvariantChecker
from repro.core.reference import ReferenceScheduler
from repro.core.serial import SerialExecutor
from repro.core.tracer import ExecutionTracer, SetSnapshot, max_concurrent_phases
from repro.errors import NumberingError
from repro.graph.generators import (
    FIG3_EXPECTED,
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
from repro.simulator.metrics import speedup_curve
from repro.runtime.engine import ParallelEngine
from repro.streams.workloads import fig1_workload, grid_workload, pipeline_workload


class TestFigure1:
    """A 10-node graph in which 5 phases are being executed concurrently."""

    def run(self, max_in_flight_phases):
        # Plenty of workers and processors: pipelining limited only by the
        # graph depth (5), exactly as the figure depicts.
        prog, phases = fig1_workload(phases=40)
        tracer = ExecutionTracer()
        result = SimulatedEngine(
            prog,
            num_workers=10,
            num_processors=10,
            cost_model=CostModel(compute_cost=1.0, bookkeeping_cost=0.001),
            tracer=tracer,
            max_in_flight_phases=max_in_flight_phases,
        ).run(phases)
        return result, max_concurrent_phases(tracer.intervals())

    def test_five_phases_in_flight(self):
        _, observed = self.run(None)
        assert observed == 5

    def test_barrier_baseline_has_one_phase_in_flight(self):
        barrier, observed = self.run(1)
        assert observed == 1
        # Pipelining changes when pairs run, never what they compute.
        assert barrier.records == self.run(None)[0].records

    def test_pipelining_cannot_exceed_depth(self):
        from repro.graph.analysis import max_pipelining_depth

        assert max_pipelining_depth(fig1_graph()) == 5


class TestFigure2:
    """Two topologically sorted numberings; (a) fails the restriction."""

    def test_satisfactory_numbering_and_m_sequence(self):
        nb = Numbering.from_mapping(fig2_graph(), fig2b_numbering())
        assert nb.m_sequence() == [3, 3, 4, 5, 5, 6, 7, 7]

    def test_unsatisfactory_numbering_rejected_with_papers_witness(self):
        g = fig2_graph()
        with pytest.raises(NumberingError):
            verify_numbering(g, fig2a_numbering())
        assert compute_S(g, fig2a_numbering(), 2) == {1, 2, 3, 5}

    def test_algorithm_recovers_a_satisfactory_numbering(self):
        nb = number_graph(fig2_graph())
        verify_numbering(nb.graph, nb.index_of)
        assert nb.m_sequence() == [3, 3, 4, 5, 5, 6, 7, 7]


class TestFigure3:
    """Eight steps in the execution of a computation graph, with the
    partial / full / ready membership of every vertex-phase pair."""

    def run_steps(self):
        nb = number_graph(fig3_graph())
        state = ReferenceScheduler(nb, checker=InvariantChecker())
        steps = []

        def snap(label):
            steps.append(SetSnapshot.of(state, label))

        state.start_phase()
        snap("(a) Phase 1 initiated")
        state.complete_execution(1, 1, [3])
        snap("(b) (1,1) executed, generated output")
        state.start_phase()
        snap("(c) Phase 2 initiated")
        state.complete_execution(1, 2, [])
        snap("(d) (1,2) executed, generated no output")
        state.complete_execution(2, 1, [3, 4])
        snap("(e) (2,1) executed, generated output")
        state.complete_execution(2, 2, [3, 4])
        snap("(f) (2,2) executed, generated output")
        state.complete_execution(3, 1, [5])
        snap("(g) (3,1) executed, generated output")
        state.complete_execution(4, 1, [5, 6])
        snap("(h) (4,1) executed, generated output")
        return steps

    def test_memberships_per_step(self):
        a, b, c, d, e, f, g, h = self.run_steps()
        # (a): sources ready for phase 1.
        assert a.ready == {(1, 1), (2, 1)} and not a.partial
        # (b): (3,1) has a partial input set (diamond).
        assert b.partial == {(3, 1)}
        assert b.ready == {(2, 1)}
        # (c): phase-2 source pairs full; (1,2) ready, (2,2) behind (2,1).
        assert {(1, 2), (2, 2)} <= c.full
        assert c.ready == {(2, 1), (1, 2)}
        # (d): no output, so no new partial pairs.
        assert d.partial == {(3, 1)}
        # (e): (3,1) and (4,1) now full AND ready.
        assert {(3, 1), (4, 1)} <= e.ready
        assert not e.partial
        # (f): phase-2 copies are full but not ready (phase 1 pairs ahead).
        assert {(3, 2), (4, 2)} <= f.full
        assert f.ready == {(3, 1), (4, 1)}
        # (g): (5,1) partial — vertex 4 has not yet spoken.
        assert g.partial == {(5, 1)}
        # (h): everything for phase 1 is full+ready.
        assert {(5, 1), (6, 1)} <= h.ready

    def test_replay_matches_figure_at_every_step(self):
        # The shipped replay (what ``repro report`` renders) against the
        # figure's complete ready and partial sets, step by step.
        snapshots = fig3_replay()
        assert len(snapshots) == len(FIG3_EXPECTED) == 8
        for snap, (ready, partial) in zip(snapshots, FIG3_EXPECTED):
            assert snap.ready == ready, snap.label
            assert snap.partial == partial, snap.label

    def test_frames_render(self):
        steps = self.run_steps()
        text = render_frames(steps, n=6, phases=[1, 2])
        assert "(a) Phase 1 initiated" in text
        assert "legend" in text
        # Step (b): vertex 3 phase 1 is partial.
        assert "3:P" in text


class TestSection4Speedup:
    """The paper's measurement: ~50% speedup with 2 computation threads on
    a dual-processor machine, and the near-linear prediction."""

    def workload(self):
        return grid_workload(4, 4, phases=40, seed=9)

    def test_dual_processor_band(self):
        prog, phases = self.workload()
        cm = CostModel(compute_cost=1.0, bookkeeping_cost=0.35, phase_start_cost=0.1)
        pts = speedup_curve(prog, phases, cm, [1, 2], processors=2)
        assert 1.25 <= pts[1].speedup <= 1.85

    def test_three_threads_contending_on_two_processors(self):
        """The paper explains the sub-linear result by the env thread: 2
        workers + env = 3 threads on 2 CPUs.  Lock contention must rise
        sharply from the 1-worker to the 2-worker configuration."""
        prog, phases = self.workload()
        cm = CostModel(compute_cost=1.0, bookkeeping_cost=0.35, phase_start_cost=0.1)
        pts = speedup_curve(prog, phases, cm, [1, 2], processors=2)
        assert pts[1].lock_contention > pts[0].lock_contention * 2

    def test_near_linear_prediction(self):
        prog, phases = self.workload()
        cm = CostModel(compute_cost=50.0, bookkeeping_cost=0.05)
        pts = speedup_curve(prog, phases, cm, [1, 2, 4], processors=lambda k: k + 1)
        assert pts[1].speedup > 1.85
        assert pts[2].efficiency > 0.85

    def test_prediction_holds_only_at_coarse_grain(self):
        """One worker per processor up to k = 8: "close to linear" while
        vertex work dwarfs the bookkeeping, and — the precondition the
        paper attaches — Amdahl-bound by the global lock when it does not."""
        prog, phases = grid_workload(8, 4, phases=30, seed=10)

        def at_8_workers(cost_model):
            return speedup_curve(
                prog, phases, cost_model, [1, 8], processors=lambda k: k + 1
            )[-1]

        coarse = at_8_workers(CostModel(compute_cost=50.0, bookkeeping_cost=0.05))
        fine = at_8_workers(CostModel(compute_cost=0.1, bookkeeping_cost=0.05))
        assert coarse.efficiency > 0.8
        assert fine.efficiency < 0.6

    def test_efficiency_rises_with_grain_at_four_workers(self):
        """The crossover behind "significantly more time": 4-worker
        efficiency as compute grows from 1:1 to 256:1 of the locked
        bookkeeping (EXPERIMENTS.md records the table)."""
        prog, phases = grid_workload(6, 4, phases=25, seed=22)
        effs = [
            speedup_curve(
                prog, phases,
                CostModel(compute_cost=float(ratio), bookkeeping_cost=1.0),
                [1, 4], processors=lambda k: k + 1,
            )[1].efficiency
            for ratio in (1, 4, 16, 64, 256)
        ]
        assert all(a <= b + 0.02 for a, b in zip(effs, effs[1:]))
        assert effs[0] < 0.5 < effs[-1]
        assert effs[-1] > 0.9


class TestPhaseBarrierBaseline:
    """Section 2's simpler solution — complete phase p before starting
    phase p+1 — is the same engines with one phase in flight."""

    def simulated(self, prog, phases, workers, in_flight, tracer=None):
        return SimulatedEngine(
            prog,
            num_workers=workers,
            num_processors=workers,
            cost_model=CostModel(compute_cost=1.0, bookkeeping_cost=0.01),
            tracer=tracer,
            max_in_flight_phases=in_flight,
        ).run(phases)

    def test_threaded_matches_serial(self):
        prog, phases = grid_workload(3, 3, phases=20, seed=12)
        serial = SerialExecutor(prog).run(phases)
        res = ParallelEngine(
            prog, num_threads=3, max_in_flight_phases=1
        ).run(phases)
        assert_serializable(serial, res)

    def test_simulated_matches_serial(self):
        prog, phases = grid_workload(3, 3, phases=15, seed=13)
        serial = SerialExecutor(prog).run(phases)
        assert_serializable(serial, self.simulated(prog, phases, 3, 1))

    def test_barrier_never_overlaps_phases(self):
        prog, phases = pipeline_workload(depth=5, phases=10)
        tracer = ExecutionTracer()
        self.simulated(prog, phases, 4, 1, tracer)
        assert max_concurrent_phases(tracer.intervals()) == 1

    def test_pipelined_beats_barrier_on_deep_graphs(self):
        """The Section 2 claim: pipelining is 'more efficient' than the
        phase-barrier solution.  On a deep chain with ample workers the
        gap approaches the depth."""
        prog, phases = pipeline_workload(depth=8, phases=40)
        pipe = self.simulated(prog, phases, 8, None)
        barr = self.simulated(prog, phases, 8, 1)
        assert pipe.records == barr.records
        assert barr.wall_time / pipe.wall_time > 3.0

    def test_barrier_no_worse_on_wide_shallow_graphs(self):
        """On a wide, shallow graph a barrier loses little: intra-phase
        parallelism already fills the machine."""
        prog, phases = grid_workload(8, 2, phases=20, seed=14)
        pipe = self.simulated(prog, phases, 4, None)
        barr = self.simulated(prog, phases, 4, 1)
        assert barr.wall_time / pipe.wall_time < 2.0

    def test_gain_grows_with_depth_at_sixteen_vertices(self):
        """Depth feeds the pipeline, width intra-phase parallelism: at a
        fixed 16 vertices the barrier / pipelined makespan ratio climbs
        with depth (EXPERIMENTS.md records the five shapes)."""
        ratio_by_depth = {}
        for width, depth in ((1, 16), (2, 8), (4, 4), (8, 2), (16, 1)):
            prog, phases = grid_workload(width, depth, phases=30, seed=20)
            pipe = self.simulated(prog, phases, 8, None)
            barr = self.simulated(prog, phases, 8, 1)
            assert pipe.records == barr.records
            ratio_by_depth[depth] = barr.wall_time / pipe.wall_time
        assert ratio_by_depth[16] > 3.0  # deep chain: pipelining dominates
        assert ratio_by_depth[1] < 1.6  # flat graph: barrier loses little
        assert ratio_by_depth[16] > ratio_by_depth[4] > ratio_by_depth[1]
