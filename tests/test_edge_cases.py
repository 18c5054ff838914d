"""Edge cases and robustness tests across engines."""

import threading
import time

import pytest

from repro.analysis.serializability import assert_serializable
from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import EMIT_NOTHING, FunctionVertex, PassthroughSource
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph
from repro.models.sensors import SilentSource
from repro.runtime.engine import ParallelEngine
from repro.runtime.feed import PhaseFeed
from repro.simulator.costs import CostModel
from repro.simulator.machine import SimulatedEngine
from repro.streams.workloads import grid_workload, pipeline_workload

from tests.conftest import ScriptedSource, forward_vertex, signals, sum_vertex
from tests.runtime.regime_clock import RegimeClockBackend


class TestDegenerateGraphs:
    def engines(self, prog):
        return [
            SerialExecutor(prog),
            ParallelEngine(prog, num_threads=2),
            SimulatedEngine(prog, num_workers=2),
        ]

    def test_single_vertex_graph(self):
        g = ComputationGraph()
        g.add_vertex("only")
        prog = Program(g, {"only": ScriptedSource({1: "x", 3: "y"})})
        results = [e.run(signals(3)) for e in self.engines(prog)]
        for r in results[1:]:
            assert_serializable(results[0], r)
        # A source with no successors is also a sink: its emissions are
        # recorded (the sink-emit-records convention).
        assert results[0].records == {"only": [(1, "x"), (3, "y")]}

    def test_isolated_vertices(self):
        g = ComputationGraph.from_edges(
            [("a", "b")], extra_vertices=["lonely1", "lonely2"]
        )
        prog = Program(
            g,
            {
                "a": ScriptedSource({1: 1, 2: 2}),
                "b": forward_vertex(),
                "lonely1": ScriptedSource({2: "solo"}),
                "lonely2": SilentSource(),
            },
        )
        results = [e.run(signals(2)) for e in self.engines(prog)]
        for r in results[1:]:
            assert_serializable(results[0], r)

    def test_all_silent_sources(self):
        """Nothing ever emits: phases still complete (the pure-absence
        case), with exactly sources x phases executions."""
        g = ComputationGraph.from_edges([("s1", "mid"), ("s2", "mid"), ("mid", "t")])
        prog = Program(
            g,
            {
                "s1": SilentSource(),
                "s2": SilentSource(),
                "mid": sum_vertex(),
                "t": forward_vertex(),
            },
        )
        for engine in self.engines(prog):
            res = engine.run(signals(5))
            assert res.execution_count == 2 * 5
            assert res.message_count == 0

    def test_single_phase(self):
        prog, phases = grid_workload(3, 3, phases=1, seed=1)
        results = [e.run(phases) for e in self.engines(prog)]
        for r in results[1:]:
            assert_serializable(results[0], r)

    def test_many_phases_tiny_graph(self):
        prog, _ = pipeline_workload(depth=2, phases=1)
        phases = signals(500)
        serial = SerialExecutor(prog).run(phases)
        par = ParallelEngine(prog, num_threads=4).run(phases)
        assert_serializable(serial, par)


class TestPayloadKinds:
    def make_prog(self, payloads):
        g = ComputationGraph.from_edges([("src", "fwd")])
        return Program(
            g,
            {
                "src": ScriptedSource(dict(enumerate(payloads, start=1))),
                "fwd": forward_vertex(),
            },
        )

    def test_falsy_payloads_are_messages(self):
        """0, False, '', empty tuple — all legitimate message values."""
        payloads = [0, False, "", (), 0.0]
        prog = self.make_prog(payloads)
        serial = SerialExecutor(prog).run(signals(len(payloads)))
        assert [v for _p, v in serial.records["fwd"]] == payloads

    def test_none_cannot_be_distinguished(self):
        """Returning None from on_execute means 'no message' by contract;
        a behaviour that must send 'nothing happened' sends a sentinel."""
        prog = self.make_prog([None, 1])
        serial = SerialExecutor(prog).run(signals(2))
        # Phase 1 produced no message; only phase 2 flowed through.
        assert serial.records["fwd"] == [(2, 1)]

    def test_rich_payloads(self):
        payloads = [{"k": [1, 2]}, ("tuple", 3), "text"]
        prog = self.make_prog(payloads)
        serial = SerialExecutor(prog).run(signals(3))
        par = ParallelEngine(prog, num_threads=2).run(signals(3))
        assert_serializable(serial, par)


class TestSimulatedEngineCostPaths:
    def test_zero_cost_model_still_correct(self):
        prog, phases = grid_workload(3, 3, phases=10, seed=2)
        serial = SerialExecutor(prog).run(phases)
        res = SimulatedEngine(
            prog, num_workers=3,
            cost_model=CostModel(
                compute_cost=0.0, bookkeeping_cost=0.0, phase_start_cost=0.0
            ),
        ).run(phases)
        assert_serializable(serial, res)
        assert res.wall_time == 0.0


class TestFlowControlMemory:
    def test_flow_control_bounds_edge_history(self):
        """Without flow control a fast producer's edge histories grow with
        the phase backlog; with max_in_flight_phases they stay bounded."""
        prog, _ = pipeline_workload(depth=3, phases=1)
        phases = signals(300)

        # Make the tail vertex slow so the head races ahead.
        import time as _time

        tail = prog.behaviors["v3"]
        orig = tail.on_execute

        def slow(ctx, orig=orig):
            _time.sleep(0.0003)
            return orig(ctx)

        tail.on_execute = slow  # type: ignore[method-assign]

        def free_and_bounded(backend):
            return (
                ParallelEngine(prog, num_threads=2, backend=backend()).run(phases),
                ParallelEngine(
                    prog,
                    num_threads=2,
                    max_in_flight_phases=4,
                    backend=backend(),
                ).run(phases),
            )

        # Per channel: the latched entry plus one per in-flight phase.
        edges = prog.graph.num_edges
        free, bounded = free_and_bounded(lambda: None)
        assert bounded.records == free.records
        assert bounded.stats["edge_entries_peak"] <= edges * (4 + 1)
        assert free.stats["edge_entries_peak"] > 10 * edges * (4 + 1)
        # The window also bounds how many phases one claimed run can take,
        # whoever computes it: script the paper's regime, every vertex
        # moved to the executors, and compare run lengths.
        free, bounded = free_and_bounded(
            lambda: RegimeClockBackend(compute_dear=True)
        )
        assert bounded.records == free.records
        runs = [r.stats["coalescing"]["mean_run_length"] for r in (bounded, free)]
        assert runs[0] <= 4 and runs[0] <= runs[1], runs
        assert bounded.stats["drain"]["pooled_runs"] > 0
        assert bounded.stats["edge_entries_peak"] <= edges * (4 + 1)

    def test_pacing_and_flow_control_together(self):
        # Pacing is the producer's: phases trickle into an open feed while
        # at most two are in flight.
        prog, phases = grid_workload(2, 3, phases=15, seed=3)
        serial = SerialExecutor(prog).run(phases)
        feed = PhaseFeed(capacity=4)

        def produce():
            for pi in phases:
                feed.put([pi])
                time.sleep(0.0005)
            feed.close()

        producer = threading.Thread(target=produce)
        producer.start()
        res = ParallelEngine(
            prog, num_threads=2, max_in_flight_phases=2
        ).run_feed(feed)
        producer.join()
        assert_serializable(serial, res)


class TestEmitToTargeting:
    def test_selective_emission(self):
        """emit_to sends to one successor; the other sees absence."""
        g = ComputationGraph.from_edges([("src", "left"), ("src", "right")])

        class Splitter(PassthroughSource):
            def on_execute(self, ctx):
                if ctx.phase % 2 == 0:
                    ctx.emit_to("left", ctx.phase)
                else:
                    ctx.emit_to("right", ctx.phase)
                return EMIT_NOTHING

        prog = Program(
            g,
            {"src": Splitter(), "left": forward_vertex(), "right": forward_vertex()},
        )
        serial = SerialExecutor(prog).run(signals(6))
        par = ParallelEngine(prog, num_threads=2).run(signals(6))
        assert_serializable(serial, par)
        assert [p for p, _ in serial.records["left"]] == [2, 4, 6]
        assert [p for p, _ in serial.records["right"]] == [1, 3, 5]
