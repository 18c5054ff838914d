"""Failure injection across engines: vertex exceptions must surface as
typed errors from every engine, leaving no silent corruption."""

import threading

import pytest

from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import FunctionVertex, PassthroughSource, SourceVertex
from repro.errors import VertexExecutionError
from repro.events import PhaseInput
from repro.graph.generators import chain_graph
from repro.graph.model import ComputationGraph
from repro.runtime.engine import ParallelEngine
from repro.runtime.mp import ProcessEngine
from repro.simulator.machine import SimulatedEngine

from tests.conftest import signals


class Chatty(SourceVertex):
    def on_execute(self, ctx):
        return ctx.phase


def failing_program(fail_phase: int = 2) -> Program:
    g = ComputationGraph.from_edges([("src", "mid"), ("mid", "out")])

    def mid(ctx):
        if ctx.phase == fail_phase:
            raise RuntimeError("injected failure")
        return ctx.input("src")

    return Program(
        g,
        {
            "src": Chatty(),
            "mid": FunctionVertex(mid),
            "out": FunctionVertex(lambda ctx: ctx.input("mid")),
        },
    )


def failing_two_chains() -> Program:
    """Two chains with no path between them; only ``mid[a]`` fails."""
    g = ComputationGraph.from_edges(
        [("src[a]", "mid[a]"), ("src[b]", "mid[b]")]
    )

    def fail_on_2(ctx):
        if ctx.phase == 2:
            raise RuntimeError("injected failure")
        return ctx.changed and 1

    return Program(
        g,
        {
            "src[a]": Chatty(),
            "mid[a]": FunctionVertex(fail_on_2),
            "src[b]": Chatty(),
            "mid[b]": FunctionVertex(lambda c: c.input("src[b]")),
        },
    )


class TestSerialFailure:
    def test_raises_typed_error(self):
        prog = failing_program()
        with pytest.raises(VertexExecutionError) as ei:
            SerialExecutor(prog).run(signals(5))
        assert ei.value.vertex == "mid"
        assert ei.value.phase == 2
        assert isinstance(ei.value.__cause__, RuntimeError)


class TestParallelFailure:
    @pytest.mark.parametrize(
        "build, vertex, threads",
        [
            pytest.param(failing_program, "mid", 1, id="1"),
            pytest.param(failing_program, "mid", 4, id="4"),
            # The failing (v, p) of one chain surfaces while the threads
            # working the other, independent chain are joined too.
            pytest.param(failing_two_chains, "mid[a]", 4, id="two-chains-4"),
        ],
    )
    def test_raises_and_terminates(self, build, vertex, threads):
        before = threading.active_count()
        engine = ParallelEngine(build(), num_threads=threads, join_timeout=30)
        with pytest.raises(
            VertexExecutionError, match="injected failure"
        ) as ei:
            engine.run(signals(5))
        assert (ei.value.vertex, ei.value.phase) == (vertex, 2)
        assert threading.active_count() <= before

    def test_failure_on_first_phase(self):
        prog = failing_program(fail_phase=1)
        with pytest.raises(VertexExecutionError):
            ParallelEngine(prog, num_threads=2, join_timeout=30).run(signals(3))

    def test_failure_on_last_phase(self):
        prog = failing_program(fail_phase=5)
        with pytest.raises(VertexExecutionError):
            ParallelEngine(prog, num_threads=2, join_timeout=30).run(signals(5))


class TestAnotherPairsVertexError:
    """A vertex that raises some other pair's ``VertexExecutionError``
    fails as itself, with that error as the cause.

    Regression: the error went up unchanged, so the serial oracle blamed
    the pair it named, and both real engines looked that pair's phase up
    in the failing run and died of ``ValueError: 999 is not in list``.
    """

    @pytest.mark.parametrize("engine", [
        SerialExecutor,
        lambda prog: ParallelEngine(prog, num_threads=2, join_timeout=30),
        lambda prog: ProcessEngine(prog, num_workers=2, join_timeout=30),
    ], ids=["serial", "parallel", "process"])
    def test_fails_as_the_pair_that_raised_it(self, engine):
        foreign = VertexExecutionError("elsewhere", 999, "not mine")

        def v2(ctx):
            if ctx.phase == 5:
                raise foreign
            return ctx.input("v1")

        prog = Program(
            chain_graph(2), {"v1": PassthroughSource(), "v2": FunctionVertex(v2)}
        )
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 8)]
        with pytest.raises(VertexExecutionError) as ei:
            engine(prog).run(phases)
        assert (ei.value.vertex, ei.value.phase) == ("v2", 5)
        assert "'elsewhere' failed while executing phase 999" in str(ei.value)


class TestSimulatedFailure:
    def test_raises_from_run(self):
        prog = failing_program()
        with pytest.raises(VertexExecutionError, match="injected failure"):
            SimulatedEngine(prog, num_workers=2).run(signals(5))


class TestSourceFailure:
    def test_failing_source(self):
        g = ComputationGraph.from_edges([("src", "out")])

        class Boom(PassthroughSource):
            def on_execute(self, ctx):
                if ctx.phase == 3:
                    raise ValueError("sensor offline")
                return ctx.phase

        prog = Program(
            g, {"src": Boom(), "out": FunctionVertex(lambda c: c.input("src"))}
        )
        for engine in (
            SerialExecutor(prog),
            ParallelEngine(prog, num_threads=2, join_timeout=30),
            SimulatedEngine(prog, num_workers=2),
        ):
            with pytest.raises(VertexExecutionError, match="sensor offline"):
                engine.run(signals(4))
