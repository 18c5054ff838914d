"""Every message a vertex emits is delivered — no engine suppresses one.

The engines once dropped an output whose value equalled the edge's latched
value.  That rule silently broke record equality for an ordinary vertex
whose outcome depends on *arrivals* rather than values; these tests pin the
exact judgement (executed pairs, message count and records equal to the
serial oracle's) on arrival-dependent programs fed repeated values.
"""

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import FunctionVertex, PassthroughSource, Vertex
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph
from repro.models.basic import ArrivalCounter, ChangeRecorder
from repro.models.sensors import ReplaySource
from repro.runtime.engine import ParallelEngine
from repro.simulator import SimulatedEngine


def _fwd(ctx):
    return sum(ctx.inputs[n] for n in sorted(ctx.inputs))


def chain_program(sink):
    """src -> a -> b -> sink with a source that repeats one value."""
    g = ComputationGraph(name="chain")
    g.add_vertices(["src", "a", "b", "sink"])
    g.add_edge("src", "a")
    g.add_edge("a", "b")
    g.add_edge("b", "sink")
    return Program(
        g,
        {
            "src": ReplaySource(values=[5.0] * 40),
            "a": FunctionVertex(_fwd),
            "b": FunctionVertex(_fwd),
            "sink": sink,
        },
        name="chain",
    )


def phases(n=40):
    return [PhaseInput(k, float(k)) for k in range(1, n + 1)]


class TestOptOutSemantics:
    """An arrival-dependent vertex must see every arrival."""

    def test_arrival_counter_sees_every_arrival(self):
        serial = SerialExecutor(chain_program(ArrivalCounter())).run(phases())
        result = ParallelEngine(
            chain_program(ArrivalCounter()), num_threads=2
        ).run(phases())
        # The counts, recorded by the sink, are identical.
        assert check_serializable(serial, result)
        assert result.records == serial.records

    def test_counter_behind_silent_vertex_still_counts_its_arrivals(self):
        # src -> quiet -> counter, where quiet (Sum) emits only when its
        # value moves: the counter hears quiet's one emission, as in the
        # oracle.
        from repro.models.arithmetic import Sum

        def build():
            g = ComputationGraph(name="opt-out")
            g.add_vertices(["src", "quiet", "counter"])
            g.add_edge("src", "quiet")
            g.add_edge("quiet", "counter")
            return Program(
                g,
                {
                    "src": ReplaySource(values=[7.0] * 30),
                    "quiet": Sum(),
                    "counter": ArrivalCounter(),
                },
                name="opt-out",
            )

        serial = SerialExecutor(build()).run(phases(30))
        result = ParallelEngine(build(), num_threads=2).run(
            phases(30)
        )
        assert check_serializable(serial, result)
        assert result.records == serial.records


# ---------------------------------------------------------------------------
# An ordinary user vertex on a constant stream
# ---------------------------------------------------------------------------


class ParityOfArrivals(Vertex):
    """A plain user vertex with no declarations: counts its arrivals and
    emits ``"odd"`` or ``"even"``.  Module-level, so it pickles."""

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0

    def on_execute(self, ctx):
        self.count += len(ctx.changed)
        return "odd" if self.count % 2 else "even"


def parity_program():
    """PassthroughSource (constant 5) -> ParityOfArrivals -> ChangeRecorder:
    the parity alternates, so the sink records every phase."""
    g = ComputationGraph(name="parity")
    g.add_vertices(["src", "parity", "sink"])
    g.add_edge("src", "parity")
    g.add_edge("parity", "sink")
    return Program(
        g,
        {
            "src": PassthroughSource(),
            "parity": ParityOfArrivals(),
            "sink": ChangeRecorder(),
        },
        name="parity",
    )


CONSTANT = [PhaseInput(k, float(k), {"src": 5}) for k in range(1, 9)]


def _parallel():
    return ParallelEngine(parity_program(), num_threads=2).run(CONSTANT)


def _process(remote):
    from contextlib import nullcontext

    from repro.runtime.mp import ProcessEngine
    from repro.testing.fuzz import scripted_placement

    engine = ProcessEngine(parity_program(), num_workers=2)
    with scripted_placement() if remote else nullcontext():
        return engine.run(CONSTANT)


def _simulated_cone():
    return SimulatedEngine(
        parity_program(), num_workers=2, num_processors=2, frontier="cone"
    ).run(CONSTANT)


class TestConstantStreamIntoAnOrdinaryVertex:
    @pytest.mark.parametrize(
        "run",
        [
            _parallel,
            lambda: _process(remote=False),
            lambda: _process(remote=True),
            _simulated_cone,
        ],
        ids=["parallel", "process", "process-remote", "simulated-cone"],
    )
    def test_every_engine_equals_the_oracle(self, run):
        serial = SerialExecutor(parity_program()).run(CONSTANT)
        assert len(serial.records["sink"]) == 8
        result = run()
        assert result.records == serial.records
        assert sorted(result.executions) == sorted(serial.executions)
        assert result.message_count == serial.message_count
        assert check_serializable(serial, result)
        assert "suppression" not in result.stats

