"""Tests for the serial one-phase-at-a-time oracle."""

import pytest

from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import EMIT_NOTHING, FunctionVertex, PassthroughSource
from repro.events import PhaseInput
from repro.graph.generators import chain_graph, fan_in_graph, fig3_graph

from tests.conftest import ScriptedSource, forward_vertex, signals, sum_vertex


class TestSerialExecutor:
    def test_chain_forwards_values(self, chain_program):
        prog = chain_program(4, {1: "a", 3: "b"})
        res = SerialExecutor(prog).run(signals(4))
        assert res.records["n3"] == [(1, "a"), (3, "b")]
        assert res.engine == "serial"

    def test_delta_execution_counts(self, chain_program):
        # Source emits in phases 1 and 3 only; downstream vertices execute
        # exactly when a message arrives; the source executes every phase.
        prog = chain_program(3, {1: "x", 3: "y"})
        res = SerialExecutor(prog).run(signals(4))
        pairs = res.executions_as_set()
        assert {(1, p) for p in range(1, 5)} <= pairs
        assert (2, 1) in pairs and (2, 3) in pairs
        assert (2, 2) not in pairs and (2, 4) not in pairs
        assert res.execution_count == 4 + 2 + 2

    def test_phase_order_within_records(self, chain_program):
        prog = chain_program(2, {p: p for p in range(1, 6)})
        res = SerialExecutor(prog).run(signals(5))
        phases = [p for p, _v in res.records["n1"]]
        assert phases == sorted(phases)

    def test_fan_in_correlation(self):
        g = fan_in_graph(3)
        behaviors = {
            "src1": ScriptedSource({1: 1}),
            "src2": ScriptedSource({1: 10, 2: 20}),
            "src3": ScriptedSource({2: 300}),
            "sink": sum_vertex(),
        }
        prog = Program(g, behaviors)
        res = SerialExecutor(prog).run(signals(2))
        # Phase 1: src1+src2 = 11.  Phase 2: latched src1=1 + 20 + 300.
        assert res.records["sink"] == [(1, 11), (2, 321)]

    def test_absence_conveys_information(self):
        """A vertex not executing a phase means its value stands: the sink
        keeps using the latched value with no message traffic."""
        g = fig3_graph()
        behaviors = {
            "v1": ScriptedSource({1: 100}),
            "v2": ScriptedSource({1: 1, 2: 2, 3: 3}),
            "v3": sum_vertex(),
            "v4": forward_vertex(),
            "v5": sum_vertex(),
            "v6": forward_vertex(),
        }
        res = SerialExecutor(Program(g, behaviors)).run(signals(3))
        # v3 sums latched {v1, v2}: phase1 101, phase2 102, phase3 103 —
        # v1 contributed once and is latched thereafter.
        sink_values = [v for _p, v in res.records["v5"]]
        assert sink_values[0] == 101 + 1
        assert sink_values[1] == 102 + 2
        assert sink_values[2] == 103 + 3

    def test_rerun_is_reproducible(self, chain_program):
        prog = chain_program(3, {1: 5})
        r1 = SerialExecutor(prog).run(signals(3))
        r2 = SerialExecutor(prog).run(signals(3))
        assert r1.records == r2.records
        assert r1.executions == r2.executions

    def test_zero_phases(self, chain_program):
        prog = chain_program(2, {})
        res = SerialExecutor(prog).run([])
        assert res.execution_count == 0
        assert res.records == {}

    def test_wall_time_positive(self, chain_program):
        prog = chain_program(2, {1: 1})
        res = SerialExecutor(prog).run(signals(1))
        assert res.wall_time >= 0.0


def test_no_engine_reaches_the_oracles_phase_scan():
    # The oracle and the serve spot checker share run_phase; an engine
    # that ran it too would be judged by its own code.
    import re
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    engines = [*root.glob("runtime/**/*.py"), *root.glob("simulator/*.py")]
    assert engines
    for path in engines:
        assert not re.search(r"core\.serial|\.serial import|run_phase",
                             path.read_text()), path
