"""Tests for the Pearson correlator and the vector (NumPy) models."""

import math

import pytest

from repro.analysis.serializability import assert_serializable
from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import VertexContext, EMIT_NOTHING
from repro.errors import WorkloadError
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph
from repro.models.statistics import PearsonCorrelator
from repro.models.vector import VectorReduce, VectorSensor, VectorZScore
from repro.models.basic import Recorder
from repro.runtime.engine import ParallelEngine
from repro.runtime.mp import ProcessEngine
from repro.testing.fuzz import scripted_placement

from tests.conftest import VertexHarness


class TestPearsonCorrelator:
    def drive(self, pairs, window=30, emit_delta=0.0):
        corr = PearsonCorrelator("a", "b", window=window, emit_delta=emit_delta)
        h = VertexHarness(corr)
        out = []
        for p, (a, b) in enumerate(pairs, start=1):
            outputs, _, _ = h.step(p, {"a": a, "b": b})
            out.append(outputs.get("out"))
        return corr, out

    def test_perfectly_correlated(self):
        _corr, out = self.drive([(i, 2 * i + 1) for i in range(10)])
        assert out[-1] == pytest.approx(1.0)

    def test_anticorrelated(self):
        _corr, out = self.drive([(i, -3 * i) for i in range(10)])
        assert out[-1] == pytest.approx(-1.0)

    def test_uncorrelated_near_zero(self):
        import random

        rng = random.Random(5)
        pairs = [(rng.random(), rng.random()) for _ in range(200)]
        corr, _out = self.drive(pairs, window=200)
        assert abs(corr.correlation()) < 0.25

    def test_silent_until_three_pairs(self):
        _corr, out = self.drive([(1, 1), (2, 2)])
        assert out == [None, None]

    def test_silent_until_both_inputs(self):
        corr = PearsonCorrelator("a", "b")
        h = VertexHarness(corr)
        assert h.step(1, {"a": 1.0})[0] == {}

    def test_constant_stream_undefined(self):
        corr, out = self.drive([(1.0, i) for i in range(10)])
        assert corr.correlation() is None
        assert all(o is None for o in out)

    def test_emit_delta_suppression(self):
        _corr, out = self.drive(
            [(i, 2 * i) for i in range(20)], emit_delta=0.5
        )
        emissions = [o for o in out if o is not None]
        assert len(emissions) == 1  # r stays ~1.0: no further emissions

    def test_latched_input_sampling(self):
        """When only one stream changes, the pair uses the other's latched
        value — Section 3.1 semantics applied to correlation."""
        corr = PearsonCorrelator("a", "b", window=10)
        h = VertexHarness(corr)
        h.step(1, {"a": 1.0, "b": 5.0})
        h.step(2, {"a": 2.0})  # b latched at 5.0
        h.step(3, {"a": 3.0})
        assert list(corr._pairs) == [(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            PearsonCorrelator("a", "b", window=2)
        with pytest.raises(WorkloadError):
            PearsonCorrelator("a", "b", emit_delta=-1)

    def test_reset(self):
        corr, _ = self.drive([(i, i) for i in range(5)])
        corr.reset()
        assert corr.correlation() is None


def run_vector_source(src, phases):
    out = []
    for p in range(1, phases + 1):
        ctx = VertexContext(
            name="s", phase=p, inputs={}, changed=set(), successors=["out"]
        )
        value = src.on_execute(ctx)
        out.append(None if value is EMIT_NOTHING else value)
    return out


class TestVectorSensor:
    def test_emits_tuples_every_phase(self):
        out = run_vector_source(VectorSensor(seed=1, channels=4), 10)
        assert all(isinstance(v, tuple) and len(v) == 4 for v in out)

    def test_deterministic_and_resettable(self):
        s = VectorSensor(seed=2, channels=3)
        first = run_vector_source(s, 8)
        s.reset()
        assert run_vector_source(s, 8) == first

    def test_spikes_occur(self):
        s = VectorSensor(seed=3, channels=4, step=0.1, spike_rate=0.3, spike_size=50.0)
        out = run_vector_source(s, 60)
        jumps = 0
        for prev, cur in zip(out, out[1:]):
            if max(abs(c - p) for c, p in zip(cur, prev)) > 25:
                jumps += 1
        assert jumps > 3

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            VectorSensor(channels=0)
        with pytest.raises(WorkloadError):
            VectorSensor(spike_rate=2.0)


class TestVectorZScore:
    def test_localises_spiked_channel(self):
        det = VectorZScore(window=20, threshold=4.0)
        h = VertexHarness(det)
        base = tuple(float(i) for i in range(6))
        import random

        rng = random.Random(7)
        for p in range(1, 31):
            noisy = tuple(v + rng.gauss(0, 0.1) for v in base)
            assert h.step(p, {"x": noisy})[0] == {}
        spiked = list(base)
        spiked[3] += 30.0
        outputs, _, _ = h.step(31, {"x": tuple(spiked)})
        kind, _phase, report = outputs["out"]
        assert kind == "anomaly"
        assert [c for c, _z in report] == [3]

    def test_anomalies_excluded_from_window(self):
        det = VectorZScore(window=20, threshold=4.0)
        h = VertexHarness(det)
        import random

        rng = random.Random(9)
        for p in range(1, 31):
            h.step(p, {"x": tuple(rng.gauss(0, 0.2) for _ in range(3))})
        h.step(31, {"x": (50.0, 0.0, 0.0)})  # anomaly
        outputs, _, _ = h.step(32, {"x": (0.1, 0.0, -0.1)})
        assert outputs == {}  # normal again; window unpolluted

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            VectorZScore(window=2)
        with pytest.raises(WorkloadError):
            VectorZScore(threshold=0)


class TestVectorReduce:
    @pytest.mark.parametrize(
        "op,expected",
        [("mean", 2.0), ("max", 4.0), ("min", 0.0), ("sum", 6.0)],
    )
    def test_ops(self, op, expected):
        h = VertexHarness(VectorReduce(op))
        assert h.step(1, {"x": (0.0, 2.0, 4.0)})[0] == {"out": expected}

    def test_norm(self):
        h = VertexHarness(VectorReduce("norm"))
        assert h.step(1, {"x": (3.0, 4.0)})[0] == {"out": 5.0}

    def test_emit_delta(self):
        h = VertexHarness(VectorReduce("mean", emit_delta=1.0))
        h.step(1, {"x": (0.0, 0.0)})
        assert h.step(2, {"x": (0.5, 0.5)})[0] == {}
        assert h.step(3, {"x": (2.0, 2.0)})[0] == {"out": 2.0}

    def test_invalid_op(self):
        with pytest.raises(WorkloadError):
            VectorReduce("median")


def multichannel_program():
    g = ComputationGraph(name="vector-pipeline")
    g.add_vertices(["array_sensor", "detector", "magnitude", "ops"])
    g.add_edge("array_sensor", "detector")
    g.add_edge("array_sensor", "magnitude")
    g.add_edge("detector", "ops")
    g.add_edge("magnitude", "ops")
    prog = Program(
        g,
        {
            "array_sensor": VectorSensor(
                seed=11, channels=6, step=0.2, spike_rate=0.05, spike_size=40.0
            ),
            "detector": VectorZScore(window=15, threshold=4.0),
            "magnitude": VectorReduce("norm", emit_delta=5.0),
            "ops": Recorder(),
        },
    )
    return prog, [PhaseInput(k, float(k)) for k in range(1, 121)]


class TestVectorPipelineEndToEnd:
    def test_multichannel_program_serializable(self):
        prog, phases = multichannel_program()
        serial = SerialExecutor(prog).run(phases)
        par = ParallelEngine(prog, num_threads=3).run(phases)
        assert_serializable(serial, par)
        anomalies = [
            v for _p, (name, v) in serial.records["ops"] if name == "detector"
        ]
        assert anomalies, "spikes should surface as anomalies"

    def test_multichannel_program_on_spawned_workers(self):
        # A spawned worker is a fresh interpreter that unpickles each
        # promoted vertex without running its __init__; the vector
        # vertices must still find numpy when they compute there.
        prog, phases = multichannel_program()
        serial = SerialExecutor(prog).run(phases)
        with scripted_placement():
            result = ProcessEngine(prog, 2, start_method="spawn").run(phases)
        assert result.records == serial.records
        assert {"array_sensor", "detector", "magnitude"} <= set(
            result.stats["ipc"]["promoted"]
        )
