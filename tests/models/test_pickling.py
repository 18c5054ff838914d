"""Picklability audit: everything the process engine ships must round-trip.

The process backend (:mod:`repro.runtime.mp`) pickles vertex behaviours
(the per-worker warm cache), :class:`~repro.events.PhaseInput` payloads,
and :meth:`~repro.core.vertex.Vertex.snapshot_state` snapshots.  These
tests enumerate every vertex class in :mod:`repro.models` (domains
included) and prove each survives a pickle round-trip — fresh *and* after
its state has evolved through real phases — so a model added with a
closure or lambda inside fails here, not deep inside a worker process.
"""

from __future__ import annotations

import inspect
import pickle
import random
import sys
from collections import deque
from typing import Any, Dict

import pytest

import repro.models  # noqa: F401 - populates sys.modules
import repro.models.domains.crisis  # noqa: F401
import repro.models.domains.epidemic  # noqa: F401
import repro.models.domains.intrusion  # noqa: F401
import repro.models.domains.laundering  # noqa: F401
import repro.models.domains.power  # noqa: F401
from repro.core.serial import SerialExecutor
from repro.core.vertex import Vertex
from repro.events import Event, PhaseInput
from repro.models.domains.laundering import build_laundering_workload
from repro.models.statistics import ZScoreDetector
from repro.streams import cpu_heavy_workload, fig1_workload, grid_workload

from tests.conftest import VertexHarness

# Constructor arguments for classes whose parameters have no defaults.
REQUIRED_ARGS: Dict[str, Dict[str, Any]] = {
    "Difference": {"minuend": "a", "subtrahend": "b"},
    "LinearCombiner": {"weights": {"a": 1.0, "b": -0.5}},
    "KofN": {"k": 2},
    "Threshold": {"limit": 1.0},
    "PearsonCorrelator": {"a_input": "a", "b_input": "b"},
    "TwoSigmaDetector": {"rate_input": "rate", "model_input": "model"},
    "RegionThreat": {"center": (10.0, 20.0)},
    "StructuringDetector": {"key": "acct00"},
    "EvacuationAdvisor": {
        "region": "r1",
        "threat_input": "threat",
        "flood_input": "flood",
        "roads_input": "roads",
        "capacity_input": "capacity",
    },
}


def _model_vertex_classes():
    """Every Vertex subclass defined under repro.models (domains incl.)."""
    classes = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if not mod_name.startswith("repro.models"):
            continue
        for cls_name, cls in inspect.getmembers(mod, inspect.isclass):
            if (
                issubclass(cls, Vertex)
                and cls is not Vertex
                and cls.__module__ == mod_name
            ):
                classes[f"{mod_name}.{cls_name}"] = cls
    return classes


MODEL_CLASSES = _model_vertex_classes()


def make_instance(cls) -> Vertex:
    return cls(**REQUIRED_ARGS.get(cls.__name__, {}))


def normalized(state: Any) -> Any:
    """Make snapshots comparable by value.

    Snapshot trees contain objects that compare by identity (``Random``,
    nested helper objects like ``RunningStats``, numpy ``Generator``);
    flatten them all into plain comparable structures.
    """
    if isinstance(state, random.Random):
        return ("<Random>", state.getstate())
    if isinstance(state, dict):
        return {k: normalized(v) for k, v in state.items()}
    if isinstance(state, (list, tuple, deque)):
        return [normalized(v) for v in state]
    if isinstance(state, (set, frozenset)):
        return ("<set>", sorted(repr(v) for v in state))
    if type(state).__name__ == "Generator" and hasattr(state, "bit_generator"):
        return ("<np.Generator>", normalized(state.bit_generator.state))
    if hasattr(state, "tolist") and type(state).__module__.startswith("numpy"):
        return ("<ndarray>", state.tolist())
    if hasattr(state, "__dict__"):
        return (type(state).__name__, normalized(vars(state)))
    return state


def assert_equivalent(a: Vertex, b: Vertex) -> None:
    assert type(a) is type(b)
    assert normalized(a.snapshot_state()) == normalized(b.snapshot_state())


class TestVertexClassDiscovery:
    def test_discovery_found_the_catalog(self):
        # Guard against the walk silently matching nothing.
        assert len(MODEL_CLASSES) >= 40
        names = {cls.__name__ for cls in MODEL_CLASSES.values()}
        assert {"Sum", "ZScoreDetector", "DenseZScoreDetector",
                "CaseAggregator", "RandomWalkSensor"} <= names


@pytest.mark.parametrize(
    "qualname", sorted(MODEL_CLASSES), ids=lambda q: q.rsplit(".", 1)[-1]
)
class TestFreshInstanceRoundTrip:
    def test_pickle_round_trip(self, qualname):
        original = make_instance(MODEL_CLASSES[qualname])
        clone = pickle.loads(pickle.dumps(original))
        assert_equivalent(original, clone)

    def test_snapshot_restore_round_trip(self, qualname):
        original = make_instance(MODEL_CLASSES[qualname])
        snapshot = original.snapshot_state()
        # The snapshot itself must be picklable (it crosses the wire in
        # FinalStateMsg frames) ...
        snapshot = pickle.loads(pickle.dumps(snapshot))
        fresh = make_instance(MODEL_CLASSES[qualname])
        fresh.restore_state(snapshot)
        assert_equivalent(original, fresh)


class TestExercisedStateRoundTrip:
    """Pickle behaviours *after* their state evolved through real phases —
    warm-cache shipping is exactly this."""

    @pytest.mark.parametrize(
        "workload",
        [
            lambda: grid_workload(3, 3, phases=10, seed=3),
            lambda: fig1_workload(phases=10),
            lambda: cpu_heavy_workload(width=3, depth=2, phases=5, grain=50),
            lambda: build_laundering_workload(phases=30, dense=True),
            lambda: build_laundering_workload(phases=30, dense=False),
        ],
        ids=["grid", "fig1", "cpu_heavy", "laundering_dense",
             "laundering_sparse"],
    )
    def test_workload_behaviors_round_trip(self, workload):
        program, phases = workload()
        SerialExecutor(program).run(phases)
        for name, behavior in program.behaviors.items():
            clone = pickle.loads(pickle.dumps(behavior))
            assert_equivalent(behavior, clone)

    def test_restored_behavior_continues_identically(self):
        # A behaviour pickled mid-stream must keep producing the same
        # outputs as the original — the warm-cache shipping contract.
        original = ZScoreDetector(window=5, threshold=1.5)
        h1 = VertexHarness(original, name="det")
        stream = [0.0, 0.1, -0.2, 0.05, 0.0, 9.0, 0.1, -0.1, 8.5, 0.2]
        for p, x in enumerate(stream[:5], start=1):
            h1.step(p, changed={"in": x})
        clone = pickle.loads(pickle.dumps(original))
        h2 = VertexHarness(clone, name="det")
        h2.latched.update(h1.latched)
        for p, x in enumerate(stream[5:], start=6):
            out1 = h1.step(p, changed={"in": x})
            out2 = h2.step(p, changed={"in": x})
            assert out1 == out2
        assert_equivalent(original, clone)


class TestPayloadRoundTrip:
    def test_phase_input(self):
        pi = PhaseInput(3, 2.5, {"src": (1, "reading", [0.5])})
        clone = pickle.loads(pickle.dumps(pi))
        assert clone == pi

    def test_event_and_message(self):
        # Edges carry raw payloads, so the event is the only wrapper.
        ev = Event(1.25, "sensor", {"v": 7})
        assert pickle.loads(pickle.dumps(ev)) == ev
