"""Cross-engine integration matrix.

Every engine (serial oracle, threaded parallel at several thread counts,
simulated SMP in pipelined and barrier modes, dense baseline where
comparable) over every workload family — all results must agree.
"""

import pytest

from repro.analysis.serializability import assert_serializable
from repro.core.invariants import InvariantChecker
from repro.core.serial import SerialExecutor
from repro.models.domains import (
    build_crisis_workload,
    build_epidemic_workload,
    build_intrusion_workload,
    build_laundering_workload,
    build_power_pricing_workload,
)
from repro.runtime.engine import ParallelEngine
from repro.simulator.costs import CostModel
from repro.simulator.machine import SimulatedEngine
from repro.streams.workloads import (
    fanin_workload,
    fig1_workload,
    grid_workload,
    pipeline_workload,
)

WORKLOADS = [
    pytest.param(lambda: pipeline_workload(depth=6, phases=25), id="pipeline"),
    pytest.param(lambda: fanin_workload(fan=6, phases=25), id="fanin"),
    pytest.param(lambda: grid_workload(3, 3, phases=25, seed=1), id="grid"),
    pytest.param(lambda: fig1_workload(phases=25), id="fig1"),
    pytest.param(
        lambda: build_power_pricing_workload(phases=80), id="power"
    ),
    pytest.param(
        lambda: build_laundering_workload(phases=150, branches=2, anomaly_rate=0.02),
        id="laundering",
    ),
    pytest.param(
        lambda: build_epidemic_workload(phases=70, counties=4), id="epidemic"
    ),
    pytest.param(
        lambda: build_intrusion_workload(phases=150), id="intrusion"
    ),
    pytest.param(
        lambda: build_crisis_workload(phases=80, regions=2), id="crisis"
    ),
]


@pytest.mark.parametrize("builder", WORKLOADS)
class TestEngineMatrix:
    def test_threaded_engines_match_serial(self, builder):
        prog, phases = builder()
        serial = SerialExecutor(prog).run(phases)
        for threads in (1, 2, 4):
            par = ParallelEngine(prog, num_threads=threads).run(phases)
            assert_serializable(serial, par)

    def test_simulated_engines_match_serial(self, builder):
        prog, phases = builder()
        serial = SerialExecutor(prog).run(phases)
        sim = SimulatedEngine(
            prog,
            num_workers=3,
            num_processors=2,
            cost_model=CostModel(jitter=0.3, seed=11),
        ).run(phases)
        assert_serializable(serial, sim)

    def test_barrier_engines_match_serial(self, builder):
        prog, phases = builder()
        serial = SerialExecutor(prog).run(phases)
        assert_serializable(
            serial,
            ParallelEngine(
                prog, num_threads=2,
                max_in_flight_phases=1,
            ).run(phases),
        )
        assert_serializable(
            serial,
            SimulatedEngine(
                prog, num_workers=2, max_in_flight_phases=1
            ).run(phases),
        )

    def test_invariants_hold_under_threads(self, builder):
        prog, phases = builder()
        checker = InvariantChecker()
        ParallelEngine(prog, num_threads=3, checker=checker).run(phases)
        assert checker.violations == []
        assert checker.checks_run > 0
