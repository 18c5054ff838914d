"""Soak tests: repeated concurrent runs hunting for races.

The threaded engine's correctness depends on the single-lock discipline;
these tests hammer it with varied thread counts and workload shapes,
comparing every run against the serial oracle.  Runtimes are kept modest
(the suite stays seconds, not minutes) while still cycling enough
schedules to surface ordering bugs — historically the fig1 + 4-thread
combination flushed out queue-close races during development.

Every workload is explicitly seeded, so a failure reproduces from the
test name alone.  The suite is marked ``soak`` and excluded from the
default (tier-1) run — select it with ``pytest -m soak``.  For targeted,
*deterministic* schedule exploration of the same engine, see
``tests/testing`` and ``repro fuzz``.
"""

import sys

import pytest

pytestmark = pytest.mark.soak

from repro.analysis.serializability import assert_serializable
from repro.core.invariants import InvariantChecker
from repro.core.serial import SerialExecutor
from repro.models.domains import build_crisis_workload
from repro.runtime.engine import ParallelEngine
from repro.streams.workloads import fanin_workload, fig1_workload, pipeline_workload

from tests.runtime.regime_clock import RegimeClockBackend
from tests.test_differential import FAMILIES, run_cell


class TestSoak:
    @pytest.mark.parametrize("trial", range(8))
    def test_repeated_fig1_runs(self, trial):
        prog, phases = fig1_workload(phases=30, seed=trial)
        serial = SerialExecutor(prog).run(phases)
        par = ParallelEngine(prog, num_threads=4).run(phases)
        assert_serializable(serial, par)

    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 6, 8])
    def test_thread_count_sweep(self, threads):
        prog, phases = pipeline_workload(depth=6, phases=40, seed=7)
        serial = SerialExecutor(prog).run(phases)
        par = ParallelEngine(prog, num_threads=threads).run(phases)
        assert_serializable(serial, par)

    def test_more_threads_than_work(self):
        prog, phases = fanin_workload(fan=2, phases=10, seed=0)
        serial = SerialExecutor(prog).run(phases)
        par = ParallelEngine(prog, num_threads=16).run(phases)
        assert_serializable(serial, par)

    def test_engine_reuse_across_many_runs(self):
        prog, phases = fig1_workload(phases=15, seed=0)
        engine = ParallelEngine(prog, num_threads=3)
        reference = engine.run(phases)
        for _ in range(5):
            again = engine.run(phases)
            assert again.records == reference.records
            assert again.executions_as_set() == reference.executions_as_set()

    def test_checker_under_contention(self):
        """The invariant checker makes the critical section long, widening
        race windows; everything must still hold."""
        prog, phases = build_crisis_workload(phases=60, regions=2)
        serial = SerialExecutor(prog).run(phases)
        checker = InvariantChecker()
        par = ParallelEngine(prog, num_threads=4, checker=checker).run(phases)
        assert_serializable(serial, par)
        # One check per phase-start burst and per committed run, so the
        # count tracks runs, not executions.
        assert checker.checks_run > 20
        assert checker.violations == []

    def test_tight_flow_control_under_threads(self):
        prog, phases = pipeline_workload(depth=8, phases=60, seed=2)
        serial = SerialExecutor(prog).run(phases)
        par = ParallelEngine(
            prog,
            num_threads=6,
            max_in_flight_phases=2,
        ).run(phases)
        assert_serializable(serial, par)

    @pytest.mark.parametrize("engine", ["threaded", "threaded-pooled"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_both_drain_regimes_under_a_short_switch_interval(
        self, engine, family
    ):
        """The differential cells of the threaded engine — environment
        draining inline, and everything through the pool — on a deeper
        corpus, with the interpreter switching threads 100x as often so
        the environment's lock-free deque pops and the workers' locked
        appends interleave at many more points."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-5)
        try:
            for i in range(12, 42):
                spec = FAMILIES[family](engine, i)
                serial, result = run_cell(engine, spec, i, fuse=bool(i % 2))
                assert result.records == serial.records, (
                    f"{engine} {family} spec {i} [{spec.describe()}]"
                )
                assert result.phases_run == serial.phases_run
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("trial", range(4))
    def test_regime_flapping_under_a_short_switch_interval(self, trial):
        """The mixed regime is where the hand-back protocol works hardest:
        workers append to the environment's deque while it drains, and it
        must lower its flag under the lock before it may stop.  A scripted
        clock flips the regime every few phases; more threads than cores,
        invariants checked at every mutation, an exact oracle."""
        backend = RegimeClockBackend(compute_dear=False)
        prog, phases = fig1_workload(phases=240, seed=trial)
        source = prog.behaviors[prog.graph.sources()[0]]
        walk = source.on_execute

        def flapping(ctx):
            backend.compute_dear = (ctx.phase // (3 + trial)) % 2 == 1
            return walk(ctx)

        source.on_execute = flapping
        serial = SerialExecutor(prog).run(phases)
        checker = InvariantChecker()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-5)
        try:
            par = ParallelEngine(
                prog, num_threads=4, checker=checker, backend=backend
            ).run(phases)
        finally:
            sys.setswitchinterval(interval)
        assert_serializable(serial, par)
        assert par.records == serial.records
        assert checker.violations == []
        drain = par.stats["drain"]
        assert drain["inline_runs"] > 0 and drain["pooled_runs"] > 0
        assert (
            drain["inline_runs"] + drain["pooled_runs"]
            == par.stats["coalescing"]["runs_scheduled"]
        )
