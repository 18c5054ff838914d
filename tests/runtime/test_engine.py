"""Tests for the multithreaded parallel engine."""

import threading
import time

import pytest

from repro.analysis.serializability import assert_serializable
from repro.core.invariants import InvariantChecker
from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.tracer import ExecutionTracer
from repro.core.vertex import FunctionVertex, PassthroughSource
from repro.errors import EngineError, SchedulerError, VertexExecutionError
from repro.events import PhaseInput
from repro.graph.generators import chain_graph, fig1_graph
from repro.graph.model import ComputationGraph
from repro.runtime.engine import ParallelEngine
from repro.runtime.feed import PhaseFeed
from repro.runtime.mp import ProcessEngine
from repro.streams.workloads import (
    SpinningSum,
    cpu_heavy_workload,
    fig1_workload,
    grid_workload,
    pipeline_workload,
)

from tests.conftest import make_chain_program, signals
from tests.runtime.regime_clock import RegimeClockBackend


class TestBasicExecution:
    def test_single_phase_single_thread(self):
        prog = make_chain_program(3, {1: "x"})
        res = ParallelEngine(prog, num_threads=1).run(signals(1))
        assert res.records["n2"] == [(1, "x")]
        assert res.engine == "parallel[k=1]"

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_matches_serial_oracle(self, threads):
        prog, phases = grid_workload(3, 3, phases=25, seed=2)
        serial = SerialExecutor(prog).run(phases)
        par = ParallelEngine(prog, num_threads=threads).run(phases)
        assert_serializable(serial, par)

    def test_invariant_checker_clean(self):
        prog, phases = fig1_workload(phases=15)
        checker = InvariantChecker()
        ParallelEngine(prog, num_threads=3, checker=checker).run(phases)
        assert checker.checks_run > 0
        assert checker.violations == []

    def test_zero_phases(self):
        prog = make_chain_program(2, {})
        res = ParallelEngine(prog, num_threads=2).run([])
        assert res.execution_count == 0
        assert res.phases_run == 0

    def test_invalid_thread_count(self):
        prog = make_chain_program(2, {})
        with pytest.raises(EngineError):
            ParallelEngine(prog, num_threads=0)

    def test_rerun_same_engine_object(self):
        prog = make_chain_program(3, {1: 1, 2: 2})
        engine = ParallelEngine(prog, num_threads=2)
        r1 = engine.run(signals(2))
        r2 = engine.run(signals(2))
        assert r1.records == r2.records


class TestStats:
    def test_stats_populated(self):
        prog, phases = grid_workload(3, 3, phases=20)
        res = ParallelEngine(prog, num_threads=2).run(phases)
        assert res.stats["num_threads"] == 2
        assert res.stats["lock"]["acquisitions"] > 0
        assert res.stats["queue"]["total_enqueued"] == res.stats["queue"][
            "total_dequeued"
        ]
        assert sum(res.stats["per_worker_executions"].values()) == res.execution_count

    def test_tracer_concurrency_stats(self):
        prog, phases = fig1_workload(phases=20)
        tracer = ExecutionTracer()
        res = ParallelEngine(prog, num_threads=4, tracer=tracer).run(phases)
        assert res.stats["max_concurrent_pairs"] >= 1
        assert res.stats["max_concurrent_phases"] >= 1
        assert len(tracer.executed_pairs()) == res.execution_count


class TestFailureHandling:
    def test_vertex_exception_propagates(self):
        g = chain_graph(2)

        def boom(ctx):
            if ctx.phase == 2:
                raise RuntimeError("deliberate")
            return ctx.input("v1")

        prog = Program(g, {"v1": PassthroughSource(), "v2": FunctionVertex(boom)})
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in (1, 2, 3)]
        with pytest.raises(VertexExecutionError, match="deliberate"):
            ParallelEngine(prog, num_threads=2).run(phases)

    def test_failure_mentions_vertex_and_phase(self):
        g = chain_graph(1)

        def boom(ctx):
            raise ValueError("nope")

        class BoomSource(PassthroughSource):
            def on_execute(self, ctx):
                raise ValueError("nope")

        prog = Program(g, {"v1": BoomSource()})
        with pytest.raises(VertexExecutionError) as ei:
            ParallelEngine(prog, num_threads=1).run(signals(1))
        assert ei.value.vertex == "v1"
        assert ei.value.phase == 1

    @pytest.mark.parametrize("engine", [ParallelEngine, ProcessEngine])
    def test_misnumbered_phases_are_rejected(self, engine):
        # A batch feed is filled without a producer's numbering check;
        # admission makes it.
        prog = make_chain_program(2, {1: "x"})
        phases = [PhaseInput(1, 1.0), PhaseInput(3, 3.0)]
        with pytest.raises(SchedulerError, match="numbered sequentially"):
            engine(prog, 2).run(phases)

    def test_engine_usable_after_failure(self):
        g = chain_graph(1)
        state = {"fail": True}

        class FlakySource(PassthroughSource):
            def on_execute(self, ctx):
                if state["fail"]:
                    raise RuntimeError("first run fails")
                return 1

        prog = Program(g, {"v1": FlakySource()})
        engine = ParallelEngine(prog, num_threads=2)
        with pytest.raises(VertexExecutionError):
            engine.run(signals(2))
        state["fail"] = False
        res = engine.run(signals(2))
        assert res.execution_count == 2


class TestFlowControl:
    def test_bounded_in_flight_matches_serial(self):
        prog, phases = grid_workload(2, 4, phases=20, seed=3)
        serial = SerialExecutor(prog).run(phases)
        res = ParallelEngine(
            prog,
            num_threads=3,
            max_in_flight_phases=2,
        ).run(phases)
        assert_serializable(serial, res)

    def test_barrier_config_matches_serial(self):
        prog, phases = grid_workload(2, 3, phases=15, seed=4)
        serial = SerialExecutor(prog).run(phases)
        res = ParallelEngine(
            prog,
            num_threads=2,
            max_in_flight_phases=1,
        ).run(phases)
        assert_serializable(serial, res)

    def test_invalid_env_config(self):
        prog = make_chain_program(2, {})
        for engine in (ParallelEngine, ProcessEngine):
            with pytest.raises(EngineError, match="max_in_flight_phases"):
                engine(prog, 2, max_in_flight_phases=0)


class TestPipelining:
    def test_multiple_phases_in_flight(self):
        """With many workers and no flow control, distinct phases execute
        concurrently (the Figure 1 behaviour) — detectable even under the
        GIL because execute intervals interleave."""
        prog, phases = fig1_workload(phases=30)
        tracer = ExecutionTracer()
        import time as _time

        # give vertices measurable duration via a sleeping wrapper
        for name, beh in prog.behaviors.items():
            orig = beh.on_execute

            def slow(ctx, orig=orig):
                _time.sleep(0.0005)
                return orig(ctx)

            beh.on_execute = slow  # type: ignore[method-assign]
        res = ParallelEngine(prog, num_threads=4, tracer=tracer).run(phases)
        assert res.stats["max_concurrent_pairs"] >= 2


class TestShutdownErrorPropagation:
    """The watchdog must surface root causes, not bury them.

    Regressions covered: ``run`` used to raise a generic "environment
    thread failed to terminate" EngineError *without* joining the pool or
    calling ``reraise()`` — leaking live computation threads and masking
    the vertex exception behind the wedge.  Both wedges here are
    flow-control wedges: the environment waits for a phase credit that
    never comes.
    """

    def test_worker_error_beats_a_flow_control_wedge(self):
        # Phase 1 fans out to two pooled vertices: "stall" wedges one
        # worker, "boom" fails on the other once "stall" has started, and
        # the environment waits on flow control behind them.  The pool's
        # watchdog then gives up on the stalled worker: the caller must
        # see the VertexExecutionError, not the watchdog's generic report.
        started, release = threading.Event(), threading.Event()

        def stall(ctx):
            started.set()
            release.wait(timeout=30)

        def boom(ctx):
            started.wait(timeout=30)
            raise RuntimeError("root cause")

        g = ComputationGraph.from_edges([("src", "stall"), ("src", "boom")])
        prog = Program(g, {
            "src": PassthroughSource(),
            "stall": FunctionVertex(stall),
            "boom": FunctionVertex(boom),
        })
        engine = ParallelEngine(
            prog,
            num_threads=2,
            max_in_flight_phases=1,
            backend=RegimeClockBackend(compute_dear=True),
            join_timeout=0.3,
        )
        phases = [PhaseInput(k, float(k), {"src": k}) for k in (1, 2)]
        try:
            with pytest.raises(VertexExecutionError, match="root cause"):
                engine.run(phases)
        finally:
            release.set()

    def test_wedged_environment_does_not_leak_workers(self, strand):
        # Phase 1's last completion is lost, so with one phase in flight
        # the environment waits on flow control for good while the
        # workers idle: the run still fails with the wedge report, but
        # only after waking and joining every computation thread.
        prog = make_chain_program(2, {1: "x", 2: "y"})
        strand(prog.numbering.index_of["n1"], 1)
        engine = ParallelEngine(
            prog,
            num_threads=2,
            max_in_flight_phases=1,
            join_timeout=0.3,
        )
        with pytest.raises(EngineError, match="environment thread failed"):
            engine.run(signals(2))
        assert not [
            t for t in threading.enumerate() if t.name.startswith("compute-")
        ]


class TestFlowControlAbort:
    """The environment's flow-control wait is abort-aware and blocking.

    Regression: it used to poll ``flow_sem.acquire(timeout=0.05)`` in a
    loop — burning CPU on real threads and, worse, advancing the virtual
    clock through timeout deadlines so deterministic runs became
    timing-dependent.
    """

    def _crashing_chain(self):
        g = chain_graph(2)

        def boom(ctx):
            raise RuntimeError("crash under flow control")

        return Program(
            g, {"v1": PassthroughSource(), "v2": FunctionVertex(boom)}
        )

    def test_worker_crash_releases_parked_environment_os_backend(self):
        prog = self._crashing_chain()
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in (1, 2, 3)]
        engine = ParallelEngine(
            prog,
            num_threads=2,
            max_in_flight_phases=1,
            join_timeout=5.0,
        )
        with pytest.raises(VertexExecutionError, match="crash under flow"):
            engine.run(phases)

    def test_flow_control_never_advances_virtual_clock(self):
        # A healthy flow-controlled run under the deterministic scheduler:
        # with a blocking (not polling) wait, no timed wait ever fires, so
        # the virtual clock stays at zero.
        from repro.testing.schedule import (
            RoundRobinPolicy,
            VirtualBackend,
            VirtualScheduler,
        )

        prog, phases = grid_workload(2, 2, phases=6, seed=9)
        serial = SerialExecutor(prog).run(phases)
        sched = VirtualScheduler(policy=RoundRobinPolicy())
        res = ParallelEngine(
            prog,
            num_threads=2,
            max_in_flight_phases=1,
            backend=VirtualBackend(sched),
        ).run(phases)
        sched.shutdown()
        assert_serializable(serial, res)
        assert sched.now() == 0.0

    def test_abort_wakes_parked_environment_virtual_backend(self):
        # Crash while the environment is parked on the semaphore, under
        # the deterministic scheduler: the run must terminate through the
        # abort protocol alone (no timeouts => clock still zero).
        from repro.testing.schedule import (
            RoundRobinPolicy,
            VirtualBackend,
            VirtualScheduler,
        )

        prog = self._crashing_chain()
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in (1, 2, 3)]
        sched = VirtualScheduler(policy=RoundRobinPolicy())
        engine = ParallelEngine(
            prog,
            num_threads=2,
            max_in_flight_phases=1,
            backend=VirtualBackend(sched),
        )
        with pytest.raises(VertexExecutionError, match="crash under flow"):
            engine.run(phases)
        sched.shutdown()
        assert sched.now() == 0.0


def _engine_threads():
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith(("compute-", "environment"))
    ]


class TestEnvironmentPeer:
    """The environment thread executes runs itself while that is cheaper
    than handing them over (docs/ARCHITECTURE.md §5.8).  Where a test needs a
    particular regime it scripts the clock (``RegimeClockBackend``)
    instead of trusting the host's timings."""

    def _drained(self, result, threads):
        drain = result.stats["drain"]
        assert (
            drain["inline_runs"] + drain["pooled_runs"]
            == result.stats["coalescing"]["runs_scheduled"]
        )
        per_worker = result.stats["per_worker_executions"]
        assert sorted(per_worker) == list(range(threads + 1))
        assert sum(per_worker.values()) == result.execution_count
        return drain, per_worker

    def test_real_clock_drains_cheap_vertices_inline(self):
        prog, phases = grid_workload(3, 3, phases=600, seed=1)
        serial = SerialExecutor(prog).run(phases)
        res = ParallelEngine(prog, num_threads=2).run(phases)
        assert_serializable(serial, res)
        drain, per_worker = self._drained(res, 2)
        assert drain["inline_runs"] > drain["pooled_runs"]
        assert per_worker[2] > per_worker[0] + per_worker[1]

    def test_real_clock_sends_expensive_vertices_to_the_pool(self):
        prog, phases = cpu_heavy_workload(3, 3, phases=40, grain=3000, seed=1)
        serial = SerialExecutor(prog).run(phases)
        res = ParallelEngine(prog, num_threads=2).run(phases)
        assert_serializable(serial, res)
        drain, _ = self._drained(res, 2)
        assert drain["pooled_runs"] > 0

    def test_only_the_expensive_vertex_goes_to_the_pool(self):
        # A pipeline of cheap vertices whose sink is expensive.  On the
        # scripted clock compute reads 0 unless a vertex spends time, so
        # the outcome is exact: the environment stakes one execution on
        # the sink, finds it dear, hands the rest of that run over, and
        # from then on the sink — and nothing else — runs in the pool.
        backend = RegimeClockBackend(compute_dear=False)

        class DearSum(SpinningSum):
            def on_execute(self, ctx):
                backend.spend(1000.0)
                return super().on_execute(ctx)

        cheap, phases = pipeline_workload(depth=5, phases=150, seed=3)
        sink = cheap.graph.vertices()[-1]
        dear = DearSum(tuple(cheap.graph.predecessors(sink)), grain=10)
        prog = Program(cheap.graph, {**cheap.behaviors, sink: dear})
        serial = SerialExecutor(prog).run(phases)
        tracer = ExecutionTracer()
        res = ParallelEngine(
            prog, num_threads=2, tracer=tracer, backend=backend
        ).run(phases)
        assert_serializable(serial, res)
        drain, _ = self._drained(res, 2)
        assert drain["handovers"] == 1
        sink_index = prog.numbering.index_of[sink]
        ended = [ev for ev in tracer.events if ev.kind == "execute_end"]
        on_env = [ev.pair for ev in ended if ev.worker == 2]
        in_pool = [ev.pair for ev in ended if ev.worker != 2]
        assert {v for v, _ in in_pool} == {sink_index}
        assert [pair for pair in on_env if pair[0] == sink_index] == [
            (sink_index, 1)
        ]

    def test_regime_flips_mid_run_without_losing_or_duplicating_a_pair(self):
        backend = RegimeClockBackend(compute_dear=False)
        prog, phases = grid_workload(3, 3, phases=400, seed=5)
        source = prog.graph.vertices()[0]
        walk = prog.behaviors[source].on_execute

        def flipping(ctx):
            # Cheap for 100 phases, dear for 100, and again.
            backend.compute_dear = (ctx.phase // 100) % 2 == 1
            return walk(ctx)

        prog.behaviors[source].on_execute = flipping
        serial = SerialExecutor(prog).run(phases)
        res = ParallelEngine(prog, num_threads=2, backend=backend).run(phases)
        assert_serializable(serial, res)
        assert res.records == serial.records
        assert len(set(res.executions)) == len(res.executions)
        drain, per_worker = self._drained(res, 2)
        assert drain["inline_runs"] > 0 and drain["pooled_runs"] > 0
        assert per_worker[2] > 0 and per_worker[0] + per_worker[1] > 0

    @pytest.mark.parametrize("in_flight", [1, 2])
    def test_inline_drain_under_flow_control_terminates(self, in_flight):
        # The environment releases the credits of the phases it completes
        # itself, so it can never wait on a permit only it could free.
        prog, phases = grid_workload(2, 3, phases=60, seed=2)
        serial = SerialExecutor(prog).run(phases)
        res = ParallelEngine(
            prog,
            num_threads=2,
            max_in_flight_phases=in_flight,
            backend=RegimeClockBackend(compute_dear=False),
            join_timeout=20.0,
        ).run(phases)
        assert_serializable(serial, res)
        drain, per_worker = self._drained(res, 2)
        assert drain["pooled_runs"] == 0
        assert per_worker[2] == res.execution_count

    def test_vertex_failure_on_the_environment_thread(self):
        g = chain_graph(2)
        ran_on = []

        def boom(ctx):
            if ctx.phase == 3:
                ran_on.append(threading.current_thread().name)
                raise RuntimeError("raised on the environment")
            return ctx.input("v1")

        prog = Program(g, {"v1": PassthroughSource(), "v2": FunctionVertex(boom)})
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 6)]
        engine = ParallelEngine(
            prog,
            num_threads=2,
            backend=RegimeClockBackend(compute_dear=False),
            join_timeout=20.0,
        )
        before = _engine_threads()  # earlier wedge tests park a few
        with pytest.raises(VertexExecutionError, match="on the environment") as ei:
            engine.run(phases)
        assert (ei.value.vertex, ei.value.phase) == ("v2", 3)
        assert ran_on == ["environment"]
        assert _engine_threads() == before

    def test_pool_failure_wakes_the_parked_environment(self):
        # The sink is dear, so it runs in the pool; its last phase fails
        # only after every cheap pair is done, i.e. while the environment
        # has started its last burst, drained it and parked.  The abort
        # must end that wait itself, not the join_timeout watchdog.
        backend = RegimeClockBackend(compute_dear=False)
        prog, phases = pipeline_workload(depth=5, phases=150, seed=3)
        sink = prog.graph.vertices()[-1]
        orig = prog.behaviors[sink].on_execute
        ran_on = []

        def dear_then_boom(ctx):
            backend.spend(1000.0)
            if ctx.phase == 150:
                ran_on.append(threading.current_thread().name)
                time.sleep(0.05)
                raise RuntimeError("raised in the pool")
            return orig(ctx)

        prog.behaviors[sink].on_execute = dear_then_boom
        engine = ParallelEngine(
            prog, num_threads=2, backend=backend, join_timeout=20.0
        )
        before = _engine_threads()
        began = time.monotonic()
        with pytest.raises(VertexExecutionError, match="in the pool") as ei:
            engine.run(phases)
        assert time.monotonic() - began < 5.0
        assert (ei.value.vertex, ei.value.phase) == (sink, 150)
        assert len(ran_on) == 1 and ran_on[0].startswith("compute-")
        assert _engine_threads() == before

    def test_only_a_feed_closed_at_start_drains_inline(self):
        # Compute reads free, so only the selection rule decides: a feed
        # still open when the run begins (a live stream) keeps the
        # environment on it, never executing; a closed one (a batch) is
        # drained by the environment itself.
        prog = make_chain_program(3, {1: 1, 2: 2, 3: 3})
        engine = ParallelEngine(
            prog, num_threads=1, backend=RegimeClockBackend(compute_dear=False)
        )
        closed = engine.run_feed(PhaseFeed.of(signals(3)))
        assert closed.stats["drain"]["pooled_runs"] == 0
        assert closed.stats["per_worker_executions"][1] == closed.execution_count

        live = PhaseFeed(capacity=3)
        for pi in signals(3):
            live.put(pi)
        closer = threading.Timer(0.1, live.close)
        closer.start()
        opened = engine.run_feed(live)
        closer.join()
        assert opened.stats["drain"]["inline_runs"] == 0
        assert opened.stats["per_worker_executions"][1] == 0
        assert opened.records == closed.records

    def test_virtual_backend_never_drains_inline(self):
        # Load-bearing: the deterministic scheduler explores interleavings
        # of the paper's peer-worker algorithm, and `repro fuzz` output is
        # pinned byte-for-byte across PRs.  Both hold only because nothing
        # is *strictly* cheaper than anything on a clock that does not
        # advance (0 < 0 is false): under VirtualBackend every pair goes
        # through the run queue.  Relax the comparison to <= and every
        # explored schedule silently becomes the single-threaded one.
        from repro.testing.schedule import (
            RandomPolicy,
            VirtualBackend,
            VirtualScheduler,
        )

        prog, phases = grid_workload(2, 3, phases=12, seed=4)
        serial = SerialExecutor(prog).run(phases)
        sched = VirtualScheduler(policy=RandomPolicy(7))
        res = ParallelEngine(
            prog, num_threads=2, backend=VirtualBackend(sched)
        ).run(phases)
        sched.shutdown()
        assert_serializable(serial, res)
        drain, per_worker = self._drained(res, 2)
        assert drain["inline_runs"] == 0 and drain["handovers"] == 0
        assert drain["pooled_runs"] > 0
        assert per_worker[2] == 0
        assert sched.now() == 0.0


class TestProgressWatchdog:
    """``join_timeout`` bounds how long the run may go without committing
    a run, not how long it may last.

    Regression: a healthy batch run that simply outlasted the timeout was
    reported as "threads failed to terminate".
    """

    def _slow_chain(self, seconds):
        def slow(ctx):
            time.sleep(seconds)
            return ctx.input("v1")

        return Program(
            chain_graph(2),
            {"v1": PassthroughSource(), "v2": FunctionVertex(slow)},
        )

    def test_healthy_run_longer_than_the_timeout_completes(self):
        # One phase in flight, so every run is one pair: a commit every
        # few milliseconds for well over the timeout.
        prog = self._slow_chain(0.004)
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 151)]
        res = ParallelEngine(
            prog,
            num_threads=2,
            max_in_flight_phases=1,
            join_timeout=0.25,
        ).run(phases)
        assert res.wall_time > 2 * 0.25
        assert res.phases_run == 150 and res.execution_count == 300

    def test_one_coalesced_run_longer_than_the_timeout_completes(self):
        # Regression: progress was counted at commit only, so one healthy
        # run whose members together outlast the timeout read as a wedge.
        # All 40 phases are admitted in one burst, the source drains, and
        # the slow vertex's backlog is claimed as one pooled run.
        prog = self._slow_chain(0.02)
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 41)]
        res = ParallelEngine(
            prog,
            num_threads=2,
            backend=RegimeClockBackend(compute_dear=True),
            join_timeout=0.3,
        ).run(phases)
        assert res.stats["coalescing"]["runs_scheduled"] == 2
        assert res.wall_time > 2 * 0.3
        assert res.records == SerialExecutor(self._slow_chain(0.0)).run(phases).records

    def test_stalled_worker_is_detected_within_twice_the_timeout(self):
        release = threading.Event()

        def stall(ctx):
            if ctx.phase == 2:
                release.wait(timeout=30)
            return ctx.input("v1")

        prog = Program(
            chain_graph(2),
            {"v1": PassthroughSource(), "v2": FunctionVertex(stall)},
        )
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in (1, 2, 3)]
        engine = ParallelEngine(
            prog,
            num_threads=2,
            # Every run goes through the pool: the stall is a worker's.
            backend=RegimeClockBackend(compute_dear=True),
            join_timeout=0.4,
        )
        began = time.monotonic()
        try:
            with pytest.raises(EngineError, match="threads failed to terminate"):
                engine.run(phases)
            took = time.monotonic() - began
            assert 0.4 <= took < 2 * 0.4 + 0.5
        finally:
            release.set()
