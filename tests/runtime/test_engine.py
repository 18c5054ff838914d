"""Tests for the multithreaded parallel engine."""

import gc
import random
import threading
import time
import tracemalloc

import pytest

from repro.analysis.serializability import assert_serializable
from repro.core.invariants import InvariantChecker
from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.state import ADAPTIVE_RUN_CEILING
from repro.core.tracer import (
    ExecutionTracer, max_concurrent_pairs, max_concurrent_phases,
)
from repro.core.vertex import FunctionVertex, PassthroughSource
from repro.errors import EngineError, SchedulerError, VertexExecutionError
from repro.events import PhaseInput
from repro.graph.generators import chain_graph, fig1_graph, layered_graph
from repro.graph.model import ComputationGraph
from repro.runtime.core import DEAR_RUNS
from repro.runtime.engine import ParallelEngine
from repro.runtime.feed import PhaseFeed
from repro.runtime.mp import ProcessEngine
from repro.streams.workloads import (
    LatchedSum,
    SpinningSum,
    cpu_heavy_workload,
    fig1_workload,
    grid_workload,
    pipeline_workload,
)
from repro.testing.monitor import RaceMonitor

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
        # One claim per run, and the backlog coalesces: fewer runs claimed
        # than pairs executed, each run executed here or away once.
        runs = res.stats["coalescing"]["runs_scheduled"]
        assert 0 < runs < res.execution_count
        drain = res.stats["drain"]
        assert drain["inline_runs"] + drain["pooled_runs"] == runs
        assert res.stats["moved"] == []  # cheap vertices stay here
        assert sum(res.stats["per_worker_executions"].values()) == res.execution_count

    def test_tracer_concurrency_stats(self):
        prog, phases = fig1_workload(phases=20)
        tracer = ExecutionTracer()
        res = ParallelEngine(prog, num_threads=4, tracer=tracer).run(phases)
        intervals = tracer.intervals()
        assert max_concurrent_pairs(intervals) >= 1
        assert max_concurrent_phases(intervals) >= 1
        assert sorted(pair for _, _, pair in intervals) == sorted(res.executions)
        assert len(res.executions) == res.execution_count


class TestBatchMemory:
    def test_a_batch_run_holds_a_few_bytes_per_executed_pair(self):
        # The bench grid: 4x4 fully connected LatchedSum layers behind
        # four sources that change every phase, 2,000 phases.  What the
        # execution log alone keeps alive is what dropping it frees.
        graph = layered_graph([4, 4, 4, 4], density=1.0, seed=0)
        behaviors = {}
        for v in graph.vertices():
            preds = tuple(graph.predecessors(v))
            behaviors[v] = LatchedSum(preds) if preds else PassthroughSource()
        rng = random.Random(7)
        phases = [
            PhaseInput(p, float(p), {
                f"L0_{j}": round(rng.uniform(-9, 9), 3) for j in range(4)
            })
            for p in range(1, 2001)
        ]
        tracemalloc.start()
        try:
            result = ParallelEngine(Program(graph, behaviors), 2).run(phases)
            executions, result.executions = result.executions, None
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            pairs = len(executions)
            del executions
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pairs > 4 * len(phases)
        assert freed <= 8 * pairs, f"{freed / pairs:.1f} bytes per pair"


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
        ParallelEngine(prog, num_threads=4, tracer=tracer).run(phases)
        assert max_concurrent_pairs(tracer.intervals()) >= 2


class TestShutdownErrorPropagation:
    """A failed run surfaces its root cause and leaks no executor.

    Regressions covered: ``run`` used to raise a generic "environment
    thread failed to terminate" EngineError *without* joining the pool —
    leaking live computation threads and masking the vertex exception
    behind the wedge.
    """

    def test_worker_error_beats_a_flow_control_wedge(self):
        # Each phase fans out to two vertices that, once moved away (the
        # scripted clock moves them after DEAR_RUNS swept phases), sit on
        # different executors: "stall" wedges one, "boom" fails on the
        # other once "stall" has started, with the environment's one
        # flow-control credit behind them.  The caller must see the
        # VertexExecutionError, not a wedge report.
        started, release = threading.Event(), threading.Event()

        def away():
            return threading.current_thread().name.startswith("compute-")

        def stall(ctx):
            if away():
                started.set()
                release.wait(timeout=30)

        def boom(ctx):
            if away():
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
        phases = [PhaseInput(k, float(k), {"src": k}) for k in range(1, 9)]
        assert engine.num_threads == 2 and {
            (prog.numbering.index_of[v] - 1) % 2 for v in ("stall", "boom")
        } == {0, 1}
        try:
            with pytest.raises(VertexExecutionError, match="root cause"):
                engine.run(phases)
        finally:
            release.set()

    def test_wedged_environment_does_not_leak_workers(self, strand):
        # Phase 1's last completion is lost, so the started phases can
        # never complete while the executors idle: the run fails with the
        # stall report, but only after waking and joining every
        # computation thread.
        prog = make_chain_program(2, {1: "x", 2: "y"})
        strand(prog.numbering.index_of["n1"], 1)
        engine = ParallelEngine(prog, num_threads=2, join_timeout=0.3)
        with pytest.raises(EngineError, match="stalled before quiescence"):
            engine.run(signals(2))
        assert not [
            t for t in threading.enumerate() if t.name.startswith("compute-")
        ]


class TestFlowControlAbort:
    """Flow control never waits on a timer, and a failure ends the run.

    Regression (of the peer-worker engine): its environment polled a
    flow-control semaphore with a timeout — burning CPU on real threads
    and advancing the virtual clock through timeout deadlines, so
    deterministic runs became timing-dependent.  The coordinator admits a
    phase only when the window has room and waits on nothing for it.
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
        # the sink, finds it dear and hands the rest of that run over —
        # DEAR_RUNS times in a row, the placement rule's streak — and
        # from then on the sink, and nothing else, runs in the pool.
        backend = RegimeClockBackend(compute_dear=False)
        prog, phases, sink = self._dear_sink(backend)
        serial = SerialExecutor(prog).run(phases)
        tracer = ExecutionTracer()
        res = ParallelEngine(
            prog, num_threads=2, tracer=tracer, backend=backend
        ).run(phases)
        assert_serializable(serial, res)
        drain, _ = self._drained(res, 2)
        assert drain["handovers"] == DEAR_RUNS
        sink_index = prog.numbering.index_of[sink]
        ended = [ev for ev in tracer.events if ev.kind == "execute_end"]
        on_env = [ev.pair for ev in ended if ev.worker == 2]
        in_pool = [ev.pair for ev in ended if ev.worker != 2]
        assert {v for v, _ in in_pool} == {sink_index}
        staked = [q for v, q in on_env if v == sink_index]
        assert len(staked) == DEAR_RUNS and staked[0] == 1, staked

    def test_a_handover_reads_clean_to_the_race_monitor(self):
        # The same stakes, watched: each cut run's claimed tail begins
        # again in the pool, which the monitor accepts as a handover.
        backend = RegimeClockBackend(compute_dear=False)
        prog, phases, _ = self._dear_sink(backend)
        monitor = RaceMonitor()
        res = ParallelEngine(
            prog, num_threads=2, checker=monitor, tracer=monitor,
            backend=backend,
        ).run(phases)
        assert res.stats["drain"]["handovers"] == DEAR_RUNS
        assert monitor.violations == [], monitor.report()

    @staticmethod
    def _dear_sink(backend):
        # A pipeline of cheap vertices whose sink spends 1000 s a pair on
        # *backend*'s clock.
        class DearSum(SpinningSum):
            def on_execute(self, ctx):
                backend.spend(1000.0)
                return super().on_execute(ctx)

        cheap, phases = pipeline_workload(depth=5, phases=150, seed=3)
        sink = cheap.graph.vertices()[-1]
        dear = DearSum(tuple(cheap.graph.predecessors(sink)), grain=10)
        return Program(cheap.graph, {**cheap.behaviors, sink: dear}), phases, sink

    @staticmethod
    def _chain(v2, n):
        # v1 -> v2 -> v3 over n phases; v2 computes *v2*.
        prog = Program(chain_graph(3), {
            "v1": PassthroughSource(),
            "v2": FunctionVertex(v2),
            "v3": FunctionVertex(lambda ctx: ctx.input("v2")),
        })
        return prog, [PhaseInput(k, float(k), {"v1": k}) for k in range(1, n + 1)]

    def _placed_here(self, dear_phases, n=16):
        # One phase in flight (runs of one), on a clock on which v2's
        # compute reads dear exactly in *dear_phases*: the phases of v2
        # the environment executed.
        backend = RegimeClockBackend(compute_dear=False)
        here = []

        def detect(ctx):
            if ctx.phase in dear_phases:
                backend.spend(1000.0)
            if threading.current_thread().name == "environment":
                here.append(ctx.phase)
            return ctx.input("v1")

        prog, phases = self._chain(detect, n)
        serial = SerialExecutor(prog).run(phases)
        res = ParallelEngine(
            prog, num_threads=2, max_in_flight_phases=1, backend=backend
        ).run(phases)
        assert_serializable(serial, res)
        return here

    # The process engine's placement tests, on this driver: one rule
    # (repro.runtime.core.Placement) moves v2 at the same run on both.

    def test_one_slow_sample_moves_nothing(self):
        stalls = (4, *range(8, 8 + DEAR_RUNS - 1))
        assert self._placed_here(stalls) == list(range(1, 17))

    def test_a_vertex_that_turns_dear_moves_within_the_streak(self):
        k = 5
        assert self._placed_here(range(k, 100)) == list(range(1, k + DEAR_RUNS))

    def test_a_pool_commit_between_bursts_places_cheap_pairs_here(self):
        # Regression (of the peer-worker engine, kept as a property of the
        # coordinator): a commit of the dear v2's away run, made between
        # two bursts of a batch, readies pairs of the cheap sink v3; they
        # are placed here, as every pair of a resident vertex is, so the
        # pool computes v2 and nothing else.
        backend = RegimeClockBackend(compute_dear=False)

        def dear(ctx):
            backend.spend(1000.0)
            return ctx.input("v1")

        prog, phases = self._chain(dear, 150)
        assert len(phases) > 2 * ADAPTIVE_RUN_CEILING  # three bursts
        serial = SerialExecutor(prog).run(phases)
        tracer = ExecutionTracer()
        res = ParallelEngine(
            prog, num_threads=2, tracer=tracer, backend=backend,
            join_timeout=20.0,
        ).run(phases)
        assert_serializable(serial, res)
        ended = [ev for ev in tracer.events if ev.kind == "execute_end"]
        pooled = {ev.pair[0] for ev in ended if ev.worker != 2}
        assert pooled == {prog.numbering.index_of["v2"]}
        sink = prog.numbering.index_of["v3"]
        assert sum(ev.pair[0] == sink for ev in ended if ev.worker == 2) == 150

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
        # Short runs, so that each vertex runs DEAR_RUNS times in a row
        # within one dear stretch.
        res = ParallelEngine(
            prog, num_threads=2, max_in_flight_phases=4, backend=backend
        ).run(phases)
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

    def test_a_live_feed_is_drained_inline_like_a_batch(self):
        # Compute reads free, so every vertex stays here: a feed closed
        # before the run began (a batch) and one still open (a live
        # stream) are both executed by the environment itself.
        prog = make_chain_program(3, {1: 1, 2: 2, 3: 3})
        engine = ParallelEngine(
            prog, num_threads=1, backend=RegimeClockBackend(compute_dear=False)
        )
        closed = engine.run_feed(PhaseFeed.of(signals(3)))
        assert closed.stats["drain"]["pooled_runs"] == 0
        assert closed.stats["per_worker_executions"][1] == closed.execution_count

        live = PhaseFeed(capacity=3)
        live.put(signals(3))
        closer = threading.Timer(0.1, live.close)
        closer.start()
        opened = engine.run_feed(live)
        closer.join()
        assert opened.stats["drain"]["pooled_runs"] == 0
        assert opened.stats["per_worker_executions"][1] == opened.execution_count
        assert opened.records == closed.records

    def test_virtual_backend_moves_every_vertex_away(self):
        # Load-bearing: the deterministic scheduler explores the
        # coordinator's hand-offs to its executors, and `repro fuzz`
        # output is pinned byte-for-byte across PRs.  Both hold only
        # because nothing is *strictly* cheaper than anything on a clock
        # that does not advance (0 < 0 is false): under VirtualBackend
        # each vertex is staked DEAR_RUNS times and then moves away.
        # Relax the comparison to <= and every explored schedule silently
        # becomes the single-threaded one.
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
        assert sorted(res.stats["moved"]) == sorted(prog.graph.vertices())
        assert drain["pooled_runs"] > 0 and drain["handovers"] > 0
        assert per_worker[0] + per_worker[1] > 0
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
        # All 40 phases are admitted in one burst and the source's run
        # takes them all; the slow vertex reads dear, so each of its
        # DEAR_RUNS stakes is cut after one member, and the rest of its
        # backlog is claimed as one away run of 37 members.
        backend = RegimeClockBackend(compute_dear=False)
        slow = self._slow_chain(0.02)
        v2 = slow.behaviors["v2"].on_execute

        def dear(ctx):
            backend.spend(1000.0)
            return v2(ctx)

        slow.behaviors["v2"].on_execute = dear
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 41)]
        began = time.monotonic()
        res = ParallelEngine(
            slow, num_threads=2, backend=backend, join_timeout=0.3,
        ).run(phases)
        assert time.monotonic() - began > 2 * 0.3
        assert res.stats["coalescing"]["runs_scheduled"] == 1 + DEAR_RUNS + 1
        assert res.stats["drain"]["pooled_runs"] == 1
        assert res.records == SerialExecutor(self._slow_chain(0.0)).run(phases).records

    def test_stalled_worker_is_detected_within_twice_the_timeout(self):
        release = threading.Event()

        def stall(ctx):
            if threading.current_thread().name.startswith("compute-"):
                release.wait(timeout=30)
            return ctx.input("v1")

        prog = Program(
            chain_graph(2),
            {"v1": PassthroughSource(), "v2": FunctionVertex(stall)},
        )
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 7)]
        engine = ParallelEngine(
            prog,
            num_threads=2,
            # One phase at a time, swept until DEAR_RUNS dear sweeps have
            # moved both vertices away: the stall is an executor's.
            max_in_flight_phases=1,
            backend=RegimeClockBackend(compute_dear=True),
            join_timeout=0.4,
        )
        began = time.monotonic()
        try:
            with pytest.raises(EngineError, match="run wedged"):
                engine.run(phases)
            took = time.monotonic() - began
            assert 0.4 <= took < 2 * 0.4 + 0.5
        finally:
            release.set()
