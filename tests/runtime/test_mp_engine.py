"""Tests for the process-parallel backend (:mod:`repro.runtime.mp`)."""

import errno
import itertools
import multiprocessing
from multiprocessing.process import BaseProcess

import pytest

from repro.analysis.serializability import assert_serializable
from repro.analysis.stats import validate_engine_stats
from repro.core.invariants import InvariantChecker
from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.state import CompletionLog
from repro.core.tracer import ExecutionTracer, max_concurrent_phases
from repro.core.vertex import Vertex, VertexContext
from repro.errors import EngineError, VertexExecutionError
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph
from repro.runtime.core import ScheduleCore
from repro.runtime.feed import PhaseFeed
from repro.runtime.mp import ProcessEngine
from repro.runtime.mp.lifecycle import ProcessWorkerPool
from repro.runtime.mp.protocol import (
    ResultMsg,
    WireStats,
    decode,
    encode,
    run_from_contexts,
)
from repro.streams.workloads import (
    cpu_heavy_workload,
    fanin_workload,
    fig1_workload,
    grid_workload,
    pipeline_workload,
)
from repro.testing.monitor import RaceMonitor

from tests.conftest import make_chain_program, signals


class TestProtocol:
    def test_task_frame_round_trip(self):
        ctx = VertexContext(
            name="v3",
            phase=7,
            inputs={"v1": 1.5, "v2": "x"},
            changed={"v1"},
            successors=["v4", "v5"],
            phase_input=("tick", 7),
        )
        # A single pair travels as a run of one: there is no other form.
        run = run_from_contexts(3, [(7, ctx)])
        clone = decode(encode(run))
        assert clone == run
        assert (clone.vertex, clone.name) == (3, "v3")
        assert clone.successors == ("v4", "v5")
        (member,) = clone.members
        assert member.phase == 7
        assert member.inputs == {"v1": 1.5, "v2": "x"}
        assert member.changed == ("v1",)
        assert member.phase_input == ("tick", 7)

    def test_result_frame_round_trip(self):
        res = ResultMsg(
            phase=7, outputs={"v4": 0.25}, records=(("anomaly", 7),),
        )
        assert decode(encode(res)) == res

    def test_wire_stats_accumulates(self):
        ws = WireStats()
        ws.count("runs", b"12345")
        ws.count("runs", b"123")
        ws.count("result_batches", b"12")
        summary = ws.summary()
        assert summary["runs"] == {"messages": 2, "bytes": 8}
        assert summary["result_batches"] == {"messages": 1, "bytes": 2}
        assert summary["total_bytes"] == 10

    def test_wire_stats_rejects_unknown_class(self):
        with pytest.raises(KeyError):
            WireStats().count("bogus", b"x")


class TestBasicExecution:
    def test_single_phase_single_worker(self):
        prog = make_chain_program(3, {1: "x"})
        res = ProcessEngine(prog, num_workers=1).run(signals(1))
        assert res.records["n2"] == [(1, "x")]
        assert res.engine == "process[w=1]"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_serial_oracle(self, workers):
        prog, phases = grid_workload(3, 3, phases=15, seed=2)
        serial = SerialExecutor(prog).run(phases)
        par = ProcessEngine(prog, num_workers=workers).run(phases)
        assert_serializable(serial, par)
        assert par.records == serial.records

    @pytest.mark.parametrize("workload", [
        pipeline_workload, fanin_workload, fig1_workload,
    ])
    def test_oracle_equality_across_workloads(self, workload):
        prog, phases = workload(phases=10)
        serial = SerialExecutor(prog).run(phases)
        par = ProcessEngine(prog, num_workers=2).run(phases)
        assert_serializable(serial, par)
        assert par.records == serial.records

    def test_cpu_heavy_oracle_equality(self):
        prog, phases = cpu_heavy_workload(
            width=3, depth=2, phases=4, grain=100
        )
        serial = SerialExecutor(prog).run(phases)
        par = ProcessEngine(prog, num_workers=2).run(phases)
        assert par.records == serial.records

    def test_zero_phases(self):
        prog = make_chain_program(2, {})
        res = ProcessEngine(prog, num_workers=2).run([])
        assert res.execution_count == 0
        assert res.phases_run == 0

    def test_invalid_worker_count(self):
        prog = make_chain_program(2, {})
        with pytest.raises(EngineError):
            ProcessEngine(prog, num_workers=0)

    def test_rerun_same_engine_object(self):
        prog = make_chain_program(3, {1: 1, 2: 2})
        engine = ProcessEngine(prog, num_workers=2)
        r1 = engine.run(signals(2))
        r2 = engine.run(signals(2))
        assert r1.records == r2.records

    def test_invariant_checker_clean(self):
        prog, phases = fig1_workload(phases=8)
        checker = InvariantChecker()
        ProcessEngine(prog, num_workers=2, checker=checker).run(phases)
        assert checker.checks_run > 0
        assert checker.violations == []

    def test_flow_control_bound_respected(self):
        prog, phases = grid_workload(3, 3, phases=10, seed=1)
        tracer = ExecutionTracer()
        ProcessEngine(
            prog,
            num_workers=2,
            tracer=tracer,
            max_in_flight_phases=2,
        ).run(phases)
        assert max_concurrent_phases(tracer.intervals()) <= 2


class TestCoordinatorLoop:
    def test_the_feed_is_taken_once_per_phase(self, monkeypatch):
        # The coordinator takes a phase from its feed only when the feed
        # holds one: a batch run takes each phase once and never polls.
        calls = []
        get = PhaseFeed.get

        def counted(feed, timeout=None):
            calls.append(timeout)
            return get(feed, timeout)

        monkeypatch.setattr(PhaseFeed, "get", counted)
        prog, phases = grid_workload(3, 3, phases=30, seed=1)
        res = ProcessEngine(prog, 2).run(phases)
        assert res.phases_run == len(phases)
        assert len(calls) == len(phases)


    def test_the_completion_log_is_read_once_per_phase(self, monkeypatch):
        # One phase in flight: every run is a run of one, and most of a
        # phase's commits complete no phase; only those that do read the
        # completion log.
        calls = []
        completed_since = CompletionLog.completed_since

        def counted(log, cursor):
            calls.append(cursor)
            return completed_since(log, cursor)

        monkeypatch.setattr(CompletionLog, "completed_since", counted)
        prog, phases = grid_workload(4, 4, phases=40, seed=1)
        res = ProcessEngine(prog, 2, max_in_flight_phases=1).run(phases)
        coalescing = res.stats["coalescing"]
        assert coalescing["mean_run_length"] == 1.0
        assert coalescing["runs_scheduled"] >= 10 * len(phases)
        assert len(calls) == len(phases)

LONE = {
    "grid": lambda: grid_workload(4, 4, phases=30, seed=2),
    "fig1": lambda: fig1_workload(phases=30),
}


def oracle_by_phase(program, records):
    """Serial *records* as the entries each phase retires with, in the
    order a sweep commits them: vertex index order."""
    out = {}
    for v in range(1, program.n + 1):
        name = program.numbering.name_of(v)
        for p, value in records.get(name, []):
            out.setdefault(p, []).append((name, value))
    return out


class TestLonePhaseSweep:
    """One phase in flight and every vertex resident: the coordinator
    runs the phase as the oracle does, in index order, and commits it to
    the scheduler once."""

    @pytest.mark.parametrize("workload", sorted(LONE))
    def test_a_lockstep_serve_is_the_oracle(self, workload):
        prog, phases = LONE[workload]()
        serial = SerialExecutor(prog).run(phases)
        expected = oracle_by_phase(prog, serial.records)
        sunk = {}
        served = ProcessEngine(
            prog, 2, checker=InvariantChecker(), max_in_flight_phases=1
        ).run_feed(
            PhaseFeed.of(phases), retire=True,
            sink=lambda p, ts, entries: sunk.setdefault(p, entries),
        )
        assert served.stats["drain"]["swept_phases"] == len(phases)
        assert sunk == {p: expected.get(p, []) for p in range(1, len(phases) + 1)}
        monitor = RaceMonitor()
        res = ProcessEngine(
            prog, 2, checker=monitor, tracer=monitor, max_in_flight_phases=1
        ).run(phases)
        assert monitor.violations == [], monitor.report()
        assert res.records == serial.records
        assert sorted(res.executions) == sorted(serial.executions)
        drain = res.stats["drain"]
        assert drain["swept_phases"] == len(phases)
        assert drain["inline_runs"] == res.execution_count
        assert validate_engine_stats(res.engine, res.stats) == []

    def test_a_vertex_poisoned_mid_sweep_names_its_phase(self, monkeypatch):
        prog, phases = grid_workload(4, 4, phases=12, seed=2)
        serial = SerialExecutor(prog).run(phases)
        expected = oracle_by_phase(prog, serial.records)
        sources = prog.numbering.num_sources
        v, q = next((v, p) for v, p in serial.executions if v > sources and p >= 4)
        name = prog.numbering.name_of(v)
        poisoned = prog.behaviors[name]
        healthy = poisoned.on_execute

        def on_execute(ctx):
            if ctx.phase == q:
                raise ValueError("poisoned")
            return healthy(ctx)

        monkeypatch.setattr(poisoned, "on_execute", on_execute)
        sweeps = []
        sweep = ScheduleCore.sweep
        monkeypatch.setattr(
            ScheduleCore, "sweep",
            lambda core, *args: sweeps.append(core.state.pmax) or sweep(core, *args),
        )
        sunk = {}
        with pytest.raises(VertexExecutionError, match="poisoned") as exc_info:
            ProcessEngine(prog, 2, max_in_flight_phases=1).run_feed(
                PhaseFeed.of(phases), retire=True,
                sink=lambda p, ts, entries: sunk.setdefault(p, entries),
            )
        assert (exc_info.value.vertex, exc_info.value.phase) == (name, q)
        assert sweeps == list(range(1, q + 1))
        assert sunk == {p: expected.get(p, []) for p in range(1, q)}


class TestFinalStateRestore:
    def test_post_run_state_matches_serial(self):
        from tests.models.test_pickling import normalized

        prog, phases = fig1_workload(phases=10)
        SerialExecutor(prog).run(phases)
        expected = {
            n: normalized(b.snapshot_state())
            for n, b in prog.behaviors.items()
        }
        ProcessEngine(prog, num_workers=3).run(phases)
        actual = {
            n: normalized(b.snapshot_state())
            for n, b in prog.behaviors.items()
        }
        assert actual == expected


class _Boom(Vertex):
    def on_execute(self, ctx):
        if ctx.phase == 2:
            raise ValueError("kaboom")
        return {}


def _one_vertex_program(behavior: Vertex) -> Program:
    g = ComputationGraph("solo")
    g.add_vertex("a")
    return Program(g, {"a": behavior})


class TestFailureHandling:
    def test_vertex_error_reraised_with_pair(self):
        prog = _one_vertex_program(_Boom())
        with pytest.raises(VertexExecutionError) as exc_info:
            ProcessEngine(prog, num_workers=1).run(
                [PhaseInput(p, float(p)) for p in range(1, 4)]
            )
        assert exc_info.value.vertex == "a"
        assert exc_info.value.phase == 2
        assert "kaboom" in str(exc_info.value)

    def test_engine_reusable_after_vertex_error(self):
        prog = _one_vertex_program(_Boom())
        engine = ProcessEngine(prog, num_workers=1)
        with pytest.raises(VertexExecutionError):
            engine.run([PhaseInput(p, float(p)) for p in range(1, 4)])
        res = engine.run([PhaseInput(1, 1.0)])
        assert res.execution_count == 1


class TestStatsSchema:
    def test_stats_keys_present(self, process_remote):
        prog, phases = grid_workload(3, 2, phases=6, seed=3)
        res = ProcessEngine(prog, num_workers=2).run(phases)
        stats = res.stats
        assert validate_engine_stats(res.engine, stats) == []
        assert stats["num_workers"] == 2
        assert stats["start_method"] == (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        # One thread owns the coordinator's core: it takes no lock.
        assert "lock" not in stats
        assert sum(stats["per_worker_executions"].values()) == (
            res.execution_count
        )
        # The coordinator executes too (slot num_workers); utilization
        # stays the workers'.
        assert set(stats["per_worker_executions"]) == {0, 1, 2}
        assert set(stats["per_worker_utilization"]) == {0, 1}
        assert all(u >= 0.0 for u in stats["per_worker_utilization"].values())
        wire = stats["serialization_bytes"]
        assert wire["final_state"]["messages"] == 2  # one per worker
        assert wire["final_state"]["bytes"] > 0
        assert wire["total_bytes"] > 0
        assert "task_batches" not in wire
        # One frame per shipped run (a single pair is a run of one),
        # answered by one reply frame each.
        assert "tasks" not in wire and "results" not in wire
        frames = wire["runs"]["messages"]
        assert stats["ipc_round_trips"] == frames >= 1
        drain = stats["drain"]
        assert frames == drain["pooled_runs"]
        assert drain["inline_runs"] + frames == (
            stats["coalescing"]["runs_scheduled"]
        )
        assert wire["result_batches"]["messages"] == frames
        assert stats["ipc"]["task_frames"] == frames
        assert "batching" not in stats
        assert stats["edge_entries_peak"] >= stats["edge_entries_final"]

    def test_sticky_assignment_covers_all_workers(self, process_remote):
        prog, phases = grid_workload(3, 3, phases=8, seed=4)
        res = ProcessEngine(prog, num_workers=3).run(phases)
        # 12 promoted vertices over 3 workers: every worker executes
        # something (and the coordinator each vertex's first pair).
        assert all(
            count > 0
            for count in res.stats["per_worker_executions"].values()
        )


class TestWorkerPool:
    def test_sticky_assignment_round_robin(self, process_remote):
        # Every vertex is promoted at its first pair, which the
        # coordinator (worker 3) runs; each later run of vertex v lands
        # on worker (v - 1) mod 3.
        prog, phases = grid_workload(3, 3, phases=8, seed=4)
        tracer = ExecutionTracer()
        ProcessEngine(prog, num_workers=3, tracer=tracer).run(phases)
        away = {}
        for event in tracer.events:
            if event.kind == "execute_begin" and event.worker != 3:
                away.setdefault(event.pair[0], set()).add(event.worker)
        assert away == {
            v: {(v - 1) % 3} for v in range(1, prog.numbering.n + 1)
        }

    def test_invalid_worker_count(self):
        with pytest.raises(EngineError):
            ProcessWorkerPool(make_chain_program(2, {1: "x"}), 0, 1.0)

    def test_shutdown_before_start_is_noop(self):
        pool = ProcessWorkerPool(make_chain_program(2, {1: "x"}), 2, 1.0)
        assert pool.shutdown(timeout=1.0) == {}

    def test_a_worker_that_fails_to_start_surfaces_its_own_error(
        self, monkeypatch
    ):
        # The second worker's start() fails as a fork does when the
        # process table is full.  Regression: the crash path joined the
        # worker that never started, so the caller read "AssertionError:
        # can only join a started process" instead.
        start = BaseProcess.start
        calls = itertools.count()

        def second_fails(process):
            if next(calls) == 1:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            start(process)

        monkeypatch.setattr(BaseProcess, "start", second_fails)
        engine = ProcessEngine(make_chain_program(2, {1: "x"}), num_workers=2)
        with pytest.raises(OSError) as exc_info:
            engine.run(signals(2))
        assert exc_info.value.errno == errno.EAGAIN
        assert next(calls) == 2  # the first worker did start
        assert multiprocessing.active_children() == []
