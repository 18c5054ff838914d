"""Tests for the wire path of the process backend.

Covers ``RunMsg``/``ResultBatch`` framing (including the edge cases —
truncated frames, zero-length runs, failures and crashes mid-run), what
happens to a payload that does not pickle, the state a promoted vertex
brings home, and the byte-metering regression check (per-class wire
stats must sum to the actual coordinator-side queue traffic).
"""

import multiprocessing
import os
import pickle
import threading

import pytest

from repro.core.serial import SerialExecutor
from repro.core.program import Program
from repro.core.vertex import PassthroughSource, Vertex
from repro.errors import EngineError, VertexExecutionError
from repro.core.vertex import VertexContext
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph
from repro.runtime.feed import PhaseFeed
from repro.runtime.mp import ProcessEngine
from repro.runtime.mp.lifecycle import ProcessWorkerPool
from repro.runtime.mp.protocol import (
    ResultBatch,
    ResultMsg,
    RunMember,
    RunMsg,
    decode,
    encode,
    run_from_contexts,
)
from repro.streams.workloads import grid_workload
from repro.testing.fuzz import fuzz_process, scripted_placement

from tests.conftest import make_chain_program


# ---------------------------------------------------------------------------
# Protocol framing edge cases
# ---------------------------------------------------------------------------


class TestBatchFraming:
    def test_result_batch_round_trip(self):
        batch = ResultBatch(
            worker_id=1,
            vertex=2,
            results=(
                ResultMsg(phase=3, outputs={"b": 9}),
                ResultMsg(phase=4, error="boom"),
            ),
        )
        assert decode(encode(batch)) == batch

    def test_truncated_frame_raises_not_corrupts(self):
        # Frames are whole pickle blobs: a partial read must fail loudly,
        # never yield a half-parsed message.
        frame = encode(RunMsg(
            vertex=1, name="a", successors=(),
            members=(RunMember(phase=1, inputs={}, changed=()),),
        ))
        for cut in (1, len(frame) // 2, len(frame) - 1):
            with pytest.raises((pickle.UnpicklingError, EOFError,
                                AttributeError, IndexError)):
                decode(frame[:cut])

    def test_zero_length_run_is_legal_on_wire(self):
        # The engine never sends one, but a zero-member RunMsg must not
        # wedge or crash a worker: it answers with an empty ResultBatch
        # and keeps serving.
        prog = make_chain_program(2, {1: "x"})
        pool = ProcessWorkerPool(num_workers=1)
        try:
            pool.start()
            empty = RunMsg(
                vertex=1, name="n0", successors=(), behavior=prog.behavior(1)
            )
            pool.submit_to_worker(0, encode(empty))
            msg = pool.collect(timeout=30.0)
            assert msg == ResultBatch(worker_id=0, vertex=1, results=())
            finals = pool.shutdown(timeout=30.0)
            assert 0 in finals
        finally:
            pool.terminate()


class _BoomAtPhase2(Vertex):
    def on_execute(self, ctx):
        if ctx.phase == 2:
            raise ValueError("kaboom")
        return ("ok", ctx.phase)


def _solo_program(behavior: Vertex) -> Program:
    g = ComputationGraph("solo")
    g.add_vertex("a")
    return Program(g, {"a": behavior})


class TestMidRunFailure:
    def test_worker_reports_survivors_and_skips(self):
        # A run [a@1, a@2(fails), a@3]: the reply must carry a@1's
        # result and end at a@2's error entry — never a@3 executed out
        # of order past the failure.
        pool = ProcessWorkerPool(num_workers=1)
        try:
            pool.start()
            run = RunMsg(
                vertex=1, name="a", successors=(),
                members=tuple(
                    RunMember(phase=p, inputs={}, changed=())
                    for p in (1, 2, 3)
                ),
                behavior=_BoomAtPhase2(),
            )
            pool.submit_to_worker(0, encode(run))
            msg = pool.collect(timeout=30.0)
            assert isinstance(msg, ResultBatch)
            assert [r.phase for r in msg.results] == [1, 2]
            assert msg.results[0].error is None
            assert msg.results[0].records == (("ok", 1),)
            assert "kaboom" in msg.results[1].error
            assert msg.vertex == 1
        finally:
            pool.terminate()

    def test_engine_surfaces_error_and_stays_reusable(self, process_remote):
        prog = _solo_program(_BoomAtPhase2())
        engine = ProcessEngine(prog, num_workers=1)
        with pytest.raises(VertexExecutionError) as exc_info:
            engine.run([PhaseInput(p, float(p)) for p in range(1, 5)])
        assert exc_info.value.vertex == "a"
        assert exc_info.value.phase == 2
        res = engine.run([PhaseInput(1, 1.0)])
        assert res.execution_count == 1


class _UnpicklableResult(Vertex):
    def on_execute(self, ctx):
        if ctx.phase == 2:
            return lambda x: x  # poisons the reply frame
        return ("ok", ctx.phase)


class _ExitHard(Vertex):
    def on_execute(self, ctx):
        # Worker-side only: executed in the coordinator (a placement
        # regression) this must fail the test, not end pytest.
        if ctx.phase == 2 and multiprocessing.parent_process() is not None:
            os._exit(3)  # simulates a worker death mid-run
        return ("ok", ctx.phase)


@pytest.mark.usefixtures("process_remote")
class TestMidRunCrash:
    @pytest.mark.parametrize("max_in_flight", [1, None])
    @pytest.mark.parametrize("behavior, detail", [
        (_BoomAtPhase2, "kaboom"),
        (_UnpicklableResult, "result not picklable"),
    ])
    def test_fault_parity_across_run_length(
        self, behavior, detail, max_in_flight
    ):
        # One phase in flight makes every run a run of one (what
        # incremental admission in ``repro serve`` produces); unbounded
        # admission coalesces a@1..a@4 into one run.  Regression: the
        # run-of-one wire form had no salvage, so an unpicklable phase-2
        # result surfaced as "EngineError: worker 0 crashed" — no
        # vertex, no phase.  Same fault, same error, at every length,
        # with phase 1 committed first.
        engine = ProcessEngine(
            _solo_program(behavior()),
            num_workers=1,
            max_in_flight_phases=max_in_flight,
        )
        records = []
        with pytest.raises(VertexExecutionError, match=detail) as exc_info:
            engine.run_feed(
                PhaseFeed.of([PhaseInput(p, float(p)) for p in range(1, 5)]),
                retire=True,
                sink=lambda p, ts, recs: records.append((p, recs)),
            )
        assert exc_info.value.vertex == "a"
        assert exc_info.value.phase == 2
        assert records == [(1, [("a", ("ok", 1))])]

    def test_unpicklable_result_degrades_to_error(self):
        # The reply frame cannot pickle: the worker salvages it
        # result-by-result, so the coordinator still gets the survivors
        # and a VertexExecutionError for the poison result — not a
        # wedged run or a WorkerCrashMsg.
        prog = _solo_program(_UnpicklableResult())
        engine = ProcessEngine(prog, num_workers=1)
        with pytest.raises(VertexExecutionError, match="not picklable"):
            engine.run([PhaseInput(p, float(p)) for p in range(1, 5)])

    def test_worker_death_mid_batch_is_clean_engine_error(self):
        prog = _solo_program(_ExitHard())
        engine = ProcessEngine(prog, num_workers=1, join_timeout=30.0)
        with pytest.raises(EngineError, match="died|crashed"):
            engine.run([PhaseInput(p, float(p)) for p in range(1, 5)])


class TestAReplyEndsAtItsErrorEntry:
    """A reply answers a prefix of its run's members, in order, and ends
    at its error entry, if it has one: the members behind a failed one
    never ran.  The coordinator relies on it: it commits the entries
    before the last, raises on the last, and dispatches none of the
    members behind it again."""

    @pytest.mark.parametrize("behavior", [_BoomAtPhase2, _UnpicklableResult])
    @pytest.mark.parametrize(
        "phases", [(1,), (2,), (1, 2), (2, 3), (1, 2, 3), (1, 3, 4)]
    )
    def test_a_reply_ends_at_its_error_entry(self, behavior, phases):
        from repro.runtime.mp.worker import _compute_run, _encode_result_batch

        run = RunMsg(
            vertex=1, name="a", successors=(),
            members=tuple(RunMember(phase=p, inputs={}, changed=()) for p in phases),
        )
        batch = decode(_encode_result_batch(0, 1, _compute_run(behavior(), run)))
        assert batch.vertex == 1
        answered = [r.phase for r in batch.results]
        errors = [r.phase for r in batch.results if r.error is not None]
        if 2 in phases:
            assert errors == [2] and answered[-1] == 2
            assert answered == list(phases[: phases.index(2) + 1])
        else:
            assert errors == [] and answered == list(phases)


class _Poison:
    def __reduce__(self):
        raise TypeError("boom: deliberately unpicklable")


class TestSalvageEncoding:
    """Unit tests of the worker's result-by-result salvage path: a poison
    result degrades to an error entry that ends the reply, and the
    results before it still ship."""

    @staticmethod
    def _salvage(results):
        from repro.runtime.mp.worker import _encode_result_batch

        return decode(_encode_result_batch(0, 2, list(results)))

    @staticmethod
    def _ok(phase, value="ok"):
        return ResultMsg(phase=phase, outputs={"out": value})

    def test_a_poison_result_ends_the_reply(self):
        poison = ResultMsg(phase=2, outputs={"out": _Poison()})
        batch = self._salvage([self._ok(1), poison, self._ok(3)])
        # The survivor ships intact; the poison is the error entry that
        # ends the reply (a@3 is behind the failure the coordinator
        # raises on).
        assert [r.phase for r in batch.results] == [1, 2]
        assert batch.results[0] == self._ok(1)
        assert "not picklable" in batch.results[1].error
        assert batch.vertex == 2

    def test_poison_error_carries_original_exception(self):
        poison = ResultMsg(phase=4, outputs={"out": _Poison()})
        batch = self._salvage([poison])
        (res,) = batch.results
        assert res.phase == 4
        assert res.error is not None
        assert "result not picklable" in res.error
        assert "TypeError" in res.error
        assert "deliberately unpicklable" in res.error

    def test_genuine_error_entries_pass_through(self):
        failed = ResultMsg(phase=2, error="division by zero")
        batch = self._salvage([self._ok(1), failed])
        assert batch.results == (self._ok(1), failed)

    def test_cause_chain_rendered(self):
        from repro.runtime.mp.worker import _describe_pickle_failure

        try:
            try:
                raise ValueError("root cause")
            except ValueError as inner:
                raise TypeError("outer failure") from inner
        except TypeError as exc:
            text = _describe_pickle_failure(exc)
        assert text == "TypeError: outer failure <- ValueError: root cause"

    def test_cycle_in_context_chain_terminates(self):
        from repro.runtime.mp.worker import _describe_pickle_failure

        a = TypeError("a")
        b = ValueError("b")
        a.__cause__ = b
        b.__cause__ = a
        text = _describe_pickle_failure(a)
        assert text == "TypeError: a <- ValueError: b"


# ---------------------------------------------------------------------------
# Coalesced run frames
# ---------------------------------------------------------------------------


def _prepared_members(phases, payload="latched"):
    """Ascending (phase, ctx) members the way the coordinator prepares
    them for one claimed run."""
    return [
        (p, VertexContext(
            name="mid", phase=p, inputs={"up": payload}, changed={"up"},
            successors=["down", "side"],
        ))
        for p in phases
    ]


class TestRunFraming:
    def test_round_trip_expands_in_phase_order(self):
        run = run_from_contexts(3, _prepared_members([4, 5, 6]))
        decoded = decode(encode(run))
        assert (decoded.vertex, decoded.name) == (3, "mid")
        assert decoded.successors == ("down", "side")
        assert [m.phase for m in decoded.members] == [4, 5, 6]
        for m in decoded.members:
            assert m.inputs == {"up": "latched"}
            assert m.changed == ("up",)

    def test_header_rides_once(self):
        # A run frame carries name/successors once; the same members
        # shipped as runs of one repeat them per frame.
        prepared = _prepared_members(range(1, 9), payload="v" * 64)
        run_frame = encode(run_from_contexts(3, prepared))
        singles = sum(
            len(encode(run_from_contexts(3, [member]))) for member in prepared
        )
        assert len(run_frame) < singles

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            run_from_contexts(3, [])


# ---------------------------------------------------------------------------
# Payloads that do not pickle
# ---------------------------------------------------------------------------


class _HoldsALock(Vertex):
    """A picklable class whose instances are not: they hold a lock."""

    def __init__(self):
        self.guard = threading.Lock()

    def on_execute(self, ctx):
        return ("ok", ctx.phase)


def _locked_phase_input(phases=4):
    """``a`` passes its payload through; phase 2's is a lock."""
    program = _solo_program(PassthroughSource())
    return program, [
        PhaseInput(p, float(p), {"a": threading.Lock() if p == 2 else p})
        for p in range(1, phases + 1)
    ]


def _lock_holder(phases=4):
    return _solo_program(_HoldsALock()), [
        PhaseInput(p, float(p)) for p in range(1, phases + 1)
    ]


class TestUnpicklablePayloads:
    """Only frames are pickled.  On the real clock these microsecond
    vertices stay in the coordinator, which then needs nothing to pickle,
    although it prices the trip from runs it marshals unsent; promoted
    (``scripted_placement``), a vertex whose frame does not pickle fails
    as a vertex, at the run's head phase, with no worker left behind.
    Regressions: the lock holder was refused at spawn (on two workers,
    behind an ``AssertionError``), the lock payload killed the pricing
    with a raw ``TypeError``, and a promoted frame raised one."""

    @pytest.mark.parametrize("regime", ["real-clock", "process-remote"])
    @pytest.mark.parametrize(
        "workload", [_lock_holder, _locked_phase_input],
        ids=["behaviour", "phase-input"],
    )
    def test_only_frames_are_pickled(self, workload, regime):
        program, phases = workload()
        serial = SerialExecutor(program).run(phases)
        engine = ProcessEngine(program, num_workers=1)
        if regime == "real-clock":
            result = engine.run(phases)
            assert result.records == serial.records
            assert result.stats["ipc"]["promoted"] == []
            return
        with scripted_placement():
            with pytest.raises(VertexExecutionError, match="not picklable") as info:
                engine.run(phases)
        assert (info.value.vertex, info.value.phase) == ("a", 2)
        assert info.value.message.startswith("run not picklable: ")
        assert "lock" in info.value.message
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# The engine's wire path end to end
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("process_remote")
class TestWirePathEngine:
    def test_round_trips_scale_with_runs_not_executions(self):
        from repro.streams.workloads import pipeline_workload

        prog, phases = pipeline_workload(depth=5, phases=30, seed=3)
        res = ProcessEngine(prog, num_workers=2).run(phases)
        assert res.stats["ipc_round_trips"] < res.execution_count
        wire = res.stats["serialization_bytes"]
        assert wire["runs"]["messages"] >= 1
        assert wire["result_batches"]["messages"] == wire["runs"]["messages"]
        assert res.stats["ipc"]["mean_tasks_per_frame"] > 1.0

    def test_label_and_ipc_stats_schema(self):
        prog, phases = grid_workload(3, 2, phases=6, seed=3)
        res = ProcessEngine(prog, num_workers=2).run(phases)
        assert res.engine == "process[w=2]"
        ipc = res.stats["ipc"]
        assert set(ipc) == {"task_frames", "mean_tasks_per_frame", "promoted"}
        assert set(ipc["promoted"]) <= set(prog.behaviors)
        assert ipc["task_frames"] == res.stats["ipc_round_trips"]

    def test_post_run_state_matches_serial_via_deltas(self):
        # Sources mutate worker-side state (RNG advance); after the run
        # the coordinator's program must hold that delta, shipped home as
        # each promoted vertex's whole snapshot_state.
        from tests.models.test_pickling import normalized

        prog, phases = grid_workload(3, 3, phases=10, seed=9)
        SerialExecutor(prog).run(phases)
        expected = {
            n: normalized(b.snapshot_state())
            for n, b in prog.behaviors.items()
        }
        ProcessEngine(prog, num_workers=2).run(phases)
        actual = {
            n: normalized(b.snapshot_state())
            for n, b in prog.behaviors.items()
        }
        assert actual == expected


# ---------------------------------------------------------------------------
# Byte-metering regression: per-class sums == actual queue traffic
# ---------------------------------------------------------------------------


class _MeteredQueue:
    """Wraps a multiprocessing queue, recording coordinator-side frame
    sizes (the workers hold references to the real queue)."""

    def __init__(self, inner, ledger):
        self._inner = inner
        self._ledger = ledger

    def put(self, frame):
        self._ledger.append(len(frame))
        self._inner.put(frame)

    def get(self, *args, **kwargs):
        frame = self._inner.get(*args, **kwargs)
        self._ledger.append(len(frame))
        return frame

    def get_nowait(self):
        frame = self._inner.get_nowait()
        self._ledger.append(len(frame))
        return frame

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestMeteringRegression:
    def test_per_class_bytes_sum_to_pipe_traffic(
        self, process_remote, monkeypatch
    ):
        # Independently meter every byte the coordinator moves through
        # the queues, then require the engine's per-class accounting to
        # sum to exactly that: nothing crosses at spawn.
        sent, received = [], []
        original_start = ProcessWorkerPool.start

        def recording_start(self):
            original_start(self)
            self.result_queue = _MeteredQueue(self.result_queue, received)
            self._task_queues = [
                _MeteredQueue(q, sent) for q in self._task_queues
            ]

        monkeypatch.setattr(ProcessWorkerPool, "start", recording_start)
        prog, phases = grid_workload(3, 3, phases=8, seed=4)
        res = ProcessEngine(prog, num_workers=2).run(phases)
        wire = res.stats["serialization_bytes"]
        sent_classes = ("runs", "shutdown")
        recv_classes = ("result_batches", "final_state")
        assert sum(wire[c]["bytes"] for c in sent_classes) == sum(sent)
        assert sum(wire[c]["bytes"] for c in recv_classes) == sum(received)
        assert sum(wire[c]["messages"] for c in sent_classes) == len(sent)
        assert sum(wire[c]["messages"] for c in recv_classes) == (
            len(received)
        )
        assert wire["total_bytes"] == sum(sent) + sum(received)
        assert wire["final_state"]["messages"] == 2  # one per worker
        assert wire["shutdown"]["messages"] == 2
        assert wire["runs"]["messages"] > 0


# ---------------------------------------------------------------------------
# The process fuzz campaign
# ---------------------------------------------------------------------------


class TestProcessFuzzCampaign:
    def test_small_campaign_is_clean(self):
        report = fuzz_process(
            runs=3, seed=7, max_vertices=5, max_phases=4,
            start_method="fork",
        )
        assert report.ok, report.summary()
        assert report.runs == 3
        assert report.total_steps > 0

    def test_campaign_configs_are_deterministic(self):
        from repro.testing.fuzz import process_config_for_run

        assert process_config_for_run(7, 0) == process_config_for_run(7, 0)
        configs = [process_config_for_run(7, i) for i in range(12)]
        assert len({tuple(sorted(c.items(), key=str)) for c in configs}) > 1
