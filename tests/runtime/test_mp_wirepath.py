"""Tests for the wire path of the process backend.

Covers ``RunMsg``/``ResultBatch`` framing (including the edge cases —
truncated frames, zero-length runs, failures and crashes mid-run), the
:class:`~repro.runtime.mp.protocol.Interner`, delta state sync
(:meth:`~repro.core.vertex.Vertex.snapshot_delta`), the adaptive credit
window, and the byte-metering regression check (per-class wire stats
must sum to the actual coordinator-side queue traffic).
"""

import multiprocessing
import os
import pickle

import pytest

from repro.core.serial import SerialExecutor
from repro.core.program import Program
from repro.core.vertex import Vertex
from repro.errors import EngineError, VertexExecutionError
from repro.core.vertex import VertexContext
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph
from repro.runtime.feed import PhaseFeed
from repro.runtime.mp import ProcessEngine
from repro.runtime.mp.lifecycle import ProcessWorkerPool
from repro.runtime.mp.protocol import (
    Interner,
    ResultBatch,
    ResultMsg,
    RunMember,
    RunMsg,
    decode,
    encode,
    run_from_contexts,
)
from repro.streams.workloads import grid_workload
from repro.testing import fuzz_process

from tests.conftest import make_chain_program


# ---------------------------------------------------------------------------
# Protocol framing edge cases
# ---------------------------------------------------------------------------


class TestBatchFraming:
    def test_result_batch_round_trip(self):
        batch = ResultBatch(
            worker_id=1,
            results=(
                ResultMsg(worker_id=1, vertex=2, phase=3, outputs={"b": 9}),
                ResultMsg(worker_id=1, vertex=2, phase=4, error="boom"),
            ),
            skipped=((2, 5), (2, 6)),
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
        pool = ProcessWorkerPool(prog, num_workers=1)
        try:
            pool.start()
            empty = RunMsg(vertex=1, name="n0", successors=())
            pool.submit_to_worker(0, encode(empty))
            msg = pool.collect(timeout=30.0)
            assert msg == ResultBatch(worker_id=0, results=(), skipped=())
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
        # result, a@2's error entry, and a@3 as skipped — never a@3
        # executed out of order past the failure.
        prog = _solo_program(_BoomAtPhase2())
        pool = ProcessWorkerPool(prog, num_workers=1)
        try:
            pool.start()
            run = RunMsg(
                vertex=1, name="a", successors=(),
                members=tuple(
                    RunMember(phase=p, inputs={}, changed=())
                    for p in (1, 2, 3)
                ),
            )
            pool.submit_to_worker(0, encode(run))
            msg = pool.collect(timeout=30.0)
            assert isinstance(msg, ResultBatch)
            assert [r.phase for r in msg.results] == [1, 2]
            assert msg.results[0].error is None
            assert msg.results[0].records == (("ok", 1),)
            assert "kaboom" in msg.results[1].error
            assert msg.skipped == ((1, 3),)
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


class TestSkippedComesWithAnError:
    """A reply skips members only behind a failed one, so a non-empty
    ``ResultBatch.skipped`` always travels with an error entry in the
    same batch.  The coordinator relies on it: it raises on that entry,
    and nothing a worker skipped is ever dispatched again."""

    @pytest.mark.parametrize("behavior", [_BoomAtPhase2, _UnpicklableResult])
    @pytest.mark.parametrize(
        "phases", [(1,), (2,), (1, 2), (2, 3), (1, 2, 3), (1, 3, 4)]
    )
    def test_skipped_implies_an_error_entry(self, behavior, phases):
        from repro.runtime.mp.worker import (
            _compute_run,
            _encode_result_batch,
            _SuppressFilter,
        )

        run = RunMsg(
            vertex=1, name="a", successors=(),
            members=tuple(RunMember(phase=p, inputs={}, changed=()) for p in phases),
        )
        results, skipped = _compute_run(
            0, behavior(), run, _SuppressFilter({}), Interner()
        )
        batch = decode(_encode_result_batch(0, results, skipped))
        errors = [r.phase for r in batch.results if r.error is not None]
        assert not batch.skipped or errors
        # Every member is answered exactly once: executed, then skipped.
        answered = [r.phase for r in batch.results] + [p for _, p in batch.skipped]
        assert answered == list(phases)
        assert errors == ([2] if 2 in phases else [])


class _Poison:
    def __reduce__(self):
        raise TypeError("boom: deliberately unpicklable")


class TestSalvageEncoding:
    """Unit tests of the worker's result-by-result salvage path.

    Regression: the old salvage loop stopped at the first poison result
    and reclassified every *executed* result after it as skipped.  The
    coordinator re-dispatches skipped pairs, so pairs that had already
    run on the worker (warm-cached state already advanced) ran twice.
    """

    @staticmethod
    def _salvage(results, skipped):
        from repro.runtime.mp.worker import _encode_result_batch

        return decode(_encode_result_batch(0, list(results), list(skipped)))

    @staticmethod
    def _ok(vertex, phase, value="ok"):
        return ResultMsg(worker_id=0, vertex=vertex, phase=phase,
                         outputs={"out": value}, compute_s=0.25)

    def test_executed_results_after_poison_still_ship(self):
        poison = ResultMsg(worker_id=0, vertex=2, phase=1,
                           outputs={"out": _Poison()}, compute_s=0.5)
        batch = self._salvage(
            [self._ok(1, 1), poison, self._ok(3, 1)], skipped=[(9, 1)]
        )
        # All three executed results present, in order.
        assert [(r.vertex, r.phase) for r in batch.results] == [
            (1, 1), (2, 1), (3, 1)
        ]
        assert batch.results[0].error is None
        assert batch.results[2].error is None
        # Old code dropped (3, 1) into skipped -> double execution.
        assert batch.skipped == ((9, 1),)
        executed = {(r.vertex, r.phase) for r in batch.results}
        assert executed.isdisjoint(set(batch.skipped))

    def test_poison_error_carries_original_exception(self):
        poison = ResultMsg(worker_id=0, vertex=2, phase=4,
                           outputs={"out": _Poison()}, compute_s=0.5)
        batch = self._salvage([poison], skipped=[])
        (res,) = batch.results
        assert res.error is not None
        assert "result not picklable" in res.error
        assert "TypeError" in res.error
        assert "deliberately unpicklable" in res.error
        # compute_s survives the downgrade: utilization stays honest.
        assert res.compute_s == 0.5

    def test_genuine_error_entries_pass_through(self):
        failed = ResultMsg(worker_id=0, vertex=5, phase=2,
                           error="division by zero", compute_s=0.1)
        poison = ResultMsg(worker_id=0, vertex=6, phase=2,
                           outputs={"out": _Poison()}, compute_s=0.2)
        batch = self._salvage([failed, poison], skipped=[(7, 2)])
        assert batch.results[0].error == "division by zero"
        assert "not picklable" in batch.results[1].error
        assert batch.skipped == ((7, 2),)

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
# Interner
# ---------------------------------------------------------------------------


class TestInterner:
    def test_equal_values_collapse_to_one_object(self):
        interner = Interner()
        a = interner.intern(1000 + 24)
        b = interner.intern(1000 + 24)
        assert a is b
        assert interner.hits == 1 and interner.misses == 1

    def test_type_distinguishes_keys(self):
        interner = Interner()
        assert interner.intern(1) is not interner.intern(1.0)
        assert interner.misses == 2

    def test_unhashable_passes_through(self):
        interner = Interner()
        value = [1, 2, 3]
        assert interner.intern(value) is value
        assert interner.summary()["entries"] == 0

    def test_table_bounded(self):
        interner = Interner(max_entries=4)
        for i in range(10):
            interner.intern(f"v{i}")
        assert len(interner._table) <= 4

    def test_interned_frame_is_smaller(self):
        def fresh_payload():
            # Equal but distinct objects each call — what latched inputs
            # across separately prepared contexts look like.
            return "".join(["a repeated latched value"] * 4)

        interner = Interner()
        plain = encode(tuple(
            RunMember(phase=p, inputs={"x": fresh_payload()}, changed=())
            for p in range(1, 9)
        ))
        interned = encode(tuple(
            RunMember(
                phase=p, inputs={"x": interner.intern(fresh_payload())},
                changed=(),
            )
            for p in range(1, 9)
        ))
        assert len(interned) < len(plain)

    def test_byte_meter_tracks_retained_values(self):
        import sys

        interner = Interner()
        values = [f"payload-{i}" * 10 for i in range(8)]
        for v in values:
            interner.intern(v)
        assert interner.approx_bytes == sum(sys.getsizeof(v) for v in values)
        # Hits retain nothing new.
        interner.intern(values[0] + "")
        assert interner.approx_bytes == sum(sys.getsizeof(v) for v in values)

    def test_byte_cap_resets_on_overflow(self):
        # The regression this guards: before the byte bound, a serve-style
        # run interning a stream of large distinct values grew the memo
        # without limit even though the entry count stayed under its cap.
        interner = Interner(max_entries=1 << 30, max_bytes=4096)
        big = "x" * 512
        for i in range(64):
            interner.intern(big + str(i))
        assert interner.resets >= 1
        # Retained bytes never exceed cap + one value's worth of slack.
        import sys

        assert interner.approx_bytes <= 4096 + sys.getsizeof(big + "00")
        summary = interner.summary()
        assert summary["resets"] == interner.resets
        assert summary["approx_bytes"] == interner.approx_bytes

    def test_entry_cap_reset_is_counted(self):
        interner = Interner(max_entries=4)
        for i in range(10):
            interner.intern(f"v{i}")
        assert interner.resets >= 1
        assert len(interner._table) <= 4

    def test_reset_only_costs_re_misses(self):
        # Correctness: a value interned, evicted by a reset, and interned
        # again still comes back equal (identity is an optimisation only).
        interner = Interner(max_entries=2)
        first = interner.intern("alpha")
        interner.intern("beta")
        interner.intern("gamma")  # forces a reset
        second = interner.intern("alpha")
        assert second == first


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
        run = run_from_contexts(3, _prepared_members([4, 5, 6]), Interner())
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
        run_frame = encode(run_from_contexts(3, prepared, Interner()))
        singles = sum(
            len(encode(run_from_contexts(3, [member], Interner())))
            for member in prepared
        )
        assert len(run_frame) < singles

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            run_from_contexts(3, [], Interner())


# ---------------------------------------------------------------------------
# Delta state sync
# ---------------------------------------------------------------------------


class _WeirdEq:
    """Equality that raises — the conservative diff must ship it."""

    def __eq__(self, other):
        raise RuntimeError("ambiguous")

    def __hash__(self):  # pragma: no cover - never hashed
        return 0


class _CustomSnapshot(Vertex):
    def __init__(self):
        self.total = 0

    def snapshot_state(self):
        return {"total": self.total}

    def restore_state(self, snapshot):
        self.total = snapshot["total"]

    def on_execute(self, ctx):  # pragma: no cover - not executed
        return None


class TestSnapshotDelta:
    def test_dict_diff_ships_only_changes(self):
        class Counter(Vertex):
            def __init__(self):
                self.config = ("fixed", "tuple")
                self.count = 0

            def on_execute(self, ctx):  # pragma: no cover
                return None

        v = Counter()
        baseline = v.snapshot_state()
        v.count = 7
        kind, changed, removed = v.snapshot_delta(baseline)
        assert kind == "dict"
        assert changed == {"count": 7}
        assert removed == ()

    def test_apply_delta_round_trips(self):
        class Counter(Vertex):
            def __init__(self):
                self.count = 0
                self.gone = "soon"

            def on_execute(self, ctx):  # pragma: no cover
                return None

        worker_side = Counter()
        coordinator_side = Counter()
        baseline = worker_side.snapshot_state()
        worker_side.count = 3
        del worker_side.gone
        worker_side.new = "appeared"
        coordinator_side.apply_delta(worker_side.snapshot_delta(baseline))
        assert coordinator_side.snapshot_state() == (
            worker_side.snapshot_state()
        )

    def test_unreliable_equality_is_shipped(self):
        class Holder(Vertex):
            def __init__(self):
                self.weird = _WeirdEq()

            def on_execute(self, ctx):  # pragma: no cover
                return None

        v = Holder()
        baseline = v.snapshot_state()
        kind, changed, _removed = v.snapshot_delta(baseline)
        assert kind == "dict"
        assert "weird" in changed  # conservatively treated as changed

    def test_custom_snapshot_falls_back_to_full(self):
        v = _CustomSnapshot()
        baseline = v.snapshot_state()
        v.total = 5
        delta = v.snapshot_delta(baseline)
        assert delta == ("full", {"total": 5})
        peer = _CustomSnapshot()
        peer.apply_delta(delta)
        assert peer.total == 5

    def test_unknown_delta_kind_rejected(self):
        with pytest.raises(VertexExecutionError):
            _CustomSnapshot().apply_delta(("nonsense", {}))


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
        assert set(ipc) == {
            "window_final", "window_peak", "window_widenings",
            "window_narrowings", "task_frames", "mean_tasks_per_frame",
            "promoted", "interning",
        }
        assert set(ipc["promoted"]) <= set(prog.behaviors)
        assert set(ipc["window_final"]) == {0, 1}
        assert ipc["task_frames"] == res.stats["ipc_round_trips"]
        assert ipc["interning"]["misses"] >= 0

    def test_adaptive_window_widens_under_backlog(self):
        # Four sources become ready at once for the only worker, whose
        # credit window starts at one task: the backlog starves it.
        prog, phases = grid_workload(4, 3, phases=20, seed=2)
        res = ProcessEngine(prog, num_workers=1).run(phases)
        ipc = res.stats["ipc"]
        assert ipc["window_peak"] >= 2
        assert ipc["window_widenings"] >= 1

    def test_post_run_state_matches_serial_via_deltas(self):
        # Sources mutate worker-side state (RNG advance); after the run
        # the coordinator's program must hold it, shipped as deltas.
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
        self, monkeypatch, process_remote
    ):
        # Independently meter every byte the coordinator moves through
        # the queues, then require the engine's per-class accounting to
        # sum to exactly that (plus the warmup blobs, which travel via
        # process spawn, not a queue).
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
        # And the grand total is queue traffic plus the warmup blobs.
        assert wire["total_bytes"] == (
            sum(sent) + sum(received) + wire["warmup"]["bytes"]
        )
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
        from repro.testing import process_config_for_run

        assert process_config_for_run(7, 0) == process_config_for_run(7, 0)
        configs = [process_config_for_run(7, i) for i in range(12)]
        assert len({tuple(sorted(c.items(), key=str)) for c in configs}) > 1
