"""Feed-mode execution: incremental admission, retirement, graceful stop.

The continuous-operation contract (satellites of the serve layer):

* **Incremental admission** — phases handed to a running engine through a
  :class:`PhaseFeed` produce results identical to supplying the same
  phases up front, on both real engines.
* **Retirement** — ``retire=True`` streams each completed phase's records
  through the sink exactly once, in phase order, matching the serial
  oracle, while the engine's per-phase state is released.
* **Graceful stop** — a stop event set mid-stream drains in-flight phases
  and returns a result covering exactly the started prefix.
* **Burst admission** — a backlog in the feed starts in one critical
  section (never past the flow-control window or the run ceiling), a stop
  is honoured between bursts, and retirement stays once-and-ascending.
"""

import threading
from collections import deque

import pytest

from repro.analysis.serializability import assert_serializable
from repro.core.serial import SerialExecutor
from repro.core.tracer import ExecutionTracer
from repro.errors import EngineError
from repro.runtime.core import ScheduleCore
from repro.runtime.engine import ParallelEngine
from repro.runtime.feed import PhaseFeed
from repro.runtime.mp.engine import ProcessEngine
from repro.streams.workloads import comb_workload, pipeline_workload


def _feed_all(phases, capacity=4):
    """A feed plus a producer thread that trickles *phases* in."""
    feed = PhaseFeed(capacity=capacity)

    def producer():
        for pi in phases:
            feed.put([pi])
        feed.close()

    t = threading.Thread(target=producer, daemon=True)
    t.start()
    return feed, t


def _records_from_sink(sink_log):
    recs = {}
    for phase, _ts, entries in sink_log:
        for name, value in entries:
            recs.setdefault(name, []).append((phase, value))
    return recs


WORKLOADS = {
    "pipeline": lambda: pipeline_workload(depth=5, phases=30, seed=3),
    "comb": lambda: comb_workload(lanes=3, depth=3, phases=25, seed=4),
}


class TestIncrementalAdmissionParallel:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_feed_equals_upfront(self, workload):
        program, phases = WORKLOADS[workload]()
        serial = SerialExecutor(program).run(phases)

        upfront = ParallelEngine(program, num_threads=2).run(phases)
        feed, producer = _feed_all(phases)
        streamed = ParallelEngine(program, num_threads=2).run_feed(feed)
        producer.join(timeout=30)

        assert streamed.records == upfront.records
        assert streamed.phases_run == upfront.phases_run
        assert_serializable(serial, streamed)


class TestIncrementalAdmissionProcess:
    def test_feed_equals_upfront(self):
        program, phases = WORKLOADS["pipeline"]()
        serial = SerialExecutor(program).run(phases)

        feed, producer = _feed_all(phases)
        streamed = ProcessEngine(program, num_workers=2).run_feed(feed)
        producer.join(timeout=60)

        assert streamed.phases_run == len(phases)
        assert_serializable(serial, streamed)


class TestRetirement:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_parallel_retire_streams_oracle_records(self, workload):
        program, phases = WORKLOADS[workload]()
        serial = SerialExecutor(program).run(phases)

        sink_log = []
        feed, producer = _feed_all(phases)
        result = ParallelEngine(program, num_threads=2).run_feed(
            feed,
            sink=lambda p, ts, entries: sink_log.append((p, ts, entries)),
            retire=True,
        )
        producer.join(timeout=30)

        # Every phase retired exactly once, in phase order.
        assert [p for p, _, _ in sink_log] == list(range(1, len(phases) + 1))
        assert result.stats["retirement"]["phases_retired"] == len(phases)
        # Streamed records match the serial oracle; the result itself
        # holds nothing (records were handed off and released).
        assert _records_from_sink(sink_log) == serial.records
        assert result.records == {}
        assert result.phases_run == len(phases)

    def test_process_retire_streams_oracle_records(self):
        program, phases = WORKLOADS["pipeline"]()
        serial = SerialExecutor(program).run(phases)

        sink_log = []
        feed, producer = _feed_all(phases)
        result = ProcessEngine(program, num_workers=2).run_feed(
            feed,
            sink=lambda p, ts, entries: sink_log.append((p, ts, entries)),
            retire=True,
        )
        producer.join(timeout=60)

        assert [p for p, _, _ in sink_log] == list(range(1, len(phases) + 1))
        assert _records_from_sink(sink_log) == serial.records
        assert result.stats["retirement"]["phases_retired"] == len(phases)

    def test_retire_timestamps_come_from_phase_inputs(self):
        program, phases = WORKLOADS["pipeline"]()
        sink_log = []
        feed, producer = _feed_all(phases)
        ParallelEngine(program, num_threads=2).run_feed(
            feed,
            sink=lambda p, ts, entries: sink_log.append((p, ts)),
            retire=True,
        )
        producer.join(timeout=30)
        ts_of = {pi.phase: pi.timestamp for pi in phases}
        assert dict(sink_log) == ts_of

    def test_a_raising_sink_is_the_last_delivery(self):
        # A delivery that raises fails the run; what is committed after
        # it (another thread's run in flight) delivers no later phase,
        # and the books stay whole.
        program, phases = WORKLOADS["pipeline"]()
        delivered = []

        def sink(p, ts, entries):
            delivered.append(p)
            if p == 2:
                raise RuntimeError("delivery of phase 2 failed")

        core = ScheduleCore(program, 1, retire=True, sink=sink)
        failures = []
        for pi in phases[:5]:
            ready = deque(core.admit(pi))
            while ready:
                v, p = ready.popleft()
                run, ctxs = core.claim(v, p)
                core.runtime.compute(v, ctxs)
                completed = core.runtime.commit(v, run, ctxs)
                try:
                    ready.extend(core.commit(0, completed)[0])
                except RuntimeError as exc:
                    failures.append(exc)
        assert len(failures) == 1
        assert delivered == [1, 2]
        assert core.state.retired_upto == 5 and core.quiescent

    def test_retire_with_tracer_rejected(self):
        program, _ = WORKLOADS["pipeline"]()
        from repro.core.tracer import ExecutionTracer

        engine = ParallelEngine(program, tracer=ExecutionTracer())
        with pytest.raises(EngineError):
            engine.run_feed(PhaseFeed(), retire=True)


class TestGracefulStop:
    @pytest.mark.parametrize("engine_kind", ["parallel", "process"])
    def test_stop_mid_stream_drains_prefix(self, engine_kind):
        program, phases = pipeline_workload(depth=5, phases=60, seed=8)
        stop = threading.Event()
        feed = PhaseFeed(capacity=2)
        released = threading.Event()

        def producer():
            for i, pi in enumerate(phases):
                if i == 10:
                    # Let a prefix through, then signal stop; keep
                    # offering so the engine must *refuse* later phases.
                    stop.set()
                    released.set()
                try:
                    if not feed.put([pi], timeout=0.2):
                        break
                except Exception:
                    break
            feed.close()

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        if engine_kind == "parallel":
            result = ParallelEngine(program, num_threads=2).run_feed(
                feed, stop_event=stop
            )
        else:
            result = ProcessEngine(program, num_workers=2).run_feed(
                feed, stop_event=stop
            )
        released.wait(timeout=30)
        t.join(timeout=30)

        assert result.phases_run < len(phases)
        # The drained prefix is serializable against the same prefix.
        serial = SerialExecutor(program).run(phases[: result.phases_run])
        assert_serializable(serial, result)

    def test_stop_before_any_phase(self):
        program, phases = WORKLOADS["pipeline"]()
        stop = threading.Event()
        stop.set()
        feed, producer = _feed_all(phases, capacity=64)
        result = ParallelEngine(program, num_threads=2).run_feed(
            feed, stop_event=stop
        )
        producer.join(timeout=30)
        assert result.phases_run == 0
        assert result.execution_count == 0


class TestFeedBursts:
    """``run_feed`` admits everything the feed already holds in one
    critical section (one flow credit each), so served runs coalesce."""

    def test_backlog_is_admitted_in_one_burst_and_coalesces(self):
        program, phases = pipeline_workload(depth=5, phases=40, seed=3)
        serial = SerialExecutor(program).run(phases)
        result = ParallelEngine(program, num_threads=2).run_feed(PhaseFeed.of(phases))
        assert_serializable(serial, result)
        assert result.stats["drain"]["feed_burst_max"] == len(phases)
        assert result.stats["coalescing"]["mean_run_length"] > 1.0
        # Closed before the run began, the feed is a batch: the
        # environment is a peer, and every run is placed exactly once.
        drain = result.stats["drain"]
        assert (
            drain["inline_runs"] + drain["pooled_runs"]
            == result.stats["coalescing"]["runs_scheduled"]
        )

    def test_burst_is_capped_at_the_run_ceiling(self):
        from repro.core.state import ADAPTIVE_RUN_CEILING

        program, phases = pipeline_workload(depth=3, phases=150, seed=1)
        result = ParallelEngine(program, num_threads=2).run_feed(PhaseFeed.of(phases))
        assert result.phases_run == len(phases)
        assert result.stats["drain"]["feed_burst_max"] == ADAPTIVE_RUN_CEILING

    @pytest.mark.parametrize("in_flight", [1, 3])
    def test_burst_never_exceeds_max_in_flight(self, in_flight):
        program, phases = comb_workload(lanes=3, depth=3, phases=30, seed=4)
        serial = SerialExecutor(program).run(phases)
        tracer = ExecutionTracer()
        result = ParallelEngine(
            program,
            num_threads=2,
            tracer=tracer,
            max_in_flight_phases=in_flight,
        ).run_feed(PhaseFeed.of(phases))
        assert_serializable(serial, result)
        assert 1 <= result.stats["drain"]["feed_burst_max"] <= in_flight
        # Tracer events are appended under the global lock: replaying
        # them gives the exact number of phases in flight at every step.
        in_flight_now = peak = 0
        for ev in tracer.events:
            if ev.kind == "phase_started":
                in_flight_now += 1
                peak = max(peak, in_flight_now)
            elif ev.kind == "phase_completed":
                in_flight_now -= 1
        assert peak <= in_flight

    def test_stop_is_honoured_between_bursts(self):
        from repro.core.state import ADAPTIVE_RUN_CEILING

        program, phases = pipeline_workload(depth=3, phases=200, seed=2)
        stop = threading.Event()

        class StopOnceTheFirstBurstIsIn(ExecutionTracer):
            def phase_started(self, phase):
                super().phase_started(phase)
                if phase == ADAPTIVE_RUN_CEILING:
                    stop.set()

        result = ParallelEngine(
            program, num_threads=2, tracer=StopOnceTheFirstBurstIsIn()
        ).run_feed(PhaseFeed.of(phases), stop_event=stop)
        # The burst in progress is admitted whole and drains; no second
        # burst starts although the feed still holds 136 phases.
        assert result.phases_run == ADAPTIVE_RUN_CEILING
        serial = SerialExecutor(program).run(phases[:ADAPTIVE_RUN_CEILING])
        assert_serializable(serial, result)

    def test_retire_sinks_each_phase_once_ascending_across_bursts(self):
        program, phases = comb_workload(lanes=3, depth=3, phases=90, seed=4)
        serial = SerialExecutor(program).run(phases)
        sink_log = []
        result = ParallelEngine(program, num_threads=2).run_feed(
            PhaseFeed.of(phases),
            sink=lambda p, ts, entries: sink_log.append((p, ts, entries)),
            retire=True,
        )
        assert result.stats["drain"]["feed_burst_max"] > 1
        assert [p for p, _, _ in sink_log] == list(range(1, len(phases) + 1))
        assert _records_from_sink(sink_log) == serial.records
        assert result.stats["retirement"]["phases_retired"] == len(phases)
