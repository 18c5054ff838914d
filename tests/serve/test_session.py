"""ServeSession: the full ingest → engine → retire → stream pipeline."""

import random
import resource
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.analysis.stats import validate_serve_stats
from repro.core.program import Program
from repro.core.vertex import PassthroughSource
from repro.errors import BackpressureError, ServeError, VertexExecutionError
from repro.events import Event, PhaseInput
from repro.graph.generators import layered_graph
from repro.ingest import ArrivingEvent
from repro.serve import OracleSpotChecker, ServeConfig, ServeSession
from repro.serve import session as session_module
from repro.streams.workloads import LatchedSum

from .conftest import drain_queue, norm, phase_events, serial_oracle


def _run_workload(workload, config):
    """Feed a keyed workload through a session; return (events, stats)."""
    session = ServeSession(workload.program, config)
    q = session.announcer.listen()
    with session:
        for a in workload.arrivals:
            session.offer(a)
    stats = session.stats()
    return phase_events(drain_queue(q)), stats


class TestParallelPipeline:
    def test_matches_serial_oracle(self, keyed_workload, keyed_workload_oracle):
        by_phase, _by_ts, n_phases = serial_oracle(keyed_workload_oracle)
        events, stats = _run_workload(
            keyed_workload,
            ServeConfig(
                engine="parallel",
                threads=2,
                wait=keyed_workload.wait,
                quantum=keyed_workload.quantum,
                check_sample=1,  # spot-check every phase
            ),
        )

        # Every sealed phase streamed exactly once, in order.
        assert [e["phase"] for e in events] == list(range(1, n_phases + 1))
        got = {e["phase"]: sorted(e["records"]) for e in events}
        for phase in got:
            assert got[phase] == by_phase.get(phase, []), f"phase {phase}"
        assert set(by_phase) <= set(got)

        serve = stats["serve"]
        assert validate_serve_stats(serve) == []
        assert serve["phases_ingested"] == n_phases
        assert serve["phases_retired"] == n_phases
        assert serve["late_events"] == 0
        assert serve["spot_checks_passed"] == n_phases
        assert serve["spot_checks_failed"] == 0
        assert all(e["spot_check"] == "pass" for e in events)
        assert serve["rss_high_water_bytes"] > 0

    def test_session_outlives_join_timeout(
        self, keyed_workload, keyed_workload_oracle
    ):
        # join_timeout bounds the wind-down after close, not the life of
        # the session: an engine that idles past it must keep serving.
        by_phase, _by_ts, n_phases = serial_oracle(keyed_workload_oracle)
        session = ServeSession(
            keyed_workload.program,
            ServeConfig(
                engine="parallel",
                wait=keyed_workload.wait,
                quantum=keyed_workload.quantum,
                join_timeout=0.5,
            ),
        )
        q = session.announcer.listen()
        with session:
            time.sleep(1.5)
            for a in keyed_workload.arrivals:
                session.offer(a)
        events = phase_events(drain_queue(q))
        assert [e["phase"] for e in events] == list(range(1, n_phases + 1))
        for e in events:
            assert sorted(e["records"]) == by_phase.get(e["phase"], [])

    def test_unencodable_record_cannot_fail_the_delivery(self, keyed_workload):
        names = sorted(keyed_workload.program.numbering.index_of)
        session = ServeSession(keyed_workload.program, ServeConfig())
        q = session.announcer.listen()
        session.start()
        # Deliver retired phases directly, as the retiring engine thread
        # would.
        session._sink(1, 0.0, [(names[0], {1, 2}), (names[1], 5)])
        session._sink(2, 1.0, [(names[0], {(1, 2): object})])
        session._sink(3, 2.0, [(names[0], "fine")])
        session.close()  # no delivery failed: nothing to re-raise
        events = phase_events(drain_queue(q))
        assert [e["phase"] for e in events] == [1, 2, 3]
        assert sorted(events[0]["records"]) == sorted(
            [[names[0], "{1, 2}"], [names[1], 5]]
        )
        assert events[2]["records"] == [[names[0], "fine"]]

    def test_a_phase_nobody_listens_to_is_not_formatted(
        self, keyed_workload, monkeypatch
    ):
        formatted = []
        real = session_module.format_sse

        def counted(*args, **kwargs):
            formatted.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "format_sse", counted)
        names = sorted(keyed_workload.program.numbering.index_of)
        session = ServeSession(keyed_workload.program, ServeConfig())
        session.start()
        for phase in range(1, 6):
            session._sink(phase, float(phase), [(names[0], phase)])
        session.close()  # no delivery failed: nothing to re-raise
        assert formatted == []
        assert session.announcer.announced == 5
        assert session.results_streamed == 5

    def test_a_listener_attached_mid_stream_gets_every_later_phase(
        self, keyed_workload
    ):
        names = sorted(keyed_workload.program.numbering.index_of)
        session = ServeSession(keyed_workload.program, ServeConfig())
        with session:
            for phase in (1, 2, 3):
                session._sink(phase, float(phase), [(names[0], phase)])
            assert session.announcer.announced == 3  # delivered in _sink
            q = session.announcer.listen()
            for phase in (4, 5, 6):
                session._sink(phase, float(phase), [(names[0], phase)])
        messages = drain_queue(q)
        for phase, msg in zip((4, 5, 6), messages):
            assert msg.startswith(f"event: phase\nid: {phase}\ndata: ")
            assert msg.endswith("\n\n")
        events = phase_events(messages)
        assert [e["phase"] for e in events] == [4, 5, 6]
        assert [e["records"] for e in events] == [[[names[0], p]] for p in (4, 5, 6)]

    def test_engine_stats_section_appears_after_close(self, keyed_workload):
        _events, stats = _run_workload(
            keyed_workload,
            ServeConfig(wait=keyed_workload.wait, quantum=keyed_workload.quantum),
        )
        assert stats["engine"]["label"].startswith("parallel")
        assert "retirement" in stats["engine"]["stats"]


class TestProcessPipeline:
    def test_matches_serial_oracle(self):
        from repro.models.domains.keyed import build_keyed_workload

        workload = build_keyed_workload(num_keys=3, ticks=20, seed=23)
        oracle_copy = build_keyed_workload(num_keys=3, ticks=20, seed=23)
        by_phase, _by_ts, n_phases = serial_oracle(oracle_copy)
        events, stats = _run_workload(
            workload,
            ServeConfig(
                engine="process",
                workers=2,
                wait=workload.wait,
                quantum=workload.quantum,
                check_sample=5,
            ),
        )
        assert [e["phase"] for e in events] == list(range(1, n_phases + 1))
        got = {e["phase"]: sorted(e["records"]) for e in events}
        for phase in got:
            assert got[phase] == by_phase.get(phase, [])
        serve = stats["serve"]
        assert validate_serve_stats(serve) == []
        assert serve["engine"] == "process"
        assert serve["spot_checks_failed"] == 0
        assert serve["spot_checks_passed"] > 0


def grid_backlog(ticks):
    """The 4x4 grid of ``LatchedSum`` vertices behind four event-driven
    sources, and *ticks* ticks of one event per source, no delay."""
    graph = layered_graph([4, 4, 4, 4], density=1.0, seed=0)
    behaviors = {}
    for v in graph.vertices():
        preds = tuple(graph.predecessors(v))
        behaviors[v] = LatchedSum(preds) if preds else PassthroughSource()
    rng = random.Random(27)
    arrivals = [
        ArrivingEvent(Event(float(t), f"L0_{j}", round(rng.uniform(-9, 9), 3)),
                      arrival=float(t))
        for t in range(ticks)
        for j in range(4)
    ]
    return SimpleNamespace(
        program=Program(graph, behaviors), arrivals=arrivals, wait=0.0,
        quantum=1.0,
    )


class TestBacklog:
    @pytest.mark.parametrize("engine", ["parallel", "process"])
    def test_a_backlog_coalesces_like_a_batch(self, engine):
        # A producer far ahead of the engine: started phases pile up to
        # the run ceiling, so runs grow past the 8 a cap on phases in
        # flight would allow — on either engine, record-exact.
        ticks = 240
        workload = grid_backlog(ticks)
        by_phase, _by_ts, n_phases = serial_oracle(grid_backlog(ticks))
        got = {}

        def on_retired(phase, ts, entries):
            got[phase] = sorted([name, norm(value)] for name, value in entries)

        session = ServeSession(
            workload.program,
            ServeConfig(engine=engine, wait=workload.wait, quantum=workload.quantum),
            on_retired=on_retired,
        )
        with session:
            for a in workload.arrivals:
                session.offer(a)
        stats = session.stats()
        assert n_phases >= 200
        assert got == {p: by_phase.get(p, []) for p in range(1, n_phases + 1)}
        assert stats["engine"]["stats"]["coalescing"]["mean_run_length"] > 8


class TestDelivery:
    """The thread that retires a phase delivers it: no second thread
    hop, and a delivery that raises fails the session."""

    @pytest.mark.parametrize("engine", ["parallel", "process"])
    def test_on_retired_runs_on_the_retiring_engine_thread(self, engine):
        workload = grid_backlog(16)
        seen = []

        def on_retired(phase, ts, entries):
            seen.append((
                phase,
                threading.current_thread(),
                sorted(t.name for t in threading.enumerate()
                       if t.name.startswith("serve-")),
            ))

        session = ServeSession(
            workload.program,
            ServeConfig(engine=engine, wait=workload.wait, quantum=workload.quantum),
            on_retired=on_retired,
        )
        with session:
            for a in workload.arrivals:
                session.offer(a)
        assert [phase for phase, _, _ in seen] == list(range(1, 17))
        driven = 0
        for _, thread, serve_threads in seen:
            # The session starts one thread; no "serve-emit" exists.
            assert serve_threads == ["serve-engine"]
            if thread is threading.current_thread():
                # A lone phase this producer's put ran in the idle
                # coordinator's stead.
                driven += 1
            elif engine == "parallel":
                assert thread.name == "environment"  # the coordinator
            else:
                assert thread is session._engine_thread  # the coordinator
        drain = session.stats()["engine"]["stats"]["drain"]
        assert driven == drain["driven_phases"]

    @pytest.mark.parametrize("engine", ["parallel", "process"])
    def test_a_raising_on_retired_fails_the_session(self, engine):
        workload = grid_backlog(16)
        seen = []

        class HookFailed(Exception):
            pass

        def on_retired(phase, ts, entries):
            seen.append(phase)
            if phase == 3:
                raise HookFailed("on_retired failed at phase 3")

        session = ServeSession(
            workload.program,
            ServeConfig(engine=engine, wait=workload.wait, quantum=workload.quantum),
            on_retired=on_retired,
        )
        session.start()
        try:
            for a in workload.arrivals:
                session.offer(a)
        except ServeError:
            pass  # the engine already failed and closed its feed
        session._engine_thread.join(timeout=60)
        assert not session._engine_thread.is_alive()
        with pytest.raises(ServeError, match="engine failed.*HookFailed"):
            session.offer(workload.arrivals[0])
        with pytest.raises(HookFailed, match="phase 3"):
            session.close()
        # The failed delivery is the last one.
        assert seen == [1, 2, 3]
        assert session.phases_retired == 3


class TestDrivenPhases:
    """A lone phase sealed into an idle coordinator runs on the
    producer's thread, inside its put, and fails the session as a
    coordinator failure does (docs/ARCHITECTURE.md §5.8)."""

    TICKS = 20
    ENGINE = "process"

    def _session(self, workload, on_retired, check_sample=0):
        return ServeSession(
            workload.program,
            ServeConfig(engine=self.ENGINE, wait=workload.wait,
                        quantum=workload.quantum, check_sample=check_sample),
            on_retired=on_retired,
        )

    @staticmethod
    def _offer_slowly(session, arrivals):
        """Offer *arrivals*; returns how many were offered before one was
        refused.  A tick's first event seals the tick before it; a
        producer that pauses before it finds the coordinator parked and
        idle."""
        time.sleep(0.3)
        for i, a in enumerate(arrivals):
            if i % 4 == 0:
                time.sleep(0.02)
            try:
                session.offer(a)
            except ServeError:
                return i
        return len(arrivals)

    def test_a_slow_producers_lone_phases_run_on_its_thread(self):
        workload = grid_backlog(self.TICKS)
        by_phase, _by_ts, n_phases = serial_oracle(grid_backlog(self.TICKS))
        got, threads = {}, []

        def on_retired(phase, ts, entries):
            got[phase] = sorted([name, norm(value)] for name, value in entries)
            threads.append(threading.current_thread())

        session = self._session(workload, on_retired, check_sample=1)
        with session:
            offered = self._offer_slowly(session, workload.arrivals)
        assert offered == len(workload.arrivals)
        stats = session.stats()
        assert got == {p: by_phase.get(p, []) for p in range(1, n_phases + 1)}
        drain = stats["engine"]["stats"]["drain"]
        mine = sum(t is threading.current_thread() for t in threads)
        # A put that meets the coordinator awake on its poll hands off.
        assert mine == drain["driven_phases"] >= n_phases - 2
        assert drain["swept_phases"] == n_phases
        serve = stats["serve"]
        assert serve["spot_checks_passed"] == n_phases
        assert serve["phases_ingested"] == serve["phases_retired"] == n_phases
        assert validate_serve_stats(serve) == []

    def test_a_producer_ahead_of_the_engine_hands_off_and_coalesces(self):
        # The coordinator is parked when the burst begins, so the first
        # phase is driven; the producer is back with the next one sooner
        # than that drive took, so the rest queue and coalesce.
        ticks = 240
        workload = grid_backlog(ticks)
        by_phase, _by_ts, n_phases = serial_oracle(grid_backlog(ticks))
        got = {}

        def on_retired(phase, ts, entries):
            got[phase] = sorted([name, norm(value)] for name, value in entries)

        session = self._session(workload, on_retired)
        with session:
            time.sleep(0.3)
            for a in workload.arrivals:
                session.offer(a)
        stats = session.stats()["engine"]["stats"]
        assert got == {p: by_phase.get(p, []) for p in range(1, n_phases + 1)}
        assert stats["drain"]["driven_phases"] < n_phases // 4
        assert stats["coalescing"]["mean_run_length"] > 8

    @pytest.mark.parametrize("fault", ["vertex", "on_retired"])
    def test_a_fault_in_a_driven_phase_fails_the_session(self, monkeypatch, fault):
        workload = grid_backlog(self.TICKS)
        raised_on, seen = [], []

        class Boom(Exception):
            pass

        poisoned = workload.program.behaviors["L1_0"]
        healthy = poisoned.on_execute

        def on_execute(ctx):
            if fault == "vertex" and ctx.phase == 5:
                raised_on.append(threading.current_thread())
                raise Boom("poisoned")
            return healthy(ctx)

        def on_retired(phase, ts, entries):
            seen.append(phase)
            if fault == "on_retired" and phase == 5:
                raised_on.append(threading.current_thread())
                raise Boom("on_retired failed at phase 5")

        monkeypatch.setattr(poisoned, "on_execute", on_execute)
        session = self._session(workload, on_retired)
        session.start()
        # Phase 5 failed inside the put that sealed it: the very next
        # sealing offer, of phase 6, is refused.
        assert self._offer_slowly(session, workload.arrivals) == 4 * 6
        session._engine_thread.join(timeout=60)
        assert not session._engine_thread.is_alive()
        assert raised_on == [threading.current_thread()]
        with pytest.raises(ServeError, match="engine failed"):
            session.offer(workload.arrivals[0])
        if fault == "vertex":
            with pytest.raises(VertexExecutionError, match="poisoned") as caught:
                session.close()
            assert (caught.value.vertex, caught.value.phase) == ("L1_0", 5)
            assert seen == [1, 2, 3, 4]
        else:
            with pytest.raises(Boom, match="phase 5"):
                session.close()
            assert seen == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("engine", ["parallel", "process"])
    def test_a_refused_flush_raises_instead_of_losing_its_phase(self, engine):
        workload = grid_backlog(4)
        session = ServeSession(
            workload.program,
            ServeConfig(engine=engine, wait=workload.wait, quantum=workload.quantum),
        )
        session.start()
        for a in workload.arrivals:
            session.offer(a)  # seals phases 1-3; tick 3 waits for the flush
        # A phase put around the session takes the number the flush needs.
        session.feed.put([PhaseInput(4, 99.0, {})])
        with pytest.raises(ServeError, match="expected phase 5, got 4"):
            session.close(drain=True)
        assert not session._engine_thread.is_alive()


class TestDrivenPhasesThreaded(TestDrivenPhases):
    """The threaded engine's coordinator holds the same contract."""

    ENGINE = "parallel"
    test_a_refused_flush_raises_instead_of_losing_its_phase = None


class TestIngestEdges:
    def _event(self, ts, source, value, arrival=None):
        return ArrivingEvent(
            Event(ts, source, value),
            arrival=ts if arrival is None else arrival,
        )

    def test_backpressure_surfaces_and_is_counted(self, keyed_workload):
        cfg = ServeConfig(wait=100.0, max_buffered=1)
        with ServeSession(keyed_workload.program, cfg) as session:
            src = next(iter(keyed_workload.key_of_source))
            session.offer(self._event(0.0, src, {"amount": 1.0}))
            with pytest.raises(BackpressureError):
                session.offer(self._event(5.0, src, {"amount": 1.0}))
            # Wall-clock sealing drains the buffer; ingest resumes.
            assert session.advance_watermark(1.0) == 1
            result = session.offer(self._event(5.0, src, {"amount": 1.0}))
            assert result["accepted"]
        serve = session.stats()["serve"]
        assert serve["buffer_rejects"] == 1
        assert serve["backpressure_stalls"] >= 1
        assert validate_serve_stats(serve) == []

    def test_late_event_reported_not_fatal(self, keyed_workload):
        cfg = ServeConfig(wait=0.0)
        with ServeSession(keyed_workload.program, cfg) as session:
            src = next(iter(keyed_workload.key_of_source))
            session.offer(self._event(0.0, src, {"amount": 1.0}))
            session.offer(self._event(5.0, src, {"amount": 1.0}, arrival=5.0))
            result = session.offer(
                self._event(0.0, src, {"amount": 2.0}, arrival=6.0)
            )
            assert not result["accepted"]
            assert result["late"]
        assert session.stats()["serve"]["late_events"] == 1

    def test_offer_body_parses_ndjson(self, keyed_workload):
        src = next(iter(keyed_workload.key_of_source))
        with ServeSession(keyed_workload.program, ServeConfig(wait=2.0)) as s:
            result = s.offer_body(
                '{"timestamp": 0.0, "source": "%s", "value": {"amount": 3.0}}'
                % src
            )
            assert (result.accepted, result.bad_line) == (1, 0)
            assert s.offer_body("not json").bad_line == 1
            missing = s.offer_body('\n{"timestamp": 1.0}')  # no source
            assert missing.bad_line == 2
            assert "'source'" in missing.error
            # The arrival defaults to the timestamp; an infinite one is
            # the timestamp's fault.
            infinite = s.offer_body(
                '{"timestamp": 1e400, "source": "%s", "value": 1}' % src
            )
            assert infinite.bad_line == 1
            assert "'timestamp'" in infinite.error
        assert s.stats()["serve"]["events_accepted"] == 1

    def test_events_for_names_that_are_not_sources_are_rejected(
        self, keyed_workload
    ):
        # Regression: the buffer counted them, and they could seal a
        # phase of their own, but no vertex ever read them.
        program = keyed_workload.program
        inner = next(n for n in program.graph.vertices()
                     if program.graph.predecessors(n))
        with ServeSession(program, ServeConfig(wait=2.0)) as s:
            for name in ("nosuch", inner):
                with pytest.raises(ServeError, match="not a source vertex"):
                    s.offer(self._event(0.0, name, 1.0))
                line = '{"timestamp": 0.0, "source": "%s", "value": 1}' % name
                out = s.offer_body(line)
                assert (out.accepted, out.bad_line) == (0, 1)
                assert "not a source vertex" in out.error
        serve = s.stats()["serve"]
        assert serve["events_accepted"] == 0
        assert serve["phases_ingested"] == 0

    def test_offer_after_close_rejected(self, keyed_workload):
        session = ServeSession(keyed_workload.program, ServeConfig())
        session.start()
        session.close()
        with pytest.raises(ServeError):
            session.offer(self._event(0.0, "txn[acct00]", {"amount": 1.0}))

    def test_close_is_idempotent(self, keyed_workload):
        session = ServeSession(keyed_workload.program, ServeConfig())
        session.start()
        first = session.close()
        second = session.close()
        assert first["serve"]["phases_retired"] == 0
        assert second["serve"] == first["serve"]


class TestSpotChecker:
    def test_detects_tampered_records(self, keyed_workload, keyed_workload_oracle):
        from repro.ingest import ReorderBuffer
        from repro.core.serial import SerialExecutor

        buf = ReorderBuffer(
            wait=keyed_workload.wait, quantum=keyed_workload.quantum
        )
        phases = []
        for a in keyed_workload.arrivals:
            phases.extend(buf.offer(a))
        phases.extend(buf.flush())
        serial = SerialExecutor(keyed_workload_oracle.program).run(phases)
        entries_of = {}
        for name, recs in serial.records.items():
            for phase, value in recs:
                entries_of.setdefault(phase, []).append((name, value))

        checker = OracleSpotChecker(keyed_workload.program, sample_every=1)
        for pi in phases:
            good = entries_of.get(pi.phase, [])
            if pi.phase == phases[-1].phase and good:
                tampered = [(n, ("tampered",)) for n, _ in good]
                assert checker.observe(pi, tampered) is False
            else:
                assert checker.observe(pi, good) is True
        assert checker.failed in (0, 1)
        if checker.failed:
            assert checker.mismatches  # a sample of the divergence is kept

    def test_sampling_skips_unsampled_phases(self, keyed_workload):
        checker = OracleSpotChecker(keyed_workload.program, sample_every=1000)
        from repro.events import PhaseInput

        verdicts = [
            checker.observe(PhaseInput(p, float(p), {}), [])
            for p in range(1, 10)
        ]
        assert verdicts == [None] * 9
        assert checker.checked == 0


class TestCurrentRss:
    @pytest.mark.parametrize("platform,unit", [("darwin", 1), ("linux", 1024)])
    def test_peak_rss_fallback_reads_the_platform_unit(
        self, monkeypatch, platform, unit
    ):
        # Without /proc the peak RSS stands in; ru_maxrss is in KiB on
        # Linux but in bytes on macOS (once read 1024x too large there).
        def no_proc(*_args, **_kwargs):
            raise FileNotFoundError("/proc/self/status")

        monkeypatch.setattr(session_module, "open", no_proc, raising=False)
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(
            resource, "getrusage", lambda _who: SimpleNamespace(ru_maxrss=5000)
        )
        assert session_module.current_rss_bytes() == 5000 * unit


class TestConfigValidation:
    def test_bad_engine_rejected(self):
        with pytest.raises(ServeError):
            ServeConfig(engine="gpu")

    def test_bad_capacities_rejected(self):
        with pytest.raises(ServeError):
            ServeConfig(feed_capacity=0)
