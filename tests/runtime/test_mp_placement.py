"""Where the process engine executes a vertex, and that its state moves
exactly once.

:class:`~repro.runtime.mp.ProcessEngine` starts every vertex in the
coordinator and promotes it to its sticky worker — one-way — once
``DEAR_RUNS`` runs in a row each cost the coordinator more CPU to
compute than marshalling them would.  These tests script both sides of
that comparison (:class:`~tests.runtime.regime_clock.ProcessRegimeClock`):
a frame costs ``WIRE`` seconds, compute nothing until a vertex spends
``DEAR``.  Every vertex notes the process each phase ran in; the note is
behaviour state, so the worker's entries come home with its final state.
"""

import itertools
import os
import time

import pytest

from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.state import ADAPTIVE_RUN_CEILING
from repro.core.vertex import Vertex
from repro.errors import EngineError, VertexExecutionError
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph
from repro.models.basic import Recorder
from repro.models.sensors import RandomWalkSensor
from repro.models.statistics import ZScoreDetector
from repro.runtime.core import DEAR_RUNS
from repro.runtime.feed import PhaseFeed
from repro.runtime.mp import ProcessEngine
from repro.runtime.mp.lifecycle import ProcessWorkerPool

from tests.models.test_pickling import normalized
from tests.runtime.regime_clock import ProcessRegimeClock

WIRE = 50e-6  # what marshalling one frame costs on the scripted clock
DEAR = 5e-3  # a scripted compute cost far above it
ONE_AT_A_TIME = 1  # phases in flight: runs of one
CLOCK = ProcessRegimeClock(WIRE)  # the coordinator's; a worker's copy is inert


class Scripted:
    """Mixin: compute reads dear in the phases ``dear`` holds, and every
    phase notes the process it ran in."""

    dear = ()

    def on_execute(self, ctx):
        if ctx.phase in self.dear:
            CLOCK.spend(DEAR)
        self.__dict__.setdefault("where", {})[ctx.phase] = os.getpid()
        return super().on_execute(ctx)


class Walk(Scripted, RandomWalkSensor):
    pass


class Detect(Scripted, ZScoreDetector):
    pass


class Sink(Scripted, Recorder):
    pass


class ThirdOfAStake(Detect):
    """Each member costs 0.4 frames: a run staked at one frame's worth
    is cut after its third."""

    def on_execute(self, ctx):
        CLOCK.spend(0.4 * WIRE)
        return super().on_execute(ctx)


class EighthOfATrip(Detect):
    """Past the first ``ADAPTIVE_RUN_CEILING`` phases each member costs
    an eighth of a frame."""

    def on_execute(self, ctx):
        if ctx.phase > ADAPTIVE_RUN_CEILING:
            CLOCK.spend(WIRE / 8)
        return super().on_execute(ctx)


class SixteenthOfAFrame(Detect):
    """Each member costs a sixteenth of a frame."""

    def on_execute(self, ctx):
        CLOCK.spend(WIRE / 16)
        return super().on_execute(ctx)


class BoomAtFive(Vertex):
    def on_execute(self, ctx):
        if ctx.phase == 5:
            raise ValueError("kaboom")
        return ("ok", ctx.phase)


class Napper(Vertex):
    """Sleeps (wall time, no CPU): ``naps`` seconds per phase in the
    coordinator, ``far_nap`` once, at phase 2, in a worker."""

    def __init__(self, naps=0.0, far_nap=0.0, dear=()):
        self.naps, self.far_nap, self.dear = naps, far_nap, dear
        self.home = os.getpid()

    def on_execute(self, ctx):
        if ctx.phase in self.dear:
            CLOCK.spend(DEAR)
        if os.getpid() == self.home:
            time.sleep(self.naps)
        elif ctx.phase == 2:
            time.sleep(self.far_nap)
        return ("ok", ctx.phase)


def chain(detector=Detect, **dear):
    """walk -> detect -> sink; ``dear[name]`` are that vertex's dear phases."""
    g = ComputationGraph("chain")
    for name in ("walk", "detect", "sink"):
        g.add_vertex(name)
    g.add_edge("walk", "detect")
    g.add_edge("detect", "sink")
    behaviors = {
        "walk": Walk(seed=7, step=1.0),
        "detect": detector(window=6, threshold=1.2),
        "sink": Sink(),
    }
    for name, phases in dear.items():
        behaviors[name].dear = phases
    return Program(g, behaviors)


def solo(behavior):
    g = ComputationGraph("solo")
    g.add_vertex("a")
    return Program(g, {"a": behavior})


def signals(n):
    return [PhaseInput(p, float(p)) for p in range(1, n + 1)]


def state(program):
    """Behaviour state by value, without the where-it-ran notes."""
    out = {}
    for name, beh in program.behaviors.items():
        snapshot = beh.snapshot_state()
        snapshot.pop("where", None)
        out[name] = normalized(snapshot)
    return out


def oracle(program, phases):
    serial = SerialExecutor(program).run(phases)
    return serial.records, state(program)


def here(program, name):
    """The phases of *name* that ran in this (the coordinator's) process."""
    where = program.behaviors[name].where
    return sorted(p for p, pid in where.items() if pid == os.getpid())


def waves(phases, sizes):
    """A closed feed of *phases* that holds each wave of *sizes* back
    until every phase before it has retired, and the sink that tells it
    (``sink.entries``: phase -> sorted records)."""
    bounds = set(itertools.accumulate(sizes))
    entries = {}

    class Waves(PhaseFeed):
        def get(self, timeout=None):
            taken = len(phases) - self.depth
            if taken in bounds and len(entries) < taken:
                return None
            return super().get(timeout)

    def sink(p, ts, retired):
        entries[p] = sorted(retired)

    sink.entries = entries
    return Waves.of(phases), sink


def by_phase(records):
    """Oracle records (vertex -> [(phase, value)]) as sink entries."""
    out = {}
    for name, log in records.items():
        for p, value in log:
            out.setdefault(p, []).append((name, value))
    return {p: sorted(entries) for p, entries in out.items()}


@pytest.fixture
def clock():
    CLOCK.now = 0.0
    with CLOCK.scripted(dear_runs=DEAR_RUNS):
        yield CLOCK


@pytest.fixture
def finals(monkeypatch):
    """The FinalStateMsg of every worker of the runs of this test."""
    seen = []
    shutdown = ProcessWorkerPool.shutdown

    def recording(pool, *args, **kwargs):
        out = shutdown(pool, *args, **kwargs)
        seen.extend(out.values())
        return out

    monkeypatch.setattr(ProcessWorkerPool, "shutdown", recording)
    return seen


class TestPlacementRule:
    def test_cheap_vertices_never_leave_the_coordinator(self, clock, finals):
        program = chain()
        records, final = oracle(program, signals(20))
        result = ProcessEngine(
            program, 2, max_in_flight_phases=ONE_AT_A_TIME
        ).run(signals(20))
        assert result.records == records and state(program) == final
        stats = result.stats
        assert stats["ipc"]["promoted"] == []
        assert stats["ipc_round_trips"] == stats["drain"]["pooled_runs"] == 0
        assert stats["per_worker_executions"][2] == result.execution_count
        assert here(program, "detect") == list(range(1, 21))
        # A worker holds only what was promoted to it: nothing comes home.
        assert [final.states for final in finals] == [{}, {}]

    def test_one_slow_sample_moves_nothing(self, clock):
        # A 5 ms stall in a single run of a microsecond vertex — a lost
        # quantum, a collector pause — and, later, as many in a row as
        # the streak allows short of promotion.
        streak = DEAR_RUNS
        stalls = (4, *range(8, 8 + streak - 1))
        program = chain(detect=stalls)
        records, final = oracle(program, signals(16))
        result = ProcessEngine(
            program, 2, max_in_flight_phases=ONE_AT_A_TIME
        ).run(signals(16))
        assert result.records == records and state(program) == final
        assert result.stats["ipc"]["promoted"] == []
        assert result.stats["drain"]["pooled_runs"] == 0

    def test_a_vertex_that_turns_dear_is_promoted_within_the_streak(
        self, clock, finals
    ):
        streak, k = DEAR_RUNS, 5
        program = chain(detect=range(k, 100))
        records, final = oracle(program, signals(16))
        result = ProcessEngine(
            program, 2, max_in_flight_phases=ONE_AT_A_TIME
        ).run(signals(16))
        assert result.records == records and state(program) == final
        assert result.stats["ipc"]["promoted"] == ["detect"]
        # Resident through its streak-th dear run, never again after it.
        assert here(program, "detect") == list(range(1, k + streak))
        assert here(program, "walk") == list(range(1, 17))
        assert result.stats["drain"]["pooled_runs"] == 16 - (k + streak - 1)
        # Only the promoted vertex's state comes home.
        assert sorted(n for final in finals for n in final.states) == ["detect"]

    def test_a_trip_is_priced_at_the_judged_runs_length(self, clock):
        # Every frame costs WIRE whatever its length.  The trip is first
        # priced on a run of 64 (the source's, over a first wave of 64
        # phases); then one phase comes per retirement, so detect
        # computes runs of one at WIRE / 8 each.  A trip of one member
        # costs a whole frame, so they stay here.  Regression: the trip
        # was priced at WIRE / 64 a member, and detect was promoted after
        # three such runs.
        burst, trickle = ADAPTIVE_RUN_CEILING, 8
        program = chain(EighthOfATrip)
        phases = signals(burst + trickle)
        records, final = oracle(program, phases)
        feed, sink = waves(phases, [burst] + [1] * trickle)
        result = ProcessEngine(program, 2).run_feed(feed, sink=sink, retire=True)
        assert result.stats["ipc"]["promoted"] == []
        assert result.stats["drain"]["pooled_runs"] == 0
        assert here(program, "detect") == list(range(1, burst + trickle + 1))
        assert sink.entries == {
            p: by_phase(records).get(p, []) for p in range(1, len(phases) + 1)
        }
        assert state(program) == final

    def test_a_run_longer_than_any_priced_is_priced_again(
        self, clock, monkeypatch
    ):
        # A frame costs WIRE plus WIRE / 4 a member.  Phase 1 comes alone,
        # so the first trip priced is a run of one: a frame's worth, with
        # nothing said about members.  Then 192 phases come at once, in
        # runs of 64, and detect computes WIRE / 16 a member: 4 WIRE a
        # run against a 17 WIRE trip.  Held to the price of the run of
        # one (1.25 WIRE) those runs read dear and detect was promoted.
        monkeypatch.setattr(CLOCK, "member", WIRE / 4)
        program = chain(SixteenthOfAFrame)
        phases = signals(1 + 3 * ADAPTIVE_RUN_CEILING)
        records, final = oracle(program, phases)
        feed, sink = waves(phases, [1, len(phases) - 1])
        result = ProcessEngine(program, 2).run_feed(feed, sink=sink, retire=True)
        assert result.stats["ipc"]["promoted"] == []
        assert result.stats["drain"]["handovers"] == 0
        assert result.stats["coalescing"]["mean_run_length"] > 32
        assert sink.entries == {
            p: by_phase(records).get(p, []) for p in range(1, len(phases) + 1)
        }
        assert state(program) == final

    def test_pricing_leaves_the_wire_stats_alone(self, clock):
        # The unsent pricing frames never cross the pipe: nothing that
        # stayed here is counted on the wire.
        result = ProcessEngine(chain(), 2).run(signals(20))
        assert result.stats["ipc"]["promoted"] == []
        wire = result.stats["serialization_bytes"]
        assert wire["runs"] == wire["result_batches"] == {
            "messages": 0, "bytes": 0,
        }


class TestStateMovesOnce:
    @pytest.mark.parametrize("vertex", ["walk", "detect"])
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_promotion_after_k_resident_phases_ends_oracle_equal(
        self, clock, vertex, k
    ):
        # A seeded source (its RNG rides the behaviour) and a windowed
        # detector: the state k resident phases left continues worker-side.
        program = chain(**{vertex: range(k, 100)})
        records, final = oracle(program, signals(14))
        result = ProcessEngine(
            program, 2, max_in_flight_phases=ONE_AT_A_TIME
        ).run(signals(14))
        assert result.stats["ipc"]["promoted"] == [vertex]
        moved = k + DEAR_RUNS
        assert here(program, vertex) == list(range(1, moved))
        assert sorted(program.behaviors[vertex].where) == list(range(1, 15))
        assert result.records == records
        assert state(program) == final

    def test_a_cut_run_commits_its_prefix_and_ships_its_tail_once(self):
        # A batch: the source's one run of 9 prices the trip at WIRE / 9 a
        # member, so detect's run of 9 stakes WIRE and, at 0.4 WIRE a
        # member, is cut after three.  Dear at once (a streak of one):
        # members 1-3 are committed from here, 4-9 cross the pipe — once,
        # behind the state the first three left.
        CLOCK.now = 0.0
        program = chain(ThirdOfAStake)
        serial = SerialExecutor(program).run(signals(9))
        final = state(program)
        with CLOCK.scripted(dear_runs=1):
            result = ProcessEngine(program, 2).run(signals(9))
        assert here(program, "detect") == [1, 2, 3]
        assert sorted(program.behaviors["detect"].where) == list(range(1, 10))
        assert result.stats["ipc"]["promoted"] == ["detect"]
        assert result.stats["drain"]["handovers"] == 1
        assert sorted(result.executions) == sorted(serial.executions)
        assert result.records == serial.records
        assert state(program) == final


class TestFaultsAndTheWatchdog:
    @pytest.mark.parametrize("in_flight", [ONE_AT_A_TIME, None])
    def test_a_resident_fault_names_its_phase_and_keeps_the_prefix(
        self, in_flight
    ):
        # The real clock: a microsecond vertex never leaves the
        # coordinator, whether its phases come as runs of one or as one
        # run of eight.
        engine = ProcessEngine(
            solo(BoomAtFive()), 1, max_in_flight_phases=in_flight
        )
        sunk = []
        with pytest.raises(VertexExecutionError, match="kaboom") as exc_info:
            engine.run_feed(
                PhaseFeed.of(signals(8)), retire=True,
                sink=lambda p, ts, entries: sunk.append((p, entries)),
            )
        assert (exc_info.value.vertex, exc_info.value.phase) == ("a", 5)
        assert sunk == [(p, [("a", ("ok", p))]) for p in (1, 2, 3, 4)]
        assert engine.run(signals(3)).execution_count == 3

    def test_resident_work_is_progress_to_the_wedge_watchdog(self):
        # "far" is promoted at its first pair and its worker then takes
        # 0.7 s over the tail; meanwhile "near" keeps the coordinator
        # busy for 10 x 0.05 s, longer than join_timeout.  Regression:
        # only worker frames counted as progress, so the first poll
        # after the resident run read "run wedged".
        g = ComputationGraph("pair")
        g.add_vertex("far")
        g.add_vertex("near")
        program = Program(g, {
            "far": Napper(far_nap=0.7, dear=(1,)),
            "near": Napper(naps=0.05),
        })
        CLOCK.now = 0.0
        with CLOCK.scripted(dear_runs=1):
            result = ProcessEngine(program, 1, join_timeout=0.4).run(signals(10))
        assert result.stats["ipc"]["promoted"] == ["far"]
        assert result.execution_count == 20

    def test_a_stranded_phase_is_a_stall_not_a_spin(self, strand):
        # Phase 2 of "detect" loses its completion, so phases 2.. can
        # never complete.  Regression: ``run`` raised at once, but on a
        # drained feed ``run_feed`` polled the feed forever (``get``
        # returns at once there) — this feed fails the test instead.
        deadline = time.monotonic() + 10.0

        class Watched(PhaseFeed):
            def get(self, timeout=None):
                assert time.monotonic() < deadline, "polling a drained feed"
                return super().get(timeout)

        program = chain()
        strand(program.numbering.index_of["detect"], 2)
        engine = ProcessEngine(program, 1, join_timeout=3.0)
        with pytest.raises(EngineError, match="stalled before quiescence"):
            engine.run(signals(5))
        with pytest.raises(EngineError, match="stalled before quiescence"):
            engine.run_feed(Watched.of(signals(5)))

    def test_a_silent_worker_still_trips_the_watchdog(self):
        program = solo(Napper(far_nap=5.0, dear=(1,)))
        CLOCK.now = 0.0
        with CLOCK.scripted(dear_runs=1):
            with pytest.raises(EngineError, match="run wedged"):
                ProcessEngine(program, 1, join_timeout=0.3).run(signals(4))
