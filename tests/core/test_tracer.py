"""Tests for the execution tracer and its concurrency profiles."""

from collections import Counter
from contextlib import nullcontext

import pytest

from repro.core.invariants import InvariantChecker
from repro.core.reference import ReferenceScheduler
from repro.core.tracer import (
    ExecutionTracer,
    SetSnapshot,
    max_concurrent_pairs,
    max_concurrent_phases,
)
from repro.graph.generators import fig3_graph
from repro.graph.numbering import number_graph
from repro.runtime.engine import ParallelEngine
from repro.runtime.mp import ProcessEngine
from repro.simulator.costs import CostModel
from repro.simulator.machine import SimulatedEngine
from repro.streams.workloads import grid_workload
from repro.testing.fuzz import scripted_placement


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestEventRecording:
    def test_events_in_order(self):
        clock = FakeClock()
        tr = ExecutionTracer(clock=clock)
        tr.phase_started(1)
        clock.t = 1.0
        tr.enqueued((1, 1))
        clock.t = 2.0
        tr.execute_begin((1, 1), worker=0)
        clock.t = 3.0
        tr.execute_end((1, 1), worker=0)
        kinds = [e.kind for e in tr.events]
        assert kinds == ["phase_started", "enqueued", "execute_begin", "execute_end"]
        ended = [e.pair for e in tr.events if e.kind == "execute_end"]
        assert ended == [(1, 1)]

    def test_set_clock_rebinds(self):
        tr = ExecutionTracer()
        clock = FakeClock()
        clock.t = 42.0
        tr.set_clock(clock)
        tr.phase_started(1)
        assert tr.events[0].time == 42.0

    def test_intervals_matching(self):
        clock = FakeClock()
        tr = ExecutionTracer(clock=clock)
        tr.execute_begin((1, 1))
        clock.t = 2.0
        tr.execute_begin((2, 1))
        clock.t = 3.0
        tr.execute_end((1, 1))
        clock.t = 5.0
        tr.execute_end((2, 1))
        assert tr.intervals() == [(0.0, 3.0, (1, 1)), (2.0, 5.0, (2, 1))]


class TestConcurrencyProfiles:
    def test_max_concurrent_pairs(self):
        intervals = [
            (0.0, 2.0, (1, 1)),
            (1.0, 3.0, (2, 1)),
            (2.5, 4.0, (3, 1)),
        ]
        assert max_concurrent_pairs(intervals) == 2

    def test_touching_intervals_do_not_overlap(self):
        intervals = [(0.0, 1.0, (1, 1)), (1.0, 2.0, (2, 1))]
        assert max_concurrent_pairs(intervals) == 1

    def test_distinct_phase_counting(self):
        # Two pairs of the SAME phase running together count as one phase.
        intervals = [
            (0.0, 2.0, (1, 1)),
            (0.0, 2.0, (2, 1)),
            (1.0, 3.0, (3, 2)),
        ]
        assert max_concurrent_phases(intervals) == 2
        assert max_concurrent_pairs(intervals) == 3

    def test_phase_peak_follows_the_steps(self):
        # After t=1 both phases are active; after t=2 only phase 2.
        assert max_concurrent_phases([(0.0, 2.0, (1, 1)), (1.0, 3.0, (2, 2))]) == 2
        # A phase that ends as the next begins never overlaps it.
        assert max_concurrent_phases([(0.0, 1.0, (1, 1)), (1.0, 3.0, (2, 2))]) == 1

    def test_empty(self):
        assert max_concurrent_phases([]) == 0
        assert max_concurrent_pairs([]) == 0


class TestSnapshots:
    def test_capture_sets(self):
        nb = number_graph(fig3_graph())
        st = ReferenceScheduler(nb, checker=InvariantChecker())
        st.start_phase()
        snap = SetSnapshot.of(st, "(a) phase 1 initiated")
        st.complete_execution(1, 1, [3])
        snap_b = SetSnapshot.of(st, "(b) (1,1) executed")
        assert snap.label.startswith("(a)")
        assert snap.ready == {(1, 1), (2, 1)}
        assert snap_b.label.startswith("(b)")
        assert snap_b.partial == {(3, 1)}

    def test_membership_glyph_classes(self):
        snap = SetSnapshot(
            label="x",
            partial=frozenset({(3, 1)}),
            full=frozenset({(2, 1), (4, 1)}),
            ready=frozenset({(2, 1)}),
        )
        assert snap.membership((3, 1)) == "partial"
        assert snap.membership((4, 1)) == "full"
        assert snap.membership((2, 1)) == "ready"
        assert snap.membership((5, 1)) == "none"

    def test_snapshots_are_immutable_copies(self):
        nb = number_graph(fig3_graph())
        st = ReferenceScheduler(nb)
        st.start_phase()
        snap = SetSnapshot.of(st, "before")
        st.complete_execution(1, 1, [])
        assert (1, 1) in snap.ready  # unchanged by later mutation


def phase_events(tracer, kind):
    """Phase -> (position in ``tracer.events``, time) of its *kind* event."""
    return {
        ev.pair[1]: (at, ev.time)
        for at, ev in enumerate(tracer.events)
        if ev.kind == kind
    }


class TestPhaseEvents:
    """Every phase an engine runs is traced as a ``phase_started`` and a
    later ``phase_completed`` event."""

    def test_engines_emit_completion_events(self):
        prog, phases = grid_workload(3, 3, phases=10, seed=5)
        tracer = ExecutionTracer()
        SimulatedEngine(
            prog, num_workers=2, tracer=tracer,
            cost_model=CostModel(compute_cost=1.0),
        ).run(phases)
        started = phase_events(tracer, "phase_started")
        completed = phase_events(tracer, "phase_completed")
        assert set(started) == set(completed) == set(range(1, 11))
        for p, (at, when) in completed.items():
            assert started[p][0] < at
            assert started[p][1] < when  # virtual time: every phase costs

    def test_threaded_engine_emits_completions(self):
        prog, phases = grid_workload(2, 2, phases=8, seed=6)
        tracer = ExecutionTracer()
        ParallelEngine(prog, num_threads=2, tracer=tracer).run(phases)
        started = phase_events(tracer, "phase_started")
        completed = phase_events(tracer, "phase_completed")
        assert set(started) == set(completed) == set(range(1, 9))
        for p, (at, when) in completed.items():
            assert started[p][0] < at
            assert started[p][1] <= when


ENGINES = {
    "parallel": lambda prog, tracer: ParallelEngine(prog, 2, tracer=tracer),
    "process": lambda prog, tracer: ProcessEngine(prog, 2, tracer=tracer),
    "process_remote": lambda prog, tracer: ProcessEngine(prog, 2, tracer=tracer),
    "process_lone": lambda prog, tracer: ProcessEngine(
        prog, 2, tracer=tracer, max_in_flight_phases=1,
    ),
    "simulated_global": lambda prog, tracer: SimulatedEngine(
        prog, 2, tracer=tracer, cost_model=CostModel(compute_cost=1.0),
    ),
    "simulated_cone": lambda prog, tracer: SimulatedEngine(
        prog, 2, tracer=tracer, cost_model=CostModel(compute_cost=1.0),
        frontier="cone",
    ),
}


class TestExecutionIntervals:
    """On every engine ``ScheduleCore`` sends the run events: a member
    begins at its run's claim and ends at its run's commit, by the worker
    that the run's commit is counted to."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_one_interval_per_executed_pair(self, engine):
        prog, phases = grid_workload(3, 3, phases=12, seed=7)
        tracer = ExecutionTracer()
        remote = engine == "process_remote"
        with scripted_placement() if remote else nullcontext():
            res = ENGINES[engine](prog, tracer).run(phases)
        if remote:
            assert res.stats["ipc"]["promoted"]
        if engine == "process_lone":  # every phase swept
            assert res.stats["drain"]["swept_phases"] == len(phases)
        ends = []
        begun = {}  # pair -> worker of its last begin
        for ev in tracer.events:
            if ev.kind == "execute_begin":
                begun[ev.pair] = ev.worker
            elif ev.kind == "execute_end":
                assert begun.pop(ev.pair) == ev.worker, ev
                ends.append(ev)
        assert begun == {}
        assert Counter(ev.pair for ev in ends) == Counter(res.executions)
        per_worker = res.stats["per_worker_executions"]
        assert Counter(ev.worker for ev in ends) == Counter(
            {w: n for w, n in per_worker.items() if n}
        )
