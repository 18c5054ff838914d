"""The race monitor: clean runs stay clean, violations are caught and
stamped with their schedule step."""

import pytest

from repro.core.reference import ReferenceScheduler
from repro.core.state import SchedulerState
from repro.errors import InvariantViolation
from repro.graph.generators import fig3_graph
from repro.graph.numbering import number_graph
from repro.testing.monitor import RaceMonitor
from repro.testing.schedule import RoundRobinPolicy, VirtualScheduler


@pytest.fixture
def numbering():
    return number_graph(fig3_graph())


def drive_clean(state):
    """The Figure-3 execution sequence (a correct schedule)."""
    state.start_phase()
    state.complete_execution(1, 1, [3])
    state.start_phase()
    state.complete_execution(1, 2, [])
    state.complete_execution(2, 1, [3, 4])
    state.complete_execution(2, 2, [3, 4])
    state.complete_execution(3, 1, [5])
    state.complete_execution(4, 1, [5, 6])


class TestCleanRuns:
    def test_fig3_sequence_is_clean(self, numbering):
        monitor = RaceMonitor()
        state = ReferenceScheduler(numbering, checker=monitor)
        drive_clean(state)
        assert monitor.ok
        assert monitor.checks_run == 8
        assert "clean" in monitor.report()
        monitor.raise_if_violations()  # no-op when clean

    def test_tracer_protocol_lifecycle_clean(self, numbering):
        monitor = RaceMonitor()
        state = ReferenceScheduler(numbering, checker=monitor)
        pairs = state.start_phase()
        monitor.phase_started(1)
        for pair in pairs:
            monitor.enqueued(pair)
        v, p = pairs[0]
        monitor.execute_begin((v, p), worker=0)
        for pair in state.complete_execution(v, p, [3]):
            monitor.enqueued(pair)
        monitor.execute_end((v, p), worker=0)
        assert monitor.ok


class TestViolations:
    def test_double_enqueue_flagged(self, numbering):
        monitor = RaceMonitor()
        monitor.enqueued((1, 1))
        monitor.enqueued((1, 1))
        assert not monitor.ok
        assert "enqueued more than once" in monitor.report()

    def test_execute_begin_outside_ready_flagged(self, numbering):
        monitor = RaceMonitor()
        state = ReferenceScheduler(numbering, checker=monitor)
        state.start_phase()  # runs check(), capturing the state
        monitor.execute_begin((6, 1), worker=1)  # (6,1) is not ready yet
        assert not monitor.ok
        assert "neither ready nor run-claimed" in monitor.report()

    def test_double_execution_flagged(self, numbering):
        monitor = RaceMonitor()
        monitor.execute_end((2, 1), worker=0)
        monitor.execute_end((2, 1), worker=1)
        assert not monitor.ok
        assert "twice" in monitor.report()

    def test_a_second_begin_is_flagged_unless_a_handover(self, numbering):
        # (1, 2) is claimed behind the run head (1, 1).  A cut run hands
        # its claimed, unended tail over, and that tail begins again; any
        # other second begin is a double dispatch.
        monitor = RaceMonitor()
        state = SchedulerState(numbering, checker=monitor)
        state.start_phase()
        state.start_phase()
        assert state.claim_run(1, 1) == [1, 2]
        monitor.execute_begin((1, 1), worker=0)
        monitor.execute_begin((1, 2), worker=0)
        monitor.execute_begin((1, 2), worker=1)  # the handed-over tail
        assert monitor.ok
        monitor.execute_begin((1, 1), worker=1)  # ready, not claimed
        monitor.execute_end((1, 2), worker=1)
        monitor.execute_begin((1, 2), worker=1)  # claimed, but ended
        assert [v.description for v in monitor.violations] == [
            "pair (1, 1) began executing twice (worker 1)",
            "pair (1, 2) began executing twice (worker 1)",
        ]

    def test_a_begin_in_the_open_sweep_phase_is_licensed(self, numbering):
        monitor = RaceMonitor()
        state = SchedulerState(numbering, checker=monitor)
        state.start_phase()
        state.open_sweep()
        monitor.execute_begin((3, 1), worker=0)  # no message yet
        assert monitor.ok
        state.close_sweep(0, 0)
        monitor.execute_begin((4, 1), worker=0)
        assert "neither ready nor run-claimed" in monitor.report()

    def test_a_begin_in_any_phase_of_a_three_phase_window_is_licensed(
        self, numbering
    ):
        monitor = RaceMonitor()
        state = SchedulerState(numbering, checker=monitor)
        for _ in range(3):
            state.start_phase()
        assert state.open_sweep()[:2] == (1, 3)
        # Source 1 over the window, then (3, q) — no message yet in any.
        for pair in [(1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (3, 3)]:
            monitor.execute_begin(pair, worker=0)
        monitor.execute_end((1, 1), worker=0)
        assert monitor.ok
        monitor.execute_begin((3, 2), worker=0)  # twice inside the sweep
        # The sweep ends early: the unended (1, 2) begins again as the
        # head of a run, (1, 3) as its claimed extension; (3, 3) is
        # neither ready nor claimed, and outside the window now.
        state.close_sweep(1, 1)
        state.complete_execution(1, 1, [3])
        assert state.claim_run(1, 2) == [2, 3]
        monitor.execute_begin((1, 2), worker=0)
        monitor.execute_begin((1, 3), worker=0)
        monitor.execute_begin((3, 3), worker=0)
        assert [v.description for v in monitor.violations] == [
            "pair (3, 2) began executing twice (worker 0)",
            f"pair (3, 3) began executing while neither ready nor run-claimed "
            f"(worker 0); ready was {sorted(state.ready_set())}",
        ]

    def test_non_contiguous_phase_start_flagged(self, numbering):
        monitor = RaceMonitor()
        monitor.phase_started(1)
        monitor.phase_started(3)
        assert not monitor.ok

    def test_raise_if_violations(self, numbering):
        monitor = RaceMonitor()
        monitor.enqueued((1, 1))
        monitor.enqueued((1, 1))
        with pytest.raises(InvariantViolation):
            monitor.raise_if_violations()

    def test_monitor_does_not_raise_from_check(self, numbering):
        # Unlike the strict InvariantChecker, the monitor must keep the
        # engine coherent: check() records and returns.
        monitor = RaceMonitor()
        state = ReferenceScheduler(numbering, checker=monitor)
        state.start_phase()
        monitor._executed.add((1, 1))  # fake an executed pair still live
        state.complete_execution(2, 1, [3, 4])  # triggers check()
        assert not monitor.ok
        assert "reappeared" in monitor.report()


class TestStepStamping:
    def test_violation_carries_schedule_step_and_tail(self):
        sched = VirtualScheduler(policy=RoundRobinPolicy())
        monitor = RaceMonitor().attach(sched)

        # Manufacture some schedule history.
        from repro.testing.schedule import VirtualBackend

        backend = VirtualBackend(sched)
        t = backend.thread(
            target=lambda: [sched.switch(f"p{i}") for i in range(4)], name="w"
        )
        t.start()
        sched.run_all()
        monitor.enqueued((1, 1))
        monitor.enqueued((1, 1))
        v = monitor.violations[0]
        assert v.step == sched.steps - 1
        assert v.trace_tail
        assert "step" in monitor.report()
