"""Phase retirement: the scheduler-state seam of continuous operation.

Retirement releases per-phase scheduler state for a contiguous complete
prefix.  The correctness argument: a retired phase is complete, complete
means x_p = N (every vertex determined), so every predicate about a
retired phase is answered by the prefix bound alone — no per-phase
storage needed.  These tests pin that contract plus the absolute
completion-log cursor that lets engines trim the log they have already
consumed.
"""

import pytest

from repro.core.invariants import InvariantChecker
from repro.core.reference import ReferenceScheduler
from repro.core.state import SchedulerState
from repro.errors import SchedulerError
from repro.graph.generators import chain_graph
from repro.graph.numbering import number_graph


def _chain_state(n=3, frontier="cone", checker=None):
    nb = number_graph(chain_graph(n))
    scheduler = SchedulerState if frontier == "cone" else ReferenceScheduler
    return scheduler(nb, checker=checker)


def _per_phase_footprint(state):
    """How many per-phase entries the scheduler holds, completion log
    included."""
    if isinstance(state, ReferenceScheduler):
        held = len(state._x) + len(state._pending) + len(state._partial_by_phase)
    else:
        held = len(state._phases)
    return held + len(state.completed_log)


def _run_phase(state, p, n=3):
    for v in range(1, n + 1):
        succs = [v + 1] if v < n else []
        state.complete_execution(v, p, succs)


@pytest.fixture(params=["cone", "global"])
def frontier(request):
    return request.param


class TestRetirePrefix:
    def test_retire_complete_prefix(self, frontier):
        state = _chain_state(frontier=frontier)
        for _ in range(3):
            state.start_phase()
        for p in (1, 2):
            _run_phase(state, p)
        assert state.retire_phases_upto(2) == 2
        assert state.retired_upto == 2
        # Predicates for retired phases answer from the prefix bound.
        if frontier == "global":
            assert state.x(1) == 3 and state.x(2) == 3
        assert state.phase_complete(1) and state.phase_complete(2)
        assert not state.phase_complete(3)

    def test_retire_is_idempotent_and_monotonic(self, frontier):
        state = _chain_state(frontier=frontier)
        state.start_phase()
        _run_phase(state, 1)
        assert state.retire_phases_upto(1) == 1
        assert state.retire_phases_upto(1) == 0  # already retired
        with pytest.raises(SchedulerError):
            state.retire_phases_upto(2)  # phase 2 never started

    def test_cannot_retire_incomplete_phase(self, frontier):
        state = _chain_state(frontier=frontier)
        state.start_phase()
        state.start_phase()
        _run_phase(state, 1)
        state.complete_execution(1, 2, [2])  # phase 2 only partially done
        with pytest.raises(SchedulerError):
            state.retire_phases_upto(2)
        assert state.retire_phases_upto(1) == 1

    def test_retirement_releases_per_phase_state(self, frontier):
        state = _chain_state(frontier=frontier)
        for _ in range(4):
            state.start_phase()
        for p in range(1, 5):
            _run_phase(state, p)
        state.retire_phases_upto(4)
        state.trim_completed_log(state.completed_total)
        # Only x_0 is left: nothing is held for a retired phase.
        assert _per_phase_footprint(state) == (frontier == "global")

    def test_scheduling_continues_after_retirement(self, frontier):
        state = _chain_state(frontier=frontier)
        state.start_phase()
        _run_phase(state, 1)
        state.retire_phases_upto(1)
        state.start_phase()
        _run_phase(state, 2)
        assert state.phase_complete(2)
        state.retire_phases_upto(2)
        assert state.retired_upto == 2

    def test_long_prefix_keeps_state_flat(self, frontier):
        state = _chain_state(frontier=frontier)
        sizes = []
        for p in range(1, 201):
            state.start_phase()
            _run_phase(state, p)
            state.retire_phases_upto(p)
            state.trim_completed_log(state.completed_total)
            sizes.append(_per_phase_footprint(state))
        assert max(sizes) <= max(sizes[:5]) + 1  # no growth over 200 phases


class TestCompletionLogCursor:
    def test_completed_since_and_trim(self, frontier):
        state = _chain_state(frontier=frontier)
        for _ in range(3):
            state.start_phase()
        for p in (1, 2, 3):
            _run_phase(state, p)
        assert state.completed_since(0) == [1, 2, 3]
        assert state.completed_total == 3
        state.trim_completed_log(2)
        # Absolute cursors survive the trim.
        assert state.completed_since(2) == [3]
        assert state.completed_total == 3

    def test_cursor_below_base_rejected(self, frontier):
        state = _chain_state(frontier=frontier)
        state.start_phase()
        _run_phase(state, 1)
        state.trim_completed_log(1)
        with pytest.raises(SchedulerError):
            state.completed_since(0)
        with pytest.raises(SchedulerError):
            state.trim_completed_log(0)

    def test_trim_beyond_total_rejected(self, frontier):
        state = _chain_state(frontier=frontier)
        state.start_phase()
        _run_phase(state, 1)
        with pytest.raises(SchedulerError):
            state.trim_completed_log(5)


class TestRetirementWithChecker:
    """The invariant checker must accept every retired configuration."""

    def test_checker_accepts_retirement(self, frontier):
        state = _chain_state(frontier=frontier, checker=InvariantChecker())
        for p in range(1, 31):
            state.start_phase()
            _run_phase(state, p)
            if p % 3 == 0:
                state.retire_phases_upto(p)
                state.trim_completed_log(state.completed_total)
        assert state.retired_upto == 30

    def test_checker_with_pipelined_retirement(self, frontier):
        # Retire the prefix while later phases are still in flight.
        state = _chain_state(frontier=frontier, checker=InvariantChecker())
        state.start_phase()
        state.start_phase()
        state.start_phase()
        _run_phase(state, 1)
        state.complete_execution(1, 2, [2])
        state.retire_phases_upto(1)
        state.complete_execution(2, 2, [3])
        state.complete_execution(3, 2, [])
        state.complete_execution(1, 3, [2])
        state.complete_execution(2, 3, [3])
        state.complete_execution(3, 3, [])
        assert state.phase_complete(2) and state.phase_complete(3)
        state.retire_phases_upto(3)
        assert state.retired_upto == 3
