"""Tests that the invariant checker actually catches corrupted states."""

import pytest

from repro.core.invariants import InvariantChecker
from repro.core.reference import ReferenceScheduler
from repro.errors import InvariantViolation
from repro.graph.generators import fig3_graph
from repro.graph.numbering import number_graph


def healthy_state() -> ReferenceScheduler:
    nb = number_graph(fig3_graph())
    st = ReferenceScheduler(nb)
    st.start_phase()
    st.complete_execution(1, 1, [3])
    return st


class TestHealthyStates:
    def test_clean_state_passes(self):
        checker = InvariantChecker()
        checker.check(healthy_state())
        assert checker.checks_run == 1
        assert checker.violations == []

    def test_initial_state_passes(self):
        nb = number_graph(fig3_graph())
        InvariantChecker().check(ReferenceScheduler(nb))

    def test_repr(self):
        c = InvariantChecker()
        c.check(healthy_state())
        assert "checks=1" in repr(c)


class TestCorruptionDetection:
    def test_pair_missing_from_full(self):
        st = healthy_state()
        st._full.discard((2, 1))
        with pytest.raises(InvariantViolation, match="full set"):
            InvariantChecker().check(st)

    def test_pair_missing_from_partial(self):
        st = healthy_state()
        st._partial.discard((3, 1))
        with pytest.raises(InvariantViolation, match="partial set"):
            InvariantChecker().check(st)

    def test_spurious_full_pair(self):
        st = healthy_state()
        st._full.add((5, 1))
        with pytest.raises(InvariantViolation):
            InvariantChecker().check(st)

    def test_ready_not_min_phase(self):
        st = healthy_state()
        st.start_phase()  # (1,2),(2,2) full; (1,2) ready, (2,2) not
        st._ready.add((2, 2))  # corrupt: (2,1) is the min phase for v2
        with pytest.raises(InvariantViolation, match="ready"):
            InvariantChecker().check(st)

    def test_ready_missing(self):
        st = healthy_state()
        st._ready.discard((2, 1))
        with pytest.raises(InvariantViolation, match="ready"):
            InvariantChecker().check(st)

    def test_corrupted_x_value(self):
        st = healthy_state()
        st._x[1] = 3  # too high: (2,1) and (3,1) still pending
        with pytest.raises(InvariantViolation):
            InvariantChecker().check(st)

    def test_clamp_violation(self):
        st = healthy_state()
        st.start_phase()
        st.complete_execution(1, 2, [])
        st._x[2] = st.x(1) + 1
        with pytest.raises(InvariantViolation):
            InvariantChecker().check(st)

    def test_msg_for_unstarted_phase(self):
        st = healthy_state()
        st._msg.add((1, 5))
        with pytest.raises(InvariantViolation, match="pmax"):
            InvariantChecker().check(st)

    def test_msg_for_bad_vertex(self):
        st = healthy_state()
        st._msg.add((99, 1))
        with pytest.raises(InvariantViolation):
            InvariantChecker().check(st)

    def test_msg_on_finished_pair(self):
        st = healthy_state()
        st._msg.add((1, 1))  # vertex 1 already finished phase 1
        with pytest.raises(InvariantViolation, match="already-finished"):
            InvariantChecker().check(st)

    def test_partial_full_overlap(self):
        st = healthy_state()
        st._partial.add((2, 1))  # also in full
        with pytest.raises(InvariantViolation):
            InvariantChecker().check(st)

    def test_corrupted_x0(self):
        st = healthy_state()
        st._x[0] = 3
        with pytest.raises(InvariantViolation, match="x_0"):
            InvariantChecker().check(st)


class TestNonStrictMode:
    def test_collects_without_raising(self):
        st = healthy_state()
        st._full.discard((2, 1))
        st._x[0] = 3
        checker = InvariantChecker(strict=False)
        checker.check(st)
        assert len(checker.violations) >= 2
