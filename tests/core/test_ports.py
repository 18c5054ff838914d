"""Tests for edge channels and the Δ latching semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ports import NO_VALUE, EdgeChannel, EdgeStore, stable_equal
from repro.errors import SchedulerError
from repro.graph.generators import fig3_graph
from repro.graph.numbering import number_graph


def read_at(ch, phase):
    """``(value, changed)`` as a consumer executing *phase* observes it:
    the run of one through :meth:`EdgeChannel.read_run`."""
    inputs, changed = [{}], [set()]
    ch.read_run("in", [phase], inputs, changed)
    return inputs[0].get("in", NO_VALUE), "in" in changed[0]


class TestEdgeChannel:
    def test_empty_reads_no_value(self):
        ch = EdgeChannel()
        value, changed = read_at(ch, 5)
        assert value is NO_VALUE
        assert not changed

    def test_read_exact_phase_is_changed(self):
        ch = EdgeChannel()
        ch.send(3, "x")
        value, changed = read_at(ch, 3)
        assert value == "x" and changed

    def test_read_later_phase_latches(self):
        ch = EdgeChannel()
        ch.send(3, "x")
        value, changed = read_at(ch, 7)
        assert value == "x" and not changed

    def test_read_earlier_phase_sees_nothing(self):
        ch = EdgeChannel()
        ch.send(3, "x")
        value, changed = read_at(ch, 2)
        assert value is NO_VALUE and not changed

    def test_pipelined_sender_history(self):
        """A sender several phases ahead must not clobber values the
        consumer has yet to read — the pipelining subtlety."""
        ch = EdgeChannel()
        ch.send(1, "a")
        ch.send(2, "b")
        ch.send(5, "c")
        assert read_at(ch, 1) == ("a", True)
        assert read_at(ch, 2) == ("b", True)
        assert read_at(ch, 3) == ("b", False)
        assert read_at(ch, 4) == ("b", False)
        assert read_at(ch, 5) == ("c", True)

    def test_send_must_be_increasing(self):
        ch = EdgeChannel()
        ch.send(2, "x")
        with pytest.raises(SchedulerError):
            ch.send(2, "y")
        with pytest.raises(SchedulerError):
            ch.send(1, "z")

    def test_send_after_consume_rejected(self):
        ch = EdgeChannel()
        ch.send(1, "a")
        ch.consume_upto(3)
        with pytest.raises(SchedulerError):
            ch.send(2, "late")

    def test_consume_retains_latched_value(self):
        ch = EdgeChannel()
        ch.send(1, "a")
        ch.send(2, "b")
        ch.consume_upto(2)
        # "b" is the latched previous value for phase 3.
        assert read_at(ch, 3) == ("b", False)
        assert ch.pending_entries == 1

    def test_consume_gc_drops_superseded(self):
        ch = EdgeChannel()
        for p in range(1, 6):
            ch.send(p, p)
        ch.consume_upto(4)
        assert ch.pending_entries == 2  # the phase-4 latch + phase-5 entry
        assert read_at(ch, 5) == (5, True)

    def test_consume_is_monotone(self):
        ch = EdgeChannel()
        ch.send(1, "a")
        ch.consume_upto(3)
        ch.consume_upto(2)  # no-op, must not resurrect anything
        assert read_at(ch, 4) == ("a", False)

    def test_none_is_a_valid_message_value(self):
        ch = EdgeChannel()
        ch.send(1, None)
        value, changed = read_at(ch, 1)
        assert value is None and changed

    @given(st.lists(st.integers(1, 30), unique=True, min_size=1, max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_property_read_returns_latest_leq(self, phases):
        phases.sort()
        ch = EdgeChannel()
        for p in phases:
            ch.send(p, f"val{p}")
        for q in range(0, 32):
            earlier = [p for p in phases if p <= q]
            value, changed = read_at(ch, q)
            if earlier:
                assert value == f"val{earlier[-1]}"
                assert changed == (earlier[-1] == q)
            else:
                assert value is NO_VALUE and not changed

    @given(
        st.lists(st.integers(1, 30), unique=True, max_size=15),
        st.lists(st.integers(0, 32), unique=True, min_size=1, max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_one_walk_reads_what_point_reads_do(self, sent, run):
        # Non-consecutive run phases, as claim_run produces when it steps
        # over determined pairs; a silent channel; entries past the run.
        ch = EdgeChannel()
        for p in sorted(sent):
            ch.send(p, f"val{p}")
        run.sort()
        inputs = [{} for _ in run]
        changed = [set() for _ in run]
        ch.read_run("in", run, inputs, changed)
        for k, q in enumerate(run):
            value, is_new = read_at(ch, q)
            assert inputs[k].get("in", NO_VALUE) == value
            assert ("in" in changed[k]) == is_new


class TestChangedAtPhaseBoundaries:
    """Satellite audit of ``read_run``'s *changed* bit (ports.py): a message
    is "changed" at exactly its own phase, never before, never after — and
    retirement GC must neither fabricate nor lose that bit."""

    def test_changed_is_exact_not_leq(self):
        ch = EdgeChannel()
        ch.send(4, "x")
        assert read_at(ch, 3) == (NO_VALUE, False)   # before the boundary
        assert read_at(ch, 4) == ("x", True)          # at the boundary
        assert read_at(ch, 5) == ("x", False)         # after: latched only

    def test_changed_survives_consume_at_same_phase(self):
        # consume_upto(p) retains the newest entry <= p as the latch; a
        # re-read at exactly p (e.g. a sibling consumer pass) must still
        # see changed=True — GC is about memory, not semantics.
        ch = EdgeChannel()
        ch.send(3, "x")
        ch.consume_upto(3)
        assert read_at(ch, 3) == ("x", True)
        assert read_at(ch, 4) == ("x", False)

    def test_gc_does_not_fabricate_changed_for_gap_phases(self):
        ch = EdgeChannel()
        ch.send(1, "a")
        ch.send(2, "b")
        ch.consume_upto(2)
        # The surviving latch entry carries phase 2: changed only there.
        assert read_at(ch, 2) == ("b", True)
        assert read_at(ch, 3) == ("b", False)

    def test_boundary_with_phase_gap(self):
        # A sender that skipped phases 2..4: the phase-5 boundary flips
        # changed exactly at 5, with the phase-1 value latched in between.
        ch = EdgeChannel()
        ch.send(1, "a")
        ch.send(5, "b")
        assert read_at(ch, 1) == ("a", True)
        assert read_at(ch, 2) == ("a", False)
        assert read_at(ch, 4) == ("a", False)
        assert read_at(ch, 5) == ("b", True)
        assert read_at(ch, 6) == ("b", False)

    def test_changed_after_interleaved_consume_and_send(self):
        ch = EdgeChannel()
        ch.send(1, "a")
        ch.consume_upto(1)
        ch.send(2, "b")
        assert read_at(ch, 2) == ("b", True)
        ch.consume_upto(2)
        assert read_at(ch, 2) == ("b", True)
        assert read_at(ch, 3) == ("b", False)

    def test_suppression_latch_survives_gc(self):
        # last_sent is the Δ-elision latch; GC keeps the newest entry, so
        # the latch is stable across consume_upto.
        ch = EdgeChannel()
        assert ch.last_sent is NO_VALUE
        ch.send(1, "a")
        ch.send(2, "b")
        ch.consume_upto(2)
        assert ch.last_sent == "b"
        ch.consume_upto(9)
        assert ch.last_sent == "b"

    def test_would_suppress_requires_a_latch(self):
        # The latch test commit runs inline: stable_equal against
        # last_sent.  A first message finds NO_VALUE, which equals nothing.
        ch = EdgeStore(number_graph(fig3_graph())).channel(1, 3)
        assert not stable_equal(ch.last_sent, "a")
        assert not stable_equal(ch.last_sent, NO_VALUE)
        ch.send(1, "a")
        assert stable_equal(ch.last_sent, "a")
        assert not stable_equal(ch.last_sent, "b")
        # GC must not disturb the latch.
        ch.consume_upto(1)
        assert stable_equal(ch.last_sent, "a")


class TestEdgeStore:
    def make(self) -> EdgeStore:
        return EdgeStore(number_graph(fig3_graph()))

    def test_adjacency_tables(self):
        es = self.make()
        assert es.preds[3] == [1, 2]
        assert es.succs[4] == [5, 6]
        assert es.preds[1] == []

    def test_channel_tables_are_the_adjacency_with_names(self):
        es = self.make()
        assert es.in_channels[0] == es.out_channels[0] == []
        for v in range(1, 7):
            assert es.in_channels[v] == [
                (f"v{u}", es.channel(u, v)) for u in es.preds[v]
            ]
            assert es.out_channels[v] == [
                (f"v{w}", w, es.channel(v, w)) for w in es.succs[v]
            ]

    def test_deliver_and_gather(self):
        es = self.make()
        es.channel(1, 3).send(1, "from1")
        es.channel(2, 3).send(1, "from2")
        es.channel(2, 4).send(1, "x")
        inputs, changed = [{}], [set()]
        for pred, ch in es.in_channels[3]:
            ch.read_run(pred, [1], inputs, changed)
        assert inputs == [{"v1": "from1", "v2": "from2"}]
        assert changed == [{"v1", "v2"}]

    def test_gather_latched_from_earlier_phase(self):
        es = self.make()
        es.channel(1, 3).send(1, "old")
        inputs, changed = [{}], [set()]
        for pred, ch in es.in_channels[3]:
            ch.read_run(pred, [2], inputs, changed)
        assert inputs == [{"v1": "old"}]
        assert changed == [set()]

    def test_unknown_edge_rejected(self):
        es = self.make()
        with pytest.raises(SchedulerError):
            es.channel(1, 6)

    def test_consume_and_memory(self):
        es = self.make()
        for p in range(1, 5):
            es.channel(1, 3).send(p, p)
        before = es.total_pending_entries()
        es.settle_run(3, 4, sent=0, suppressed=0)
        assert es.total_pending_entries() < before
        # Latched value still readable afterwards.
        assert read_at(es.channel(1, 3), 9) == (4, False)


class TestEdgeStoreMemoryCounters:
    def test_live_and_peak_entries(self):
        es = EdgeStore(number_graph(fig3_graph()))
        assert es.live_entries == 0 and es.peak_entries == 0
        es.channel(1, 3).send(1, "a")
        es.settle_run(1, 1, sent=1, suppressed=0)
        es.channel(2, 3).send(1, "b")
        es.channel(2, 4).send(1, "c")
        es.settle_run(2, 1, sent=2, suppressed=0)
        assert es.live_entries == 3
        assert es.peak_entries == 3
        es.settle_run(3, 1, sent=0, suppressed=0)  # latches retained
        assert es.live_entries == 3
        es.channel(1, 3).send(2, "a2")
        es.settle_run(1, 2, sent=1, suppressed=0)
        es.channel(2, 3).send(2, "b2")
        es.channel(2, 4).send(2, "c2")
        es.settle_run(2, 2, sent=2, suppressed=0)
        assert es.peak_entries == 6
        # Drops the superseded phase-1 entries on 1->3 and 2->3; the peak
        # is sampled after a run's sends and before its GC.
        es.settle_run(3, 2, sent=0, suppressed=1)
        assert es.live_entries == 4
        assert es.peak_entries == 6
        assert es.suppressed_messages == 1
        assert es.live_entries == es.total_pending_entries()

    def test_consume_upto_returns_dropped_count(self):
        ch = EdgeChannel()
        for p in range(1, 6):
            ch.send(p, p)
        assert ch.consume_upto(4) == 3  # keeps the phase-4 latch + phase-5
        assert ch.consume_upto(4) == 0  # idempotent

    def test_engine_reports_peak(self):
        from repro.core.program import Program
        from repro.runtime.engine import ParallelEngine
        from repro.streams.generators import phase_signals
        from repro.streams.workloads import sum_behaviors
        from repro.graph.generators import chain_graph

        g = chain_graph(3)
        prog = Program(g, sum_behaviors(g, seed=1))
        res = ParallelEngine(prog, num_threads=2).run(phase_signals(20))
        assert res.stats["edge_entries_peak"] >= 1
        assert res.stats["edge_entries_final"] <= res.stats["edge_entries_peak"]
