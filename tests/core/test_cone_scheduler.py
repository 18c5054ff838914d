"""The engines' scheduler (``repro.core.state.SchedulerState``): one
negative test per check its hot path keeps, and the invariant checker
holding its representation to account.

The run-claim checks (head must be ready or claimed, an executed head is
a duplicate) live in ``tests/runtime/test_coalescing.py``; retiring past
an incomplete phase in ``tests/core/test_retirement.py``; random legal
operation sequences under the strict checker in
``tests/core/test_state_properties.py``.
"""

import random

import pytest
from hypothesis import given, settings, strategies

from repro.core.invariants import InvariantChecker
from repro.core.state import (
    ADAPTIVE_RUN_CEILING, CLAIMED, FULL, PARTIAL, SchedulerState,
)
from repro.errors import DuplicateExecutionError, InvariantViolation, SchedulerError
from repro.graph.generators import random_dag
from repro.graph.model import ComputationGraph
from repro.graph.numbering import number_graph


def two_cones(checker=True):
    """Sources 1 and 2, each feeding its own sink: 1 -> 3, 2 -> 4."""
    nb = number_graph(ComputationGraph.from_edges([("a", "c"), ("b", "d")]))
    assert [nb.index_of[name] for name in "abcd"] == [1, 2, 3, 4]
    return SchedulerState(nb, checker=InvariantChecker() if checker else None)


class TestHotPathChecks:
    def test_completing_a_never_ready_pair(self):
        st = two_cones()
        st.start_phase()
        with pytest.raises(SchedulerError, match="not in the ready set"):
            st.complete_execution(3, 1, [])  # no message ever arrived
        st.start_phase()
        with pytest.raises(SchedulerError, match="not in the ready set"):
            st.complete_execution(1, 2, [])  # full, but (1, 1) is ahead
        with pytest.raises(SchedulerError):
            st.complete_execution(1, 3, [])  # phase not started
        with pytest.raises(SchedulerError):
            st.complete_execution(9, 1, [])  # no such vertex

    def test_completing_an_executed_pair_is_a_duplicate(self):
        st = two_cones()
        st.start_phase()
        st.start_phase()
        st.complete_execution(1, 1, [3])
        with pytest.raises(DuplicateExecutionError):
            st.complete_execution(1, 1, [3])
        # ... also once its phase is complete and holds no state at all.
        st.complete_executions([(2, 1, []), (3, 1, [])])
        assert st.phase_complete(1)
        with pytest.raises(DuplicateExecutionError):
            st.complete_execution(1, 1, [3])

    @pytest.mark.parametrize("target", [1, 2, 0, 5])
    def test_an_output_must_go_to_a_higher_index_in_range(self, target):
        st = two_cones()
        st.start_phase()
        with pytest.raises(SchedulerError, match="lower to higher"):
            st.complete_execution(2, 1, [target])

    def test_a_message_for_a_determined_pair(self):
        # (3, 1) is determined without executing once its one predecessor
        # ran silently; a message that names it afterwards would wait
        # forever, so it is an error rather than a stranded partial pair.
        st = two_cones()
        st.start_phase()
        st.complete_execution(1, 1, [])
        assert not st.phase_complete(1) and not st.msg(3, 1)
        with pytest.raises(SchedulerError, match="after the pair was determined"):
            st.complete_execution(2, 1, [3])

    def test_a_pair_never_enters_ready_twice(self):
        st = two_cones(checker=False)
        st.start_phase()
        assert st.is_ready((1, 1))
        st._phases[1].status[1] = FULL  # a lost update
        with pytest.raises(DuplicateExecutionError, match="second time"):
            st.start_phase()

    def test_an_undet_counter_never_goes_negative(self):
        st = two_cones(checker=False)
        st.start_phase()
        st._phases[1].undet[3] = 0  # as if vertex 1 had been counted already
        with pytest.raises(SchedulerError, match="went negative"):
            st.complete_execution(1, 1, [3])


def chain3():
    """a -> b -> c."""
    nb = number_graph(ComputationGraph.from_edges([("a", "b"), ("b", "c")]))
    assert [nb.index_of[name] for name in "abc"] == [1, 2, 3]
    return SchedulerState(nb, checker=InvariantChecker())


class TestTheSweep:
    """A window of phases — the lone phase in flight, or the oldest
    phases in flight while the oldest is fresh — executed vertex by
    vertex in index order and committed at once (``ScheduleCore.sweep``):
    the one place a full pair that never entered ready may complete."""

    def test_a_window_needs_one_phase_or_a_fresh_oldest_phase(self):
        st = two_cones()
        with pytest.raises(SchedulerError, match="a fresh oldest phase"):
            st.open_sweep()
        assert not st.sweepable()
        st.start_phase()
        st.start_phase()
        assert st.sweepable() and st.open_sweep()[:2] == (1, 2)
        st.close_sweep(0, 0)
        # The oldest of two phases is no longer fresh once (1, 1) ran.
        st.complete_execution(1, 1, [3])
        assert not st.sweepable()
        with pytest.raises(SchedulerError, match=r"not \[1, 2\]"):
            st.open_sweep()
        assert st.sweeping == (0, 0)

    def test_the_open_phase_commits_once_in_index_order(self):
        st = chain3()
        st.start_phase()
        first, last, waiting = st.open_sweep()
        assert (first, last, list(waiting), st.sweeping) == (
            1, 1, [0, 1, 0, 0], (1, 1),
        )
        # (2, 1) and (3, 1) never entered ready: each is full at its
        # settled gate once the members before it are completed.
        assert st.complete_executions([(1, 1, [2]), (2, 1, [3]), (3, 1, [])]) == []
        st.close_sweep(3, 3)
        assert st.phase_complete(1) and st.sweeping == (0, 0)
        assert st.coalescing_stats() == {
            "runs_scheduled": 3, "pairs_coalesced": 0, "mean_run_length": 1.0,
        }
        with pytest.raises(DuplicateExecutionError):
            st.complete_execution(2, 1, [3])

    def test_a_failed_member_leaves_the_prefix_committed(self):
        st = chain3()
        st.start_phase()
        st.open_sweep()
        st.complete_executions([(1, 1, [2])])  # (2, 1) raised
        st.close_sweep(1, 1)
        assert st.ready_set() == {(2, 1)} and not st.phase_complete(1)

    def test_without_an_open_sweep_a_full_pair_is_refused(self):
        st = chain3()
        st.start_phase()
        with pytest.raises(SchedulerError, match="not in the ready set"):
            st.complete_executions([(1, 1, [2]), (2, 1, [3])])

    def test_an_open_sweep_licenses_no_pair_out_of_order(self):
        st = chain3()
        st.start_phase()
        st.open_sweep()
        with pytest.raises(SchedulerError, match="not in the ready set"):
            st.complete_executions([(2, 1, [3])])  # no message yet

    def test_the_whole_sweep_closes_without_waves(self):
        st = chain3()
        st.start_phase()
        st.open_sweep()
        assert st.complete_sweep([(1, 1, [2]), (2, 1, [3]), (3, 1, [])]) == []
        st.close_sweep(3, 3)
        assert st.phase_complete(1) and st.sweeping == (0, 0)
        assert st.completed_log == [1] and st.executed_pairs == 3
        assert st.coalescing_stats()["runs_scheduled"] == 3
        with pytest.raises(DuplicateExecutionError):
            st.complete_execution(2, 1, [3])

    def test_a_whole_sweep_that_leaves_a_pair_waiting_is_refused(self):
        st = chain3()
        st.start_phase()
        st.open_sweep()
        with pytest.raises(SchedulerError, match="left 1 pairs waiting"):
            st.complete_sweep([(1, 1, [2])])  # (2, 1) never ran

    def test_a_whole_sweep_takes_its_members_in_index_order_once(self):
        for batch, error, match in [
            ([(2, 1, [3])], SchedulerError, "next pair of the sweep"),
            ([(1, 1, [2]), (1, 1, [2])], DuplicateExecutionError, "already"),
            ([(1, 2, [2])], SchedulerError, "next pair of the sweep"),
            ([(1, 1, [1])], SchedulerError, "lower to higher"),
        ]:
            st = chain3()
            st.start_phase()
            st.open_sweep()
            with pytest.raises(error, match=match):
                st.complete_sweep(batch)
        st = chain3()
        with pytest.raises(SchedulerError, match="no sweep is open"):
            st.complete_sweep([])

    def test_a_sweep_behind_a_completed_later_phase_settles_through_pmax(self):
        # s -> a, s -> b: phase 1 leaves (a, 1) waiting, phase 2 is silent
        # past s and completes first; the sweep of phase 1 settles every
        # vertex through phase 2.
        nb = number_graph(ComputationGraph.from_edges([("s", "a"), ("s", "b")]))
        st = SchedulerState(nb, checker=InvariantChecker())
        st.start_phase()
        assert st.complete_execution(1, 1, [2]) == [(2, 1)]
        st.start_phase()
        st.complete_execution(1, 2, [])
        assert st.in_flight_phases() == [1] and st.phase_complete(2)
        first, last, waiting = st.open_sweep()
        assert (first, last, list(waiting)) == (1, 1, [0, 0, 1, 0])
        st.complete_sweep([(2, 1, [])])
        assert st._settled == [0, 2, 2, 2] and st.completed_log == [2, 1]

    def test_a_window_takes_its_members_vertex_by_vertex_in_phase_order(self):
        # Two fresh phases of a -> b -> c: a window of two.
        for batch in [
            [(1, 2, [2]), (1, 1, [2])],  # phases of a vertex descend
            [(1, 1, [2]), (2, 1, [3]), (1, 2, [2])],  # phase by phase
            [(1, 1, [2]), (1, 3, [2])],  # outside the window
        ]:
            st = chain3()
            st.start_phase()
            st.start_phase()
            assert st.open_sweep()[:2] == (1, 2)
            with pytest.raises(SchedulerError, match="next pair of the sweep"):
                st.complete_sweep(batch)

    def test_a_window_is_at_most_the_run_ceiling_and_fires_the_next_phase(self):
        # 66 fresh phases of a -> b -> c: the window is the oldest 64; the
        # source of phase 65 is ready after it, and full in phase 66.
        twins = [chain3(), chain3()]
        for twin in twins:
            for _ in range(ADAPTIVE_RUN_CEILING + 2):
                twin.start_phase()
        first, last, waiting = twins[0].open_sweep()
        twins[1].open_sweep()
        assert (first, last) == (1, ADAPTIVE_RUN_CEILING)
        assert list(waiting) == [0, (1 << ADAPTIVE_RUN_CEILING) - 1, 0, 0]
        batch = [(v, q, [v + 1] if v < 3 else [])
                 for v in (1, 2, 3) for q in range(first, last + 1)]
        wave_free, waves = twins
        assert wave_free.complete_sweep(batch) == [(1, last + 1)]
        assert waves.complete_executions(batch) == [(1, last + 1)]
        for twin in twins:
            twin.close_sweep(3, len(batch))
        for name in TWINNED:
            assert getattr(wave_free, name) == getattr(waves, name), name
        assert wave_free.in_flight_phases() == [last + 1, last + 2]
        assert wave_free._settled == [0, last, last, last]
        assert wave_free._full_count == [0, 2, 0, 0]

    @settings(max_examples=300, deadline=None)
    @given(
        n=strategies.integers(min_value=1, max_value=12),
        edge_prob=strategies.floats(min_value=0.1, max_value=0.8),
        graph_seed=strategies.integers(min_value=0, max_value=10**6),
        seed=strategies.integers(min_value=0, max_value=10**6),
        phases=strategies.integers(min_value=1, max_value=6),
        emit_prob=strategies.floats(min_value=0.0, max_value=1.0),
    )
    def test_the_wave_free_close_ends_where_the_waves_end(
        self, n, edge_prob, graph_seed, seed, phases, emit_prob
    ):
        # Twins run one random schedule until a window opens — a single
        # phase left in flight (possibly part-executed, possibly behind a
        # later phase that completed first), or fresh phases — then sweep
        # it: one closes it wave-free, the other commits the same
        # vertex-major batch through the waves.
        nb = number_graph(random_dag(n, edge_prob=edge_prob, seed=graph_seed))
        twins = [SchedulerState(nb, checker=InvariantChecker()) for _ in range(2)]
        succs = twins[0].cones.succs
        rng = random.Random(seed)
        ready, started = [], 0

        def emitted(v, p):
            # Later phases are quieter, and their pairs go first, so that
            # one often completes while an earlier phase is in flight.
            odds = emit_prob if p == 1 else emit_prob / 4
            return [w for w in succs[v] if rng.random() < odds]

        while True:
            if twins[0].sweepable() and (
                started == phases or not ready or rng.random() < 0.25
            ):
                break
            in_flight = twins[0].in_flight_phases()
            if not in_flight or (started < phases and rng.random() < 0.5):
                news = [twin.start_phase() for twin in twins]
                started += 1
            else:
                latest = max(range(len(ready)), key=lambda i: ready[i][1])
                v, p = ready.pop(
                    latest if rng.random() < 0.7 else rng.randrange(len(ready))
                )
                outs = emitted(v, p)
                news = [twin.complete_execution(v, p, outs) for twin in twins]
            assert news[0] == news[1]
            ready += news[0]
        opened = [twin.open_sweep() for twin in twins]
        assert opened[0] == opened[1]
        first, last, waiting = opened[0]
        batch = []
        for v in range(1, n + 1):
            for i, q in enumerate(range(first, last + 1)):
                if waiting[v] >> i & 1:
                    batch.append((v, q, emitted(v, q)))
                    for w in batch[-1][2]:
                        waiting[w] |= 1 << i
        wave_free, waves = twins
        fired = wave_free.complete_sweep(batch)
        assert waves.complete_executions(batch) == fired
        for twin in twins:
            twin.close_sweep(len({v for v, _, _ in batch}), len(batch))
            assert twin.sweeping == (0, 0)
            assert not set(twin.in_flight_phases()) & set(range(first, last + 1))
        for name in TWINNED:
            assert getattr(wave_free, name) == getattr(waves, name), name
        assert wave_free.coalescing_stats() == waves.coalescing_stats()
        assert wave_free.ready_set() == waves.ready_set()
        assert wave_free.full_set() == waves.full_set()


#: What a wave-free close and the waves over the same batch must agree on.
TWINNED = ("_settled", "completed_log", "executed_pairs", "_ready_upto",
           "_full_count", "complete_phase_count")


class TestTheCheckerJudgesTheRepresentation:
    """Every incrementally maintained piece, corrupted, is a violation."""

    def healthy(self):
        st = two_cones(checker=False)
        st.start_phase()
        st.start_phase()
        st.complete_execution(1, 1, [3])
        st.claim_run(3, 1)
        InvariantChecker().check(st)
        return st

    def violation(self, st):
        with pytest.raises(InvariantViolation) as caught:
            InvariantChecker().check(st)
        return str(caught.value)

    def test_views_are_the_status_bytes(self):
        st = self.healthy()
        assert st.ready_set() == {(2, 1), (3, 1), (1, 2)}
        assert st.full_set() == st.ready_set() | {(2, 2)}
        assert st.partial_set() == st.run_claimed_set() == frozenset()
        assert st.msg(2, 2) and not st.msg(1, 1) and not st.msg(4, 1)

    def test_status_bytes(self):
        st = self.healthy()
        st._phases[1].status[3] = PARTIAL  # full by definition
        assert "full set diverges" in self.violation(st)
        st = self.healthy()
        st._phases[1].status[2] = FULL  # at its gate: ready by definition
        assert "ready set diverges" in self.violation(st)
        st = self.healthy()
        st._phases[2].status[4] = CLAIMED  # a message from nowhere
        assert "waiting count" in self.violation(st)

    def test_counters(self):
        for corrupt, expected in [
            (lambda st: st._phases[1].undet.__setitem__(4, 0), "undet counters"),
            (lambda st: setattr(st._phases[1], "det_count", 3), "determined count"),
            (lambda st: setattr(st._phases[2], "waiting", 1), "waiting count"),
            (lambda st: st._settled.__setitem__(1, 0), "settled pointers"),
            (lambda st: st._full_count.__setitem__(2, 1), "full backlogs"),
        ]:
            st = self.healthy()
            corrupt(st)
            assert expected in self.violation(st)

    def test_completion_bookkeeping(self):
        st = self.healthy()
        st.complete_phase_count = 1
        assert "complete_phase_count" in self.violation(st)
        st = self.healthy()
        st.completed_log.append(1)
        assert "completion log" in self.violation(st)
