"""The derived set views and the batched-vs-singular completion paths —
on both schedulers."""

from __future__ import annotations

from repro.core.reference import ReferenceScheduler
from repro.core.state import SchedulerState
from repro.graph.model import ComputationGraph
from repro.graph.numbering import number_graph

SCHEDULERS = (SchedulerState, ReferenceScheduler)


def chain_state(scheduler, n: int = 4):
    g = ComputationGraph()
    names = [f"v{i}" for i in range(n)]
    g.add_vertices(names)
    for a, b in zip(names, names[1:]):
        g.add_edge(a, b)
    return scheduler(number_graph(g))


class TestSnapshotCaching:
    """The set views are snapshots of the state at the time of the call."""

    def test_snapshots_track_mutations(self):
        for scheduler in SCHEDULERS:
            st = chain_state(scheduler)
            st.start_phase()
            before = st.ready_set()
            assert before == frozenset({(1, 1)}) and st.is_ready((1, 1))
            st.complete_execution(1, 1, [2])
            assert st.ready_set() == frozenset({(2, 1)})
            assert not st.is_ready((1, 1))
            assert before == frozenset({(1, 1)})  # the old snapshot is a copy

    def test_in_flight_phases_is_complete_suffix(self):
        for scheduler in SCHEDULERS:
            st = chain_state(scheduler, 3)
            st.start_phase()
            st.start_phase()
            assert st.in_flight_phases() == [1, 2]
            for p in (1, 2):
                st.complete_execution(1, p, [2])
                st.complete_execution(2, p, [3])
                st.complete_execution(3, p, [])
            assert st.in_flight_phases() == []
            assert st.complete_phase_count == 2


class TestBatchedCompletionEquivalence:
    """Satellite: ``complete_execution`` (singular) and
    ``complete_executions`` (batch) must drive identical ready-set
    evolution from identical states."""

    def test_singular_delegates_to_batch(self):
        for scheduler in SCHEDULERS:
            st1 = chain_state(scheduler)
            st2 = chain_state(scheduler)
            st1.start_phase()
            st2.start_phase()
            r1 = st1.complete_execution(1, 1, [2])
            r2 = st2.complete_executions([(1, 1, [2])])
            assert r1 == r2
            assert st1.ready_set() == st2.ready_set()
            assert st1.partial_set() == st2.partial_set()
            assert st1.full_set() == st2.full_set()

    def test_batch_matches_singular_loop(self):
        nb = number_graph(
            ComputationGraph.from_edges(
                [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
            )
        )
        a, b, c, d = (nb.index_of[name] for name in "abcd")
        for scheduler in SCHEDULERS:
            sa, sb = scheduler(nb), scheduler(nb)
            for st in (sa, sb):
                st.start_phase()
                st.start_phase()
            # Make (b,1) and (c,1) simultaneously ready on both states.
            ready_a = sa.complete_execution(a, 1, [b, c])
            ready_b = sb.complete_execution(a, 1, [b, c])
            assert ready_a == ready_b

            singular = []
            for v, p in ready_a:
                singular.extend(sa.complete_execution(v, p, [d]))
            batched = sb.complete_executions([(v, p, [d]) for v, p in ready_b])

            assert sorted(singular) == sorted(batched)
            assert sa.ready_set() == sb.ready_set()
            assert sa.partial_set() == sb.partial_set()
            assert sa.full_set() == sb.full_set()
            assert sa.in_flight_phases() == sb.in_flight_phases()
            assert sa.executed_pairs == sb.executed_pairs

    def test_full_run_evolution_identical(self):
        # Drive two chain states phase-interleaved to quiescence, one
        # completing pairs one at a time, one batching everything ready;
        # the observable set evolution must coincide at every boundary.
        for scheduler in SCHEDULERS:
            sa = chain_state(scheduler, 4)
            sb = chain_state(scheduler, 4)
            evolution_a, evolution_b = [], []
            pend_a = list(sa.start_phase()) + list(sa.start_phase())
            pend_b = list(sb.start_phase()) + list(sb.start_phase())
            while pend_a or pend_b:
                new_a = []
                for v, p in pend_a:
                    new_a.extend(
                        sa.complete_execution(v, p, [v + 1] if v < sa.N else [])
                    )
                evolution_a.append((sa.ready_set(), sa.full_set()))
                pend_a = new_a
                pend_b = list(
                    sb.complete_executions(
                        [(v, p, [v + 1] if v < sb.N else []) for v, p in pend_b]
                    )
                )
                evolution_b.append((sb.ready_set(), sb.full_set()))
            assert evolution_a == evolution_b
            assert sa.all_started_complete() and sb.all_started_complete()
