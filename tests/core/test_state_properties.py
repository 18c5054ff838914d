"""Property-based tests of the two schedulers.

A random driver plays the roles of both the environment and the workers:
at each step it either starts a phase or completes a randomly chosen ready
pair with randomly chosen outputs (respecting edge directions).  With the
invariant checker attached, every reachable state is verified against
definitions (7)-(9) — this is the executable version of the paper's
Section 3.3 correctness argument.

``TestRandomSchedules`` drives the published scheduler
(:class:`ReferenceScheduler`); ``TestRandomConeSchedules`` drives the
engines' :class:`SchedulerState` through every operation its drivers use
— run claims, whole-run and member-at-a-time commits, retirement — so
the checker's least-fixed-point re-derivation judges every intermediate
state of the status-byte representation.  ``TestWholeRunIsMemberAtATime``
runs one schedule on two of them, one committing each run whole and the
other member by member, and holds them equal after every step.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.invariants import InvariantChecker
from repro.core.reference import ReferenceScheduler
from repro.core.state import SchedulerState
from repro.graph.generators import random_dag
from repro.graph.numbering import number_graph


@st.composite
def driver_params(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    edge_prob = draw(st.floats(min_value=0.1, max_value=0.8))
    graph_seed = draw(st.integers(min_value=0, max_value=10**6))
    driver_seed = draw(st.integers(min_value=0, max_value=10**6))
    phases = draw(st.integers(min_value=1, max_value=6))
    emit_prob = draw(st.floats(min_value=0.0, max_value=1.0))
    return n, edge_prob, graph_seed, driver_seed, phases, emit_prob


def drive(n, edge_prob, graph_seed, driver_seed, phases, emit_prob):
    """Run a random schedule to quiescence; returns (state, executed list)."""
    g = random_dag(n, edge_prob=edge_prob, seed=graph_seed)
    nb = number_graph(g)
    state = ReferenceScheduler(nb, checker=InvariantChecker())
    rng = random.Random(driver_seed)
    succs = {
        nb.index_of[v]: sorted(nb.index_of[w] for w in g.successors(v))
        for v in g.vertices()
    }
    executed = []
    started = 0
    runnable = []
    while started < phases or runnable:
        start_now = started < phases and (not runnable or rng.random() < 0.3)
        if start_now:
            runnable.extend(state.start_phase())
            started += 1
            continue
        idx = rng.randrange(len(runnable))
        v, p = runnable.pop(idx)
        outputs = [w for w in succs[v] if rng.random() < emit_prob]
        runnable.extend(state.complete_execution(v, p, outputs))
        executed.append((v, p))
    return state, executed


class TestRandomSchedules:
    @given(driver_params())
    @settings(max_examples=80, deadline=None)
    def test_invariants_hold_and_quiescence_reached(self, params):
        state, executed = drive(*params)
        assert state.all_started_complete()
        assert state.partial_set() == frozenset()
        assert state.full_set() == frozenset()
        assert state.ready_set() == frozenset()

    @given(driver_params())
    @settings(max_examples=80, deadline=None)
    def test_exactly_once(self, params):
        _state, executed = drive(*params)
        assert len(executed) == len(set(executed))

    @given(driver_params())
    @settings(max_examples=80, deadline=None)
    def test_per_vertex_phase_order(self, params):
        """Each vertex executes its phases in strictly increasing order
        (serializability's per-vertex requirement)."""
        _state, executed = drive(*params)
        last = {}
        for v, p in executed:
            assert p > last.get(v, 0)
            last[v] = p

    @given(driver_params())
    @settings(max_examples=80, deadline=None)
    def test_executed_set_is_message_closed(self, params):
        """Sources execute every phase; non-sources execute exactly the
        phases for which they received at least one message.  The driver
        doesn't track messages, so check the weaker closure: every executed
        non-source pair must be justified by *some* earlier-executed
        predecessor pair of the same phase."""
        n, edge_prob, graph_seed, driver_seed, phases, emit_prob = params
        g = random_dag(n, edge_prob=edge_prob, seed=graph_seed)
        nb = number_graph(g)
        state, executed = drive(*params)
        sources = set(nb.source_indices())
        preds = {
            nb.index_of[v]: {nb.index_of[u] for u in g.predecessors(v)}
            for v in g.vertices()
        }
        executed_set = set(executed)
        for p in range(1, phases + 1):
            for s in sources:
                assert (s, p) in executed_set
        for v, p in executed_set:
            if v not in sources:
                assert any((u, p) in executed_set for u in preds[v])

    @given(driver_params())
    @settings(max_examples=40, deadline=None)
    def test_schedule_independence_of_executed_pairs_for_full_emission(self, params):
        """With emit_prob = 1 (every vertex always messages all successors)
        the executed pair set is exactly vertices x phases, regardless of
        the driver's random interleaving."""
        n, edge_prob, graph_seed, _driver_seed, phases, _emit_prob = params
        ref = None
        for driver_seed in (1, 2):
            _state, executed = drive(
                n, edge_prob, graph_seed, driver_seed, phases, 1.0
            )
            got = set(executed)
            expected = {(v, p) for v in range(1, n + 1) for p in range(1, phases + 1)}
            assert got == expected
            if ref is None:
                ref = got
            assert got == ref


def drive_cone(n, edge_prob, graph_seed, driver_seed, phases, emit_prob):
    """Random legal operation sequences on the engines' scheduler, strict
    checker attached: phases start at random moments; a random runnable
    pair (so phases complete out of order) is claimed as a run and
    committed whole or — the salvage path — a prefix member-at-a-time
    with the still-claimed tail requeued; silent members (no message)
    come with ``emit_prob``; the complete prefix is retired and the
    completion log trimmed at random.  Returns (state, executed, runs)."""
    g = random_dag(n, edge_prob=edge_prob, seed=graph_seed)
    nb = number_graph(g)
    checker = InvariantChecker(strict=True)
    state = SchedulerState(nb, checker=checker)
    rng = random.Random(driver_seed)
    succs = {v: nb.successor_indices(v) for v in range(1, n + 1)}
    phases *= 3  # runs need a started horizon to extend over
    executed, runs, runnable = [], [], []
    started = cursor = 0
    while started < phases or runnable:
        if started < phases and (not runnable or rng.random() < 0.3):
            runnable.extend(state.start_phase())
            started += 1
            continue
        v, p = runnable.pop(rng.randrange(len(runnable)))
        members = state.claim_run(v, p)
        runs.append((v, members))
        batch = [
            (v, q, [w for w in succs[v] if rng.random() < emit_prob])
            for q in members
        ]
        keep = len(batch) if rng.random() < 0.5 else rng.randint(1, len(batch))
        if keep == len(batch) and rng.random() < 0.5:
            runnable.extend(state.complete_executions(batch))
        else:
            for member in batch[:keep]:
                runnable.extend(state.complete_executions([member]))
            if keep < len(batch):
                assert state.is_run_claimed((v, members[keep]))
                runnable.append((v, members[keep]))
        executed.extend((v, q) for q in members[:keep])
        new = state.completed_since(cursor)
        cursor += len(new)
        if rng.random() < 0.3:
            prefix = state.retired_upto
            while state.phase_complete(prefix + 1):
                prefix += 1
            state.retire_phases_upto(prefix)
            state.trim_completed_log(cursor)
            checker.check(state)  # (retirement itself is not a mutation)
    assert cursor == state.completed_total == phases
    return state, executed, runs


class TestRandomConeSchedules:
    @given(driver_params())
    @settings(max_examples=120, deadline=None)
    def test_every_intermediate_state_satisfies_the_definitions(self, params):
        state, executed, runs = drive_cone(*params)
        assert state.all_started_complete()
        assert state.partial_set() == state.full_set() == frozenset()
        assert state.executed_pairs == len(executed) == len(set(executed))
        last = {}
        for v, p in executed:
            assert p > last.get(v, 0)  # per-vertex phase order
            last[v] = p
        for v, members in runs:
            assert members == sorted(set(members))
        assert state.coalescing_stats()["runs_scheduled"] == len(runs)

    @given(driver_params())
    @settings(max_examples=40, deadline=None)
    def test_full_emission_executes_every_pair(self, params):
        n, edge_prob, graph_seed, driver_seed, phases, _ = params
        _, executed, _ = drive_cone(
            n, edge_prob, graph_seed, driver_seed, phases, 1.0
        )
        assert set(executed) == {
            (v, p) for v in range(1, n + 1) for p in range(1, 3 * phases + 1)
        }


def drive_twins(n, edge_prob, graph_seed, driver_seed, phases, emit_prob):
    """One random schedule on two schedulers: ``whole`` commits each
    claimed run as one batch, ``split`` the same members one at a time.
    After every step the two must agree on everything they maintain and
    on the pairs the step made ready.  Returns the number of runs."""
    g = random_dag(n, edge_prob=edge_prob, seed=graph_seed)
    nb = number_graph(g)
    whole, split = SchedulerState(nb), SchedulerState(nb)
    rng = random.Random(driver_seed)
    succs = {v: nb.successor_indices(v) for v in range(1, n + 1)}
    phases *= 3  # runs need a started horizon to extend over
    runnable, started, runs = [], 0, 0
    while started < phases or runnable:
        if started < phases and (not runnable or rng.random() < 0.3):
            ready = whole.start_phase()
            assert split.start_phase() == ready
            started += 1
        else:
            v, p = runnable.pop(rng.randrange(len(runnable)))
            members = whole.claim_run(v, p)
            assert split.claim_run(v, p) == members
            # A member emits to every successor (the shared list the
            # pair runtime hands over) or to a random subset.
            batch = [
                (v, q, succs[v] if rng.random() < emit_prob
                 else [w for w in succs[v] if rng.random() < 0.5])
                for q in members
            ]
            ready = whole.complete_executions(batch)
            one_by_one = [
                pair for member in batch for pair in split.complete_executions([member])
            ]
            assert sorted(one_by_one) == sorted(ready)
            runs += 1
        assert whole.counters() == split.counters()
        assert whole.completed_log == split.completed_log
        assert whole.executed_pairs == split.executed_pairs
        assert whole.ready_set() == split.ready_set()
        assert whole.run_claimed_set() == split.run_claimed_set()
        runnable.extend(ready)
    assert whole.all_started_complete() and split.all_started_complete()
    return runs


class TestWholeRunIsMemberAtATime:
    @given(driver_params())
    @settings(max_examples=120, deadline=None)
    def test_twins_agree_after_every_step(self, params):
        assert drive_twins(*params) > 0
