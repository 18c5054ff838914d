"""Temporal phase-run coalescing (docs/ARCHITECTURE.md §5.7): the mechanisms.

* **SchedulerState unit tests** for ``claim_run`` — the claim ledger,
  head validation, the adaptive ceiling, the salvage re-dispatch path and
  the commit equivalence (one batch vs member-at-a-time must reach the
  same state);
* **mid-run fault salvage** on the process backend: a mid-run vertex
  failure attributes the exact failing phase with the unexecuted tail
  reported for requeue;
* **a swept window that stops short** (``ScheduleCore.sweep``): a run cut
  at its stake or a member that raises ends the sweep, what ran commits
  with waves, and the rest runs as ready runs.

Engine-level equivalence against the serial oracle (and the check that
runs actually form) lives in ``tests/test_differential.py``.
"""

from collections import deque

import pytest

from repro.core.invariants import InvariantChecker
from repro.core.reference import ReferenceScheduler
from repro.core.state import ADAPTIVE_RUN_CEILING, SchedulerState
from repro.errors import (
    DuplicateExecutionError,
    SchedulerError,
    VertexExecutionError,
)
from repro.events import PhaseInput
from repro.graph.generators import chain_graph
from repro.graph.model import ComputationGraph
from repro.graph.numbering import number_graph
from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import Vertex
from repro.runtime.core import ScheduleCore
from repro.runtime.mp import ProcessEngine
from repro.runtime.mp.protocol import ResultBatch, RunMember, RunMsg

from tests.conftest import make_chain_program, signals, worker_replies


# ---------------------------------------------------------------------------
# SchedulerState.claim_run
# ---------------------------------------------------------------------------


def chain_state(n=3, frontier="cone", checker=True):
    nb = number_graph(chain_graph(n))
    scheduler = SchedulerState if frontier == "cone" else ReferenceScheduler
    return scheduler(nb, checker=InvariantChecker() if checker else None)


def advance_source(st, phases, source=1, target=2):
    """Start *phases* phases and complete the chain source through all of
    them, leaving (target, 1) ready and (target, 2..phases) full."""
    for _ in range(phases + 1):
        st.start_phase()
    for p in range(1, phases + 1):
        st.complete_executions([(source, p, [target])])


class TestClaimRun:
    def test_adaptive_claims_full_backlog(self):
        st = chain_state()
        advance_source(st, 4)
        assert st.claim_run(2, 1) == [1, 2, 3, 4]
        assert st.run_claimed_set() == {(2, 2), (2, 3), (2, 4)}
        # Claimed members leave the live ready view but stay full.
        assert (2, 2) not in st.ready_set()
        assert (2, 2) in st.full_set()
        assert st.is_run_claimed((2, 2))
        assert not st.is_run_claimed((2, 1))  # the head was ready, not claimed

    def test_global_mode_never_extends(self):
        st = chain_state(frontier="global")
        for _ in range(4):
            st.start_phase()
        for p in range(1, 4):
            st.complete_executions([(1, p, [2])])
        assert st.claim_run(2, 1) == [1]
        assert st.run_claimed_set() == frozenset()

    def test_head_must_be_ready_or_claimed(self):
        st = chain_state()
        advance_source(st, 3)
        # (2, 2) is full but neither ready nor claimed.
        with pytest.raises(SchedulerError, match="ready or claimed"):
            st.claim_run(2, 2)

    def test_executed_head_is_a_duplicate(self):
        st = chain_state()
        advance_source(st, 2)
        st.complete_executions([(2, 1, [3])])
        with pytest.raises(DuplicateExecutionError):
            st.claim_run(2, 1)

    def test_batch_commit_accepts_claimed_members(self):
        st = chain_state()
        advance_source(st, 3)
        run = st.claim_run(2, 1)
        newly = st.complete_executions([(2, q, [3]) for q in run])
        assert (3, 1) in newly
        assert st.run_claimed_set() == frozenset()
        assert st.coalescing_stats() == {
            "runs_scheduled": 1,
            "pairs_coalesced": 2,
            "mean_run_length": 3.0,
        }

    def test_member_at_a_time_commit_matches_batch(self):
        # The fault-salvage path commits members ascending one by one;
        # it must reach the same scheduling state as the one-batch path.
        a, b = chain_state(), chain_state()
        for st in (a, b):
            advance_source(st, 3)
            st.claim_run(2, 1)
        a.complete_executions([(2, q, [3]) for q in (1, 2, 3)])
        for q in (1, 2, 3):
            b.complete_executions([(2, q, [3])])
        assert a.ready_set() == b.ready_set()
        assert a.full_set() == b.full_set()
        assert a.partial_set() == b.partial_set()
        assert a.run_claimed_set() == b.run_claimed_set() == frozenset()

    def test_claimed_head_redispatch_recoalesces(self):
        # Salvage: the head committed alone, the claimed tail was
        # requeued; its first member may head a fresh run.
        st = chain_state()
        advance_source(st, 4)
        assert st.claim_run(2, 1) == [1, 2, 3, 4]
        st.complete_executions([(2, 1, [3])])
        assert st.is_run_claimed((2, 2))
        assert st.claim_run(2, 2) == [2, 3, 4]
        st.complete_executions([(2, q, [3]) for q in (2, 3, 4)])
        assert st.run_claimed_set() == frozenset()

    def test_adaptive_ceiling(self):
        st = chain_state()
        advance_source(st, ADAPTIVE_RUN_CEILING + 20)
        run = st.claim_run(2, 1)
        assert len(run) == ADAPTIVE_RUN_CEILING


# ---------------------------------------------------------------------------
# Mid-run fault salvage
# ---------------------------------------------------------------------------


class _BoomMidRun(Vertex):
    def on_execute(self, ctx):
        if ctx.phase == 3:
            raise ValueError("mid-run kaboom")
        return ("ok", ctx.phase)


def _solo_program(behavior):
    g = ComputationGraph("solo")
    g.add_vertex("a")
    return Program(g, {"a": behavior})


class TestMidRunSalvage:
    def test_worker_attributes_failing_phase_and_skips_tail(self):
        # A run [a@1..a@5] with a@3 failing: the reply carries a@1, a@2
        # as survivors, a@3's error (the exact phase — not the run
        # head's), ending the reply: a@4, a@5 never ran.
        run = RunMsg(
            vertex=1, name="a", successors=(),
            members=tuple(
                RunMember(phase=p, inputs={}, changed=())
                for p in range(1, 6)
            ),
            behavior=_BoomMidRun(),
        )
        msg, _ = worker_replies(run)
        assert isinstance(msg, ResultBatch)
        assert [r.phase for r in msg.results] == [1, 2, 3]
        assert msg.results[0].error is None
        assert msg.results[1].error is None
        assert "mid-run kaboom" in msg.results[2].error
        assert msg.results[2].phase == 3
        assert msg.vertex == 1

    def test_engine_surfaces_exact_phase_and_stays_reusable(self):
        # The run computes in the coordinator (a microsecond vertex).
        self.check_engine_surfaces_exact_phase()

    def test_engine_surfaces_exact_phase_from_a_shipped_run(
        self, process_remote
    ):
        # a@1 staked in the coordinator, a@2.. shipped: the same fault.
        self.check_engine_surfaces_exact_phase()

    def check_engine_surfaces_exact_phase(self):
        prog = _solo_program(_BoomMidRun())
        engine = ProcessEngine(prog, num_workers=1)
        with pytest.raises(VertexExecutionError) as exc_info:
            engine.run([PhaseInput(p, float(p)) for p in range(1, 7)])
        assert exc_info.value.vertex == "a"
        assert exc_info.value.phase == 3
        # Survivors committed, claims unwound: the engine still runs.
        res = engine.run([PhaseInput(p, float(p)) for p in (1, 2)])
        assert res.execution_count == 2


# ---------------------------------------------------------------------------
# A swept window that stops short (ScheduleCore.sweep's exits)
# ---------------------------------------------------------------------------


def cutting(core, at):
    """The driver's ``compute`` for a sweep: computes each run whole,
    except that vertex *at*'s run stops after its first member (a cut
    stake); returns the members left."""

    def compute(v, phases, ctxs):
        executed = core.runtime.compute(v, ctxs, lambda: v == at)
        return len(phases) - executed

    return compute


def drain_inline(core, ready):
    """Run the ready pairs as ready runs, placing what each commit readies
    and a cut run's claimed head, until quiescent."""
    ready = deque(ready)
    while ready:
        v, p = ready.popleft()
        run, ctxs = core.claim(0, v, p)
        core.runtime.compute(v, ctxs)
        ready.extend(core.commit(0, core.runtime.commit(v, run, ctxs))[0])
    assert core.quiescent


class TestAWindowThatStopsShort:
    def program(self):
        return make_chain_program(3, {p: p for p in range(1, 7)})

    def test_a_cut_run_ends_the_sweep_and_its_tail_runs_as_ready_runs(self):
        program = self.program()
        serial = SerialExecutor(self.program()).run(signals(4))
        core = ScheduleCore(program, 1, checker=InvariantChecker())
        for pi in signals(4):
            core.admit(pi)
        ready, runs, swept = core.sweep(0, cutting(core, at=1))
        # n0 ran phase 1 of the window 1..4; the waves readied its next
        # phase and n1's first.
        assert (ready, runs, swept) == ([(1, 2), (2, 1)], 1, 0)
        assert core.state.sweeping == (0, 0)
        assert core.state.in_flight_phases() == [1, 2, 3, 4]
        drain_inline(core, ready)
        result = core.result("inline", 0.0, {})
        assert result.records == serial.records
        assert sorted(result.executions) == sorted(serial.executions)

    def test_a_cut_tail_that_holds_claims_is_handed_over(self):
        # A claimed run of n0 over 1..3 is cut after its first member, so
        # (n0, 2..3) hold claims; once phase 1 completes, phase 2 is the
        # fresh oldest phase and the window 2..3 is swept.  Cut again, the
        # tail (n0, 3) still holds its claim, which no wave readies: the
        # sweep hands it back as the head to dispatch.  Regression: it
        # was dropped, and the run stalled with phases 2 and 3 in flight.
        program = self.program()
        serial = SerialExecutor(self.program()).run(signals(3))
        core = ScheduleCore(program, 1, checker=InvariantChecker())
        for pi in signals(3):
            core.admit(pi)
        run, ctxs = core.claim(0, 1, 1)
        assert run == [1, 2, 3]
        core.runtime.compute(1, ctxs[:1])
        core.commit(0, core.runtime.commit(1, run[:1], ctxs))
        for v in (2, 3):  # phase 1's chain, so that phase 2 is fresh
            run, ctxs = core.claim(0, v, 1)
            core.runtime.compute(v, ctxs)
            core.commit(0, core.runtime.commit(v, run, ctxs))
        assert core.state.in_flight_phases() == [2, 3]
        assert core.state.sweepable() and core.state.is_run_claimed((1, 3))
        ready, runs, swept = core.sweep(0, cutting(core, at=1))
        assert (runs, swept) == (1, 0) and (1, 3) in ready
        drain_inline(core, ready)
        result = core.result("inline", 0.0, {})
        assert result.records == serial.records
        assert sorted(result.executions) == sorted(serial.executions)

    def test_a_member_that_raises_commits_the_prefix_of_its_run(self):
        program = _solo_program(_BoomMidRun())
        core = ScheduleCore(program, 1, checker=InvariantChecker())
        for pi in signals(5):
            core.admit(pi)
        with pytest.raises(VertexExecutionError) as exc_info:
            core.sweep(0, lambda v, phases, ctxs: core.runtime.compute(v, ctxs))
        assert exc_info.value.phase == 3
        assert core.state.sweeping == (0, 0)
        assert core.state.in_flight_phases() == [3, 4, 5]
        assert list(core.runtime.executions) == [(1, 1), (1, 2)]
