"""Tests for Program, PairRuntime and RunResult."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.program import PairRuntime, Program, RunResult
from repro.core.vertex import (
    EMIT_NOTHING,
    FunctionVertex,
    PassthroughSource,
    Vertex,
    VertexContext,
)
from repro.errors import GraphError, SchedulerError, VertexExecutionError
from repro.events import PhaseInput
from repro.graph.generators import chain_graph, fig3_graph
from repro.graph.model import ComputationGraph
from repro.graph.numbering import number_graph

from tests.conftest import ScriptedSource, forward_vertex, signals


def tiny_program() -> Program:
    g = chain_graph(2)
    return Program(
        g, {"v1": PassthroughSource(), "v2": forward_vertex()}
    )


class TestProgram:
    def test_behavior_coverage_enforced(self):
        g = chain_graph(2)
        with pytest.raises(GraphError, match="missing"):
            Program(g, {"v1": PassthroughSource()})
        with pytest.raises(GraphError, match="extra"):
            Program(
                g,
                {
                    "v1": PassthroughSource(),
                    "v2": forward_vertex(),
                    "ghost": forward_vertex(),
                },
            )

    def test_non_vertex_behavior_rejected(self):
        g = chain_graph(1)
        with pytest.raises(GraphError, match="Vertex"):
            Program(g, {"v1": lambda ctx: None})  # type: ignore[dict-item]

    def test_numbering_for_wrong_graph_rejected(self):
        g1, g2 = chain_graph(2), chain_graph(2)
        nb2 = number_graph(g2)
        with pytest.raises(GraphError, match="different graph"):
            Program(
                g1,
                {"v1": PassthroughSource(), "v2": forward_vertex()},
                numbering=nb2,
            )

    def test_behavior_by_index(self):
        p = tiny_program()
        assert p.behavior(1) is p.behaviors["v1"]
        assert p.behavior(2) is p.behaviors["v2"]

    def test_reset_propagates(self):
        p = tiny_program()
        src = p.behaviors["v1"]
        first = src.rng.random()
        p.reset()
        assert src.rng.random() == first

    def test_source_sink_names(self):
        p = tiny_program()
        assert p.source_names() == ["v1"]
        assert p.sink_names() == ["v2"]

    def test_invalid_graph_rejected(self):
        g = ComputationGraph()
        g.add_vertices(["a", "b"])
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(Exception):
            Program(g, {"a": forward_vertex(), "b": forward_vertex()})


class TestPairRuntime:
    def test_phase_inputs_must_be_sequential(self):
        p = tiny_program()
        with pytest.raises(SchedulerError, match="sequentially"):
            PairRuntime(p, [PhaseInput(2, 0.0)])

    def test_execute_delivers_and_counts(self):
        p = tiny_program()
        rt = PairRuntime(p, [PhaseInput(1, 0.0, {"v1": 10})])
        targets = rt.execute(1, 1)
        assert targets == [2]
        assert rt.message_count == 1
        targets = rt.execute(2, 1)
        assert targets == []  # v2 is a sink; its value is recorded
        assert rt.records["v2"] == [(1, 10)]
        assert rt.executions == [(1, 1), (2, 1)]

    def test_source_phase_input_delivery(self):
        p = tiny_program()
        rt = PairRuntime(p, [PhaseInput(1, 0.0, {"v1": 7}), PhaseInput(2, 1.0)])
        ctx, ctx2 = rt.prepare(1, [1, 2])
        assert ctx.phase_input == 7
        assert ctx2.phase_input is None  # bare signal

    def test_vertex_exception_wrapped(self):
        g = chain_graph(1)

        def boom(ctx):
            raise ValueError("kaboom")

        p = Program(g, {"v1": FunctionVertex(boom)})

        class _AlwaysRun(PassthroughSource):
            pass

        rt = PairRuntime(p, [PhaseInput(1, 0.0)])
        ctxs = rt.prepare(1, [1])
        with pytest.raises(VertexExecutionError, match="kaboom") as ei:
            rt.compute(1, ctxs)
        assert ei.value.vertex == "v1"
        assert ei.value.phase == 1
        assert isinstance(ei.value.__cause__, ValueError)

    def test_changed_inputs_across_phases(self):
        g = fig3_graph()
        behaviors = {
            "v1": ScriptedSource({1: "a1"}),
            "v2": ScriptedSource({1: "b1", 2: "b2"}),
            "v3": forward_vertex(),
            "v4": forward_vertex(),
            "v5": forward_vertex(),
            "v6": forward_vertex(),
        }
        # v3's forward_vertex would fail on two simultaneous changes, so
        # use a recording function instead.
        seen = []

        def record_changed(ctx):
            seen.append((ctx.phase, dict(sorted(ctx.changed_values().items()))))
            return EMIT_NOTHING

        behaviors["v3"] = FunctionVertex(record_changed)
        p = Program(g, behaviors)
        rt = PairRuntime(p, signals(2))
        rt.execute(1, 1)
        rt.execute(2, 1)
        rt.execute(3, 1)
        rt.execute(1, 2)
        rt.execute(2, 2)
        rt.execute(3, 2)
        assert seen == [
            (1, {"v1": "a1", "v2": "b1"}),
            (2, {"v2": "b2"}),  # v1 silent in phase 2: latched, not changed
        ]

    def test_build_result(self):
        p = tiny_program()
        rt = PairRuntime(p, [PhaseInput(1, 0.0, {"v1": 1})])
        rt.execute(1, 1)
        rt.execute(2, 1)
        res = rt.build_result("test-engine", 0.5, {"k": 1})
        assert res.engine == "test-engine"
        assert res.executions == [(1, 1), (2, 1)]
        assert res.execution_count == 2
        assert res.phases_run == 1
        assert res.stats == {"k": 1}
        assert res.records_for("v2") == [(1, 1)]
        assert res.records_for("ghost") == []


class ChangeOnly(Vertex):
    """Emits the sum of its latched inputs when it differs from the last
    sum emitted."""

    def __init__(self, preds):
        self.preds = preds
        self.last = None

    def reset(self):
        self.last = None

    def on_execute(self, ctx):
        total = sum(ctx.input(p, 0) for p in self.preds)
        if total == self.last:
            return EMIT_NOTHING
        self.last = total
        return total


def _observe(ctx):
    ctx.record((sorted(ctx.inputs.items()), sorted(ctx.changed)))


def diamond_runtime(payloads):
    """s1, s2 -> m -> t and s2 -> t: ``m`` emits only on change, so
    ``t``'s phases have gaps; ``t`` observes every arrival."""
    g = ComputationGraph()
    g.add_vertices(["s1", "s2", "m", "t"])
    for edge in [("s1", "m"), ("s2", "m"), ("m", "t"), ("s2", "t")]:
        g.add_edge(*edge)
    program = Program(g, {
        "s1": PassthroughSource(),
        "s2": PassthroughSource(),
        "m": ChangeOnly(("s1", "s2")),
        "t": FunctionVertex(_observe),
    })
    phases = [
        PhaseInput(p, float(p), {k: v for k, v in row.items() if v is not None})
        for p, row in enumerate(payloads, start=1)
    ]
    return PairRuntime(program, phases)


class Splitter(Vertex):
    """Silent when no input changed; otherwise sends its input sum with
    ``emit`` to both successors when the sum is even, and with
    ``emit_to`` to *left* alone when it is odd."""

    def __init__(self, preds, left):
        self.preds = preds
        self.left = left

    def on_execute(self, ctx):
        if not ctx.changed:
            return EMIT_NOTHING
        total = sum(ctx.input(p, 0) for p in self.preds)
        if total % 2:
            ctx.emit_to(self.left, total)
        else:
            ctx.emit(total)
        return None


def fork_runtime(payloads):
    """s1, s2 -> f -> l, r and s2 -> r: ``f`` emits to every successor
    on some phases and to ``l`` alone on others; ``l`` and ``r`` observe
    every arrival."""
    g = ComputationGraph()
    g.add_vertices(["s1", "s2", "f", "l", "r"])
    for edge in [("s1", "f"), ("s2", "f"), ("f", "l"), ("f", "r"), ("s2", "r")]:
        g.add_edge(*edge)
    program = Program(g, {
        "s1": PassthroughSource(),
        "s2": PassthroughSource(),
        "f": Splitter(("s1", "s2"), "l"),
        "l": FunctionVertex(_observe),
        "r": FunctionVertex(_observe),
    })
    phases = [
        PhaseInput(p, float(p), {k: v for k, v in row.items() if v is not None})
        for p, row in enumerate(payloads, start=1)
    ]
    return PairRuntime(program, phases)


def drive(rt, splits):
    """Execute the diamond vertex by vertex, each vertex's phases cut
    into the runs ``splits(phases)`` yields; returns everything a member
    observed and produced, in execution order."""
    seen = []
    waiting = {v: set() for v in range(1, rt.program.n + 1)}
    for v in rt.program.numbering.source_indices():
        waiting[v] = set(range(1, rt.num_phases + 1))
    for v in range(1, rt.program.n + 1):
        for run in splits(sorted(waiting[v])):
            ctxs = rt.prepare(v, run)
            observed = [
                (c.phase, dict(c.inputs), set(c.changed), c.phase_input)
                for c in ctxs
            ]
            assert rt.compute(v, ctxs) == len(run)
            produced = [(dict(c.outputs), list(c.records)) for c in ctxs]
            completed = rt.commit(v, run, ctxs)
            seen.append((observed, produced, completed))
            for _, p, targets in completed:
                for w in targets:
                    waiting[w].add(p)
    return [m for run in seen for m in zip(*run)]


def end_state(rt):
    return {
        "channels": {
            edge: repr(ch) for edge, ch in sorted(rt.edges._channels.items())
        },
        "live": rt.edges.live_entries,
        "messages": rt.message_count,
        "executions": rt.executions,
        "records": rt.records,
    }


payload = st.one_of(st.none(), st.integers(0, 2))
histories = st.lists(
    st.fixed_dictionaries({"s1": payload, "s2": payload}), min_size=1, max_size=12
)


class TestRunEqualsPairwise:
    """A run of *k* is *k* runs of one: same contexts, outputs, records,
    targets, channel contents and counters — silent predecessors (so run
    phases are not consecutive), sources with and without a phase
    payload."""

    @staticmethod
    def assert_runs_agree(build, payloads, rng):
        def whole(phases):
            return [phases] if phases else []

        def pairwise(phases):
            return [[p] for p in phases]

        def cut(phases):
            # A partial commit (run[:executed]) and the re-claimed tail.
            k = rng.randint(0, len(phases))
            return [part for part in (phases[:k], phases[k:]) if part]

        runtimes = [build(payloads) for _ in range(3)]
        by_pair, by_run, by_cut = (
            drive(rt, splits)
            for rt, splits in zip(runtimes, (pairwise, whole, cut))
        )
        assert by_run == by_pair
        assert by_cut == by_pair
        expected = end_state(runtimes[0])
        for rt in runtimes[1:]:
            assert end_state(rt) == expected
            # Sampled once per run, after its sends and before its GC.
            assert rt.edges.peak_entries >= runtimes[0].edges.peak_entries
            assert rt.edges.peak_entries >= rt.edges.total_pending_entries()

    @given(histories, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_whole_runs_cut_runs_and_single_pairs_agree(self, payloads, rng):
        self.assert_runs_agree(diamond_runtime, payloads, rng)

    @given(histories, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_a_partial_fan_out_agrees_too(self, payloads, rng):
        # A member that emits to every successor hands over the shared
        # successor list and one that emits to some builds its own;
        # runs mixing both must still commit as their members one at a
        # time would.
        self.assert_runs_agree(fork_runtime, payloads, rng)

    @staticmethod
    def assert_runs_of_one_read_their_history(build, payloads):
        # Each run of one's context, against what the members before it
        # sent: a source reads its phase payload and no input; any other
        # vertex reads, per predecessor, the newest message at or before
        # its phase, and marks it changed iff that message is its phase's.
        rt = build(payloads)
        members = drive(rt, lambda phases: [[p] for p in phases])
        graph, numbering = rt.program.graph, rt.program.numbering
        sources = set(numbering.source_indices())
        sent = {}  # (sender, receiver) name -> {phase: value}
        for (phase, inputs, changed, phase_input), (outputs, _), (v, p, _) in members:
            assert phase == p
            name = numbering.name_of(v)
            if v in sources:
                assert (inputs, changed) == ({}, set())
                assert phase_input == payloads[p - 1].get(name)
            else:
                want_inputs, want_changed = {}, set()
                for u in graph.predecessors(name):
                    history = sent.get((u, name), {})
                    before = [q for q in history if q <= p]
                    if before:
                        want_inputs[u] = history[max(before)]
                        if max(before) == p:
                            want_changed.add(u)
                assert (inputs, changed) == (want_inputs, want_changed)
                assert phase_input is None
            for w, value in outputs.items():
                sent.setdefault((name, w), {})[p] = value

    @given(histories)
    @settings(max_examples=100, deadline=None)
    def test_a_run_of_one_reads_its_history(self, payloads):
        # Source runs (with and without a payload) and inner runs.
        self.assert_runs_of_one_read_their_history(diamond_runtime, payloads)

    @given(histories)
    @settings(max_examples=100, deadline=None)
    def test_a_partial_fan_out_run_of_one_reads_its_history(self, payloads):
        self.assert_runs_of_one_read_their_history(fork_runtime, payloads)

    def test_the_fork_reaches_both_fan_outs(self):
        rows = [{"s1": 1, "s2": 1}] * 6 + [{"s1": 2, "s2": 1}] + [{"s2": 2}] * 2
        rt = fork_runtime(rows)
        members = drive(rt, lambda phases: [phases] if phases else [])
        index = rt.program.numbering.index_of
        f, left, right = index["f"], index["l"], index["r"]
        targets = {p: t for _, _, (v, p, t) in members if v == f}
        # Even sums at phases 1-6 and 8-9 reach both successors, the odd
        # sum at phase 7 only l; a whole run of nine is one commit.
        assert targets == {
            **{p: [left, right] for p in (1, 2, 3, 4, 5, 6, 8, 9)}, 7: [left]
        }
        # A member that reached every successor hands over f's one list.
        assert targets[1] is targets[9] is rt.edges.succs[f]

    def test_the_histories_reach_gaps(self):
        rows = [
            {"s1": 1, "s2": 2},
            {"s1": 1, "s2": None},
            {"s1": None, "s2": None},
            {"s1": 2, "s2": 2},
        ]
        rt = diamond_runtime(rows)
        members = drive(rt, lambda phases: [phases] if phases else [])
        index = rt.program.numbering.index_of

        def ran(name):
            return [obs[0] for obs, _, (v, _, _) in members if v == index[name]]

        # s1's value-equal phase-2 message is delivered, so (m, 2) runs;
        # phase 3 brings m nothing.  m's sum is unchanged at phase 2, so
        # t hears only s2 at phases 1 and 4 and m at 1 and 4.
        assert ran("m") == [1, 2, 4]
        assert ran("t") == [1, 4]


class TestRunGuards:
    """The checks the pair path made per member still fire on the run path."""

    ROWS = [{"s1": 1, "s2": 2}, {"s1": 1, "s2": 3}, {"s1": 1, "s2": 3}]

    def test_commit_rejects_phases_out_of_order(self):
        rt = diamond_runtime(self.ROWS)
        ctxs = rt.prepare(2, [2, 1])
        rt.compute(2, ctxs)
        with pytest.raises(SchedulerError, match="strictly increasing"):
            rt.commit(2, [2, 1], ctxs)

    def test_commit_rejects_a_message_behind_the_consumers_gc(self):
        rt = diamond_runtime([{"s1": 1}, {"s1": 2}, {"s1": 3}])
        rt.execute(1, 1)
        rt.execute(3, 2)  # m has moved past phase 2: inputs GC'd up to it
        with pytest.raises(SchedulerError, match="after the consumer"):
            rt.execute(1, 2)

    def test_every_member_delivers_its_value_equal_output(self):
        rt = diamond_runtime(self.ROWS)
        ctxs = rt.prepare(1, [1, 2, 3])
        rt.compute(1, ctxs)
        completed = rt.commit(1, [1, 2, 3], ctxs)
        assert [targets for _, _, targets in completed] == [[3], [3], [3]]
        assert rt.message_count == 3

    def failing_program(self, fail):
        g = chain_graph(2)
        return Program(g, {"v1": PassthroughSource(), "v2": FunctionVertex(fail)})

    def test_failing_member_is_named_exactly_and_the_prefix_survives(self):
        def fail(ctx):
            if ctx.phase == 5:
                raise ValueError("member three")
            return ctx.phase

        rt = PairRuntime(self.failing_program(fail), signals(9))
        ctxs = rt.prepare(2, [2, 3, 5, 8])
        with pytest.raises(VertexExecutionError, match="member three") as ei:
            rt.compute(2, ctxs)
        assert (ei.value.vertex, ei.value.phase) == ("v2", 5)
        assert [c.records for c in ctxs] == [[2], [3], [], []]
        assert [p for _, p, _ in rt.commit(2, [2, 3], ctxs)] == [2, 3]

    def test_emit_to_a_stranger_fails_on_an_engine_built_context(self):
        rt = PairRuntime(
            self.failing_program(lambda ctx: ctx.emit_to("v1", 0)), signals(2)
        )
        with pytest.raises(VertexExecutionError, match="not a successor") as ei:
            rt.compute(2, rt.prepare(2, [1, 2]))
        assert (ei.value.vertex, ei.value.phase) == ("v2", 1)

    def test_after_member_stops_the_run_where_it_says(self):
        rt = diamond_runtime(self.ROWS)
        ctxs = rt.prepare(1, [1, 2, 3])
        calls = []
        executed = rt.compute(1, ctxs, lambda: calls.append(1) or len(calls) == 2)
        assert executed == 2 and len(calls) == 2
        assert [bool(c.outputs) for c in ctxs] == [True, True, False]
        assert [p for _, p, _ in rt.commit(1, [1, 2], ctxs)] == [1, 2]

    def test_after_member_failure_is_not_blamed_on_the_vertex(self):
        rt = diamond_runtime(self.ROWS)

        def broken_callback():
            raise RuntimeError("engine bug")

        with pytest.raises(RuntimeError, match="engine bug"):
            rt.compute(1, rt.prepare(1, [1, 2]), broken_callback)

    def test_engine_built_contexts_own_their_containers(self):
        # prepare hands each context fresh containers (no defensive copy
        # is needed); the public constructor still copies what it is given.
        rt = diamond_runtime(self.ROWS)
        rt.execute(1, 1)
        a, b = rt.prepare(3, [1, 2])
        assert a.inputs == b.inputs == {"s1": 1}
        assert a.inputs is not b.inputs and a.changed is not b.changed
        given_inputs = {"x": 1}
        ctx = VertexContext("v", 1, given_inputs, {"x"}, ["w"])
        given_inputs["x"] = 2
        assert ctx.inputs == {"x": 1}


class TestRunResult:
    def test_executions_as_set(self):
        r = RunResult("e", {}, [(1, 1), (2, 1), (1, 1)], 0, 1)
        assert r.executions_as_set() == {(1, 1), (2, 1)}
        assert r.execution_count == 3

    def test_repr(self):
        r = RunResult("e", {}, [], 0, 0)
        assert "engine='e'" in repr(r)
