"""Change-suppression (Δ-elision) unit and end-to-end tests.

Covers the three layers of the mechanism:

* :func:`repro.core.ports.stable_equal` — the conservative latch test;
* the elidability recurrence (``PairRuntime._compute_elide_ok``) over the
  two-flag vertex contract (``suppressible`` / ``silent_on_unchanged``);
* end-to-end elision on the real engines: fewer executions, *identical*
  records vs the unsuppressed serial oracle, and honest
  ``stats["suppression"]`` accounting — including the opt-out vertices
  whose arrival counts must never change.
"""

import math

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.ports import stable_equal
from repro.core.program import PairRuntime, Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import FunctionVertex
from repro.events import PhaseInput
from repro.graph.model import ComputationGraph
from repro.models.basic import ArrivalCounter, ChangeRecorder, Recorder
from repro.models.sensors import ReplaySource
from repro.runtime.engine import ParallelEngine
from repro.simulator import SimulatedEngine


# ---------------------------------------------------------------------------
# stable_equal: the latch test
# ---------------------------------------------------------------------------


class TestStableEqual:
    def test_scalars(self):
        assert stable_equal(3, 3)
        assert stable_equal(3.5, 3.5)
        assert stable_equal("x", "x")
        assert stable_equal(b"x", b"x")
        assert stable_equal(True, True)
        assert not stable_equal(3, 4)
        assert not stable_equal("x", "y")

    def test_none(self):
        assert stable_equal(None, None)
        assert not stable_equal(None, 0)
        assert not stable_equal(0, None)

    def test_type_identity_required(self):
        # 1 == 1.0 and True == 1 in Python, but downstream code may
        # branch on type — these must NOT suppress.
        assert not stable_equal(1, 1.0)
        assert not stable_equal(True, 1)
        assert not stable_equal(0, False)
        assert not stable_equal("1", 1)

    def test_nan_never_equal(self):
        nan = float("nan")
        assert not stable_equal(nan, nan)
        assert not stable_equal((1.0, nan), (1.0, nan))

    def test_tuples_recursive(self):
        assert stable_equal((1, "a", (2.5, None)), (1, "a", (2.5, None)))
        assert not stable_equal((1, 2), (1, 2, 3))
        assert not stable_equal((1, 2), (1, 3))
        assert not stable_equal((1, 2), [1, 2])

    def test_dicts_recursive(self):
        assert stable_equal({"a": 1, "b": (2,)}, {"a": 1, "b": (2,)})
        assert not stable_equal({"a": 1}, {"a": 1, "b": 2})
        assert not stable_equal({"a": 1}, {"a": 2})

    def test_frozenset_scalar_members_only(self):
        assert stable_equal(frozenset({1, 2}), frozenset({1, 2}))
        assert not stable_equal(frozenset({(1,)}), frozenset({(1,)}))

    def test_depth_limit_is_conservative(self):
        deep = (1,)
        for _ in range(10):
            deep = (deep,)
        assert not stable_equal(deep, deep)  # too deep -> never suppress

    def test_unknown_types_never_equal(self):
        class Payload:
            def __eq__(self, other):  # pragma: no cover - must not be called
                return True

        p = Payload()
        assert not stable_equal(p, p)
        assert not stable_equal([1], [1])  # mutable list: not whitelisted
        assert not stable_equal({1}, {1})  # mutable set: not whitelisted


# ---------------------------------------------------------------------------
# The elidability recurrence
# ---------------------------------------------------------------------------


def _fwd(ctx):
    return sum(ctx.inputs[n] for n in sorted(ctx.inputs))


def chain_program(sink, interior=None):
    """src -> a -> b -> sink with a re-emitting source."""
    g = ComputationGraph(name="chain")
    g.add_vertices(["src", "a", "b", "sink"])
    g.add_edge("src", "a")
    g.add_edge("a", "b")
    g.add_edge("b", "sink")
    mk = interior or (lambda: FunctionVertex(_fwd, suppressible=True))
    return Program(
        g,
        {
            "src": ReplaySource(values=[5.0] * 40),
            "a": mk(),
            "b": mk(),
            "sink": sink,
        },
        name="chain",
    )


def elide_map(program, suppress=True):
    rt = PairRuntime(program, [], suppress=suppress)
    idx = program.numbering.index_of
    return {name: rt._elide_ok[idx[name]] for name in idx}, rt


class TestElideRecurrence:
    def test_silent_sink_closes_the_chain(self):
        ok, rt = elide_map(chain_program(ChangeRecorder()))
        # src's entry is vacuous (sources have no in-edges) but the
        # recurrence marks it elidable like any suppressible vertex whose
        # successors all are.
        assert ok == {"src": True, "a": True, "b": True, "sink": True}
        assert rt.ineligible_vertices == 0

    def test_recording_sink_blocks_the_whole_chain(self):
        # Recorder records *every* changed arrival, so eliding any
        # upstream execution would lose records: nothing is elidable.
        ok, _ = elide_map(chain_program(Recorder()))
        assert ok == {"src": False, "a": False, "b": False, "sink": False}

    def test_silent_interior_terminates_the_closure(self):
        # A silent_on_unchanged interior vertex absorbs the re-emission,
        # so IT is elidable even above a non-elidable sink; the vertex
        # directly above the sink is not.
        def silent():
            return FunctionVertex(_fwd, suppressible=True, silent_on_unchanged=True)

        ok, _ = elide_map(chain_program(Recorder(), interior=silent))
        assert ok["a"] and ok["b"]
        assert not ok["sink"]

    def test_opt_out_vertex_is_never_elidable(self):
        ok, _ = elide_map(chain_program(ArrivalCounter()))
        assert not ok["sink"]
        # ...and its predecessor only survives if silent; _fwd is not.
        assert not ok["b"]

    def test_suppress_off_disables_everything(self):
        ok, rt = elide_map(chain_program(ChangeRecorder()), suppress=False)
        assert not any(ok.values())
        assert rt.ineligible_vertices == 0
        assert rt.elidable_successor_names() == {}

    def test_elidable_successor_names_matches_map(self):
        _, rt = elide_map(chain_program(ChangeRecorder()))
        assert rt.elidable_successor_names() == {
            "src": frozenset({"a"}),
            "a": frozenset({"b"}),
            "b": frozenset({"sink"}),
        }


# ---------------------------------------------------------------------------
# End-to-end elision
# ---------------------------------------------------------------------------


def phases(n=40):
    return [PhaseInput(k, float(k)) for k in range(1, n + 1)]


class TestEndToEndElision:
    def oracle(self):
        return SerialExecutor(chain_program(ChangeRecorder())).run(phases())

    def test_parallel_elides_and_matches_oracle(self):
        serial = self.oracle()
        result = ParallelEngine(
            chain_program(ChangeRecorder()), num_threads=2
        ).run(phases())
        section = result.stats["suppression"]
        assert section["enabled"]
        assert section["suppressed_messages"] > 0
        assert section["elided_executions"] > 0
        assert result.execution_count < serial.execution_count
        assert result.message_count < serial.message_count
        assert check_serializable(serial, result, allow_elision=True)
        assert result.records == serial.records

    def test_serial_executor_suppress_knob(self):
        serial = self.oracle()
        suppressed = SerialExecutor(
            chain_program(ChangeRecorder()), suppress=True
        ).run(phases())
        assert suppressed.execution_count < serial.execution_count
        assert suppressed.records == serial.records

    def test_simulated_cone_elides_and_global_does_not(self):
        serial = self.oracle()
        result = SimulatedEngine(
            chain_program(ChangeRecorder()),
            num_workers=2,
            num_processors=2,
            frontier="cone",
        ).run(phases())
        assert result.stats["suppression"]["enabled"]
        assert result.execution_count < serial.execution_count
        assert check_serializable(serial, result, allow_elision=True)
        assert result.records == serial.records
        published = SimulatedEngine(
            chain_program(ChangeRecorder()), num_workers=2, num_processors=2
        ).run(phases())
        assert not published.stats["suppression"]["enabled"]
        assert published.execution_count == serial.execution_count
        assert check_serializable(serial, published)


class TestOptOutSemantics:
    """An arrival-dependent vertex must see every arrival, suppressed run
    or not — the contract's whole point."""

    def test_arrival_counter_sees_every_arrival(self):
        serial = SerialExecutor(chain_program(ArrivalCounter())).run(phases())
        result = ParallelEngine(
            chain_program(ArrivalCounter()), num_threads=2
        ).run(phases())
        assert result.stats["suppression"]["enabled"]
        # The chain above the counter is not elidable (nothing silent
        # terminates the closure), so counts — emitted as records by the
        # sink — are identical.
        assert result.records == serial.records
        assert result.execution_count == serial.execution_count

    def test_counter_behind_silent_vertex_still_counts_its_arrivals(self):
        # src -> quiet -> counter with an *honestly* silent vertex (Sum
        # emits only when its value moves): eliding quiet is safe exactly
        # because the oracle's quiet also emitted nothing on value-equal
        # input.  The counter's arrival count must match the oracle's.
        from repro.models.arithmetic import Sum

        def build():
            g = ComputationGraph(name="opt-out")
            g.add_vertices(["src", "quiet", "counter"])
            g.add_edge("src", "quiet")
            g.add_edge("quiet", "counter")
            return Program(
                g,
                {
                    "src": ReplaySource(values=[7.0] * 30),
                    "quiet": Sum(),
                    "counter": ArrivalCounter(),
                },
                name="opt-out",
            )

        serial = SerialExecutor(build()).run(phases(30))
        result = ParallelEngine(build(), num_threads=2).run(
            phases(30)
        )
        assert check_serializable(serial, result, allow_elision=True)
        assert result.records == serial.records


class TestSuppressionStatsAccounting:
    def test_stats_validate_against_schema(self):
        from repro.analysis.stats import validate_engine_stats

        result = ParallelEngine(
            chain_program(ChangeRecorder()), num_threads=2
        ).run(phases())
        assert validate_engine_stats("parallel[k=2]", result.stats) == []

    def test_direct_elisions_bounded_by_suppressed_messages(self):
        result = ParallelEngine(
            chain_program(ChangeRecorder()), num_threads=2
        ).run(phases())
        section = result.stats["suppression"]
        assert section["elided_executions"] <= section["suppressed_messages"]

    def test_first_message_is_never_suppressed(self):
        # Even a constant-valued chain delivers its first value end to
        # end: the sink records exactly one entry.
        result = ParallelEngine(
            chain_program(ChangeRecorder()), num_threads=2
        ).run(phases())
        assert sum(len(v) for v in result.records.values()) == 1
