"""Tests for the dense dataflow baseline — the paper's rejected
"obvious solution" and the message-rate comparison it motivates."""

import pytest

from repro.baselines.dense import DenseDataflowExecutor
from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import EMIT_NOTHING, FunctionVertex, SourceVertex
from repro.events import PhaseInput
from repro.graph.generators import chain_graph
from repro.models.domains.laundering import build_laundering_workload

from tests.conftest import ScriptedSource, signals


class RareSource(SourceVertex):
    """Emits once every `period` phases (sparse Δ source)."""

    def __init__(self, period: int) -> None:
        super().__init__(seed=None)
        self.period = period

    def on_execute(self, ctx):
        if ctx.phase % self.period == 0:
            return ctx.phase
        return EMIT_NOTHING


def value_forward() -> FunctionVertex:
    """Forwards the latched value (value-driven, Δ-well-formed)."""

    def f(ctx):
        if not ctx.changed:
            return EMIT_NOTHING
        (name,) = list(ctx.changed)[:1] or [None]
        return ctx.inputs[name]

    return FunctionVertex(f)


class TestDenseSemantics:
    def test_every_vertex_executes_every_phase(self):
        g = chain_graph(4)
        prog = Program(
            g,
            {"v1": RareSource(10)}
            | {f"v{i}": value_forward() for i in range(2, 5)},
        )
        res = DenseDataflowExecutor(prog).run(signals(20))
        assert res.execution_count == 4 * 20
        assert res.engine == "dense"

    def test_messages_on_every_edge_after_first_value(self):
        g = chain_graph(3)
        prog = Program(
            g,
            {"v1": ScriptedSource({1: "x"})}
            | {f"v{i}": value_forward() for i in (2, 3)},
        )
        res = DenseDataflowExecutor(prog).run(signals(10))
        # Edge v1->v2 carries a message every phase from 1 on (re-sends);
        # v2->v3 likewise.  Total = 2 edges x 10 phases.
        assert res.message_count == 2 * 10

    def test_silent_edges_stay_silent_until_first_value(self):
        g = chain_graph(2)
        prog = Program(
            g, {"v1": RareSource(5), "v2": value_forward()}
        )
        res = DenseDataflowExecutor(prog).run(signals(10))
        # First emission at phase 5; re-sent phases 6..10 -> 6 messages.
        assert res.message_count == 6


class TestMessageRateComparison:
    def test_dense_rate_dominates_delta_rate(self):
        """The Section 1 comparison on the laundering workload: option 1's
        message count exceeds option 2's roughly in proportion to
        1/anomaly-rate on the detector stage."""
        prog_delta, phases = build_laundering_workload(
            phases=600, branches=2, anomaly_rate=0.01, seed=3
        )
        prog_dense, _ = build_laundering_workload(
            phases=600, branches=2, anomaly_rate=0.01, seed=3, dense=True
        )
        delta = SerialExecutor(prog_delta).run(phases)
        dense = SerialExecutor(prog_dense).run(phases)
        # Same anomaly decisions -> same compliance cases.
        assert delta.records == dense.records
        # Dense detectors emit every phase; delta detectors only on
        # anomalies, so message traffic collapses.
        assert dense.message_count > delta.message_count * 1.3

    def test_detector_ratio_rises_as_anomalies_get_rarer(self):
        """Option 1 / option 2 detector traffic grows like ~1/rate,
        bounded here by the run length (EXPERIMENTS.md records the
        table; the paper's 10^-6 rate gives 10^6)."""
        phases_n, branches = 1200, 2
        source_msgs = branches * phases_n  # transaction feeds emit every phase

        def run(rate, dense):
            prog, phases = build_laundering_workload(
                phases=phases_n, branches=branches, anomaly_rate=rate,
                seed=6, dense=dense,
            )
            return SerialExecutor(prog).run(phases)

        ratios = []
        for rate in (0.05, 0.01, 0.002):
            delta, dense = run(rate, False), run(rate, True)
            # Identical anomaly decisions in both modes.
            assert delta.records == dense.records
            # Subtract the identical source and case-aggregator traffic
            # to isolate what the detectors emitted.
            agg_msgs = len(delta.records.get("compliance", []))
            det_delta = delta.message_count - source_msgs - agg_msgs
            det_dense = dense.message_count - source_msgs - agg_msgs
            assert det_dense == source_msgs  # option 1: a verdict per input
            ratios.append(det_dense / max(det_delta, 1))
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 25.0

    def test_dense_executor_on_delta_program_counts_work(self):
        prog, phases = build_laundering_workload(
            phases=200, branches=2, anomaly_rate=0.02, seed=5
        )
        delta = SerialExecutor(prog).run(phases)
        dense = DenseDataflowExecutor(prog).run(phases)
        assert dense.execution_count == prog.n * 200
        assert dense.execution_count > delta.execution_count
