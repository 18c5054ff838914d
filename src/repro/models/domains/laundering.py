"""The money-laundering composition (the paper's Section 1 efficiency
example).

    "One of the steps in the application may be to detect anomalies in
    banking transactions, where anomalies are defined as outlier points in
    a statistical regression model. ... If one in a million transactions
    is anomalous then the rate of events generated using the second option
    is only a millionth of that generated using the first option."

Graph (B branches)::

    txn_0 ──> detector_0 ──┐
    txn_1 ──> detector_1 ──┼──> case_aggregator ──> compliance
    ...                    │
    txn_B ──> detector_B ──┘

* ``txn_i`` — dense :class:`TransactionSource` feeds (a transaction every
  phase, anomalous with probability *anomaly_rate*);
* ``detector_i`` — :class:`ZScoreDetector` (option 2: emits only
  anomalies) or :class:`DenseZScoreDetector` (option 1: a verdict per
  transaction) when ``dense=True`` — the pair the message-rate ablation
  compares;
* ``case_aggregator`` — :class:`CaseAggregator` opens a case when a branch
  accumulates *case_threshold* anomalies within *case_window* phases;
* ``compliance`` — records opened cases.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Tuple

from ...core.program import Program
from ...core.vertex import EMIT_NOTHING, Vertex, VertexContext
from ...errors import WorkloadError
from ...events import PhaseInput
from ...graph.model import ComputationGraph
from ...spec.registry import register_vertex
from ..basic import Recorder
from ..statistics import DenseZScoreDetector, ZScoreDetector
from ..sensors import TransactionSource

__all__ = [
    "CaseAggregator",
    "build_laundering_program",
    "build_laundering_workload",
]


@register_vertex("CaseAggregator")
class CaseAggregator(Vertex):
    """Opens a case when one branch shows repeated anomalies.

    Consumes anomaly events (any tuple whose first element is
    ``"anomaly"``); keeps, per input branch, the phases of recent
    anomalies; emits ``("case", branch, phase, count)`` when a branch
    reaches *case_threshold* anomalies within the trailing *case_window*
    phases.  Dense ``("ok", ...)`` verdicts (option-1 upstreams) are
    ignored, so the aggregator works identically under both emission
    options — which the ablation relies on.
    """

    def __init__(self, case_threshold: int = 2, case_window: int = 50) -> None:
        if case_threshold < 1:
            raise WorkloadError(f"case_threshold must be >= 1, got {case_threshold}")
        if case_window < 1:
            raise WorkloadError(f"case_window must be >= 1, got {case_window}")
        self.case_threshold = case_threshold
        self.case_window = case_window
        self._hits: Dict[str, Deque[int]] = {}

    def reset(self) -> None:
        self._hits = {}

    def on_execute(self, ctx: VertexContext) -> Any:
        cases: List[Tuple[str, Any, int, int]] = []
        for branch in sorted(ctx.changed):
            event = ctx.inputs[branch]
            if not (isinstance(event, tuple) and event and event[0] == "anomaly"):
                continue
            hits = self._hits.setdefault(branch, deque())
            hits.append(ctx.phase)
            while hits and hits[0] <= ctx.phase - self.case_window:
                hits.popleft()
            if len(hits) >= self.case_threshold:
                cases.append(("case", branch, ctx.phase, len(hits)))
        if not cases:
            return EMIT_NOTHING
        # One message per phase: batch simultaneous cases.
        return cases[0] if len(cases) == 1 else ("cases", ctx.phase, cases)


def build_laundering_program(
    branches: int = 4,
    seed: int = 11,
    anomaly_rate: float = 1e-3,
    dense: bool = False,
    window: int = 40,
    threshold: float = 3.5,
    case_threshold: int = 2,
    case_window: int = 100,
) -> Program:
    """Assemble the B-branch anomaly-detection program.

    ``dense=True`` swaps every detector for the option-1
    :class:`DenseZScoreDetector` (same anomaly decision, explicit "ok"
    verdicts) — the baseline of the message-rate ablation.
    """
    if branches < 1:
        raise WorkloadError(f"branches must be >= 1, got {branches}")
    g = ComputationGraph(name="money-laundering")
    behaviors: Dict[str, Vertex] = {}
    for b in range(branches):
        txn, det = f"txn_{b}", f"detector_{b}"
        g.add_vertex(txn)
        g.add_vertex(det)
        g.add_edge(txn, det)
        behaviors[txn] = TransactionSource(seed=seed + b, anomaly_rate=anomaly_rate)
        if dense:
            # Same decision rule as the z-score detector, with explicit
            # verdicts: classify against the branch's log-normal body.
            behaviors[det] = DenseZScoreDetector(window=window, threshold=threshold)
        else:
            behaviors[det] = ZScoreDetector(window=window, threshold=threshold)
    g.add_vertex("case_aggregator")
    g.add_vertex("compliance")
    for b in range(branches):
        g.add_edge(f"detector_{b}", "case_aggregator")
    g.add_edge("case_aggregator", "compliance")
    behaviors["case_aggregator"] = CaseAggregator(
        case_threshold=case_threshold, case_window=case_window
    )
    behaviors["compliance"] = Recorder()
    return Program(g, behaviors, name="money-laundering")


def build_laundering_workload(
    phases: int = 2000,
    branches: int = 4,
    seed: int = 11,
    anomaly_rate: float = 1e-3,
    dense: bool = False,
) -> Tuple[Program, List[PhaseInput]]:
    """Program plus *phases* transaction ticks."""
    program = build_laundering_program(
        branches=branches, seed=seed, anomaly_rate=anomaly_rate, dense=dense
    )
    inputs = [PhaseInput(k, float(k)) for k in range(1, phases + 1)]
    return program, inputs
