"""Baseline executors the paper argues against.

* :class:`~repro.baselines.dense.DenseDataflowExecutor` — the "obvious
  solution" of Section 3.1: every vertex computes in every phase and sends
  a message on every output in every phase.  Correct, trivially easy to
  schedule (classic dataflow firing), but its message and execution counts
  scale with N x phases regardless of how rarely anything changes — the
  paper's money-laundering example puts the Δ-dataflow message rate at
  one *millionth* of this baseline's.

The other baseline of Section 2 — complete phase p before starting phase
p+1 — needs no executor: it is any engine with one phase in flight,
``ParallelEngine`` / ``ProcessEngine`` / ``SimulatedEngine(...,
max_in_flight_phases=1)``.
"""

from .dense import DenseDataflowExecutor

__all__ = ["DenseDataflowExecutor"]
