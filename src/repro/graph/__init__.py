"""Computation-graph layer: the acyclic directed graphs of Section 2.

Public surface:

* :class:`~repro.graph.model.ComputationGraph` — the graph container.
* :class:`~repro.graph.numbering.Numbering` — restricted vertex numberings
  (Section 3.1.1), with :func:`~repro.graph.numbering.number_graph` as the
  constructor implementing the FIFO-Kahn algorithm.
* :mod:`~repro.graph.generators` — canonical and random graph builders,
  including the paper's Figure 1/2/3 graphs.
* :mod:`~repro.graph.analysis` — structural metrics (levels, width,
  critical path, pipelining potential).
"""

from .model import ComputationGraph, EdgeSpec
from .numbering import (
    Numbering,
    number_graph,
    verify_numbering,
    compute_S,
    compute_m,
)

__all__ = [
    "ComputationGraph",
    "EdgeSpec",
    "Numbering",
    "number_graph",
    "verify_numbering",
    "compute_S",
    "compute_m",
]
