"""Graph builders: the paper's figure graphs and synthetic families.

Paper graphs
------------
* :func:`fig1_graph` — the 10-node graph of Figure 1 (5 layers of 2), deep
  enough to hold 5 phases in flight.
* :func:`fig2_graph` plus :func:`fig2a_numbering` / :func:`fig2b_numbering`
  — the 7-node graph of Figure 2 with its unsatisfactory (a) and
  satisfactory (b) numberings.  The edge set is reconstructed from the
  published ``S(v)`` tables and m-sequence, which it reproduces exactly:
  (b) yields m = [3, 3, 4, 5, 5, 6, 7, 7] and (a) fails verification with
  ``S(2) = {1, 2, 3, 5}``.
* :func:`fig3_graph` — the 6-node graph of Figure 3, reconstructed from the
  8-step execution narrative (sources 1 and 2; the step sequence
  (1,1), (1,2), (2,1), (2,2), (3,1), (4,1) with the stated set memberships
  is a valid execution of this graph).

Synthetic families
------------------
Layered random DAGs, chains, diamonds, fan-in/fan-out trees, and a
seed-driven general random DAG — used by tests (hypothesis generates its
own too), benchmarks, and workload builders.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..errors import GraphError
from .model import ComputationGraph

__all__ = [
    "fig1_graph",
    "fig2_graph",
    "fig2a_numbering",
    "fig2b_numbering",
    "fig3_graph",
    "FIG3_STEPS",
    "FIG3_EXPECTED",
    "fig3_replay",
    "chain_graph",
    "diamond_graph",
    "fan_out_graph",
    "fan_in_graph",
    "layered_graph",
    "random_dag",
    "binary_tree_graph",
    "vertex_name",
]


def vertex_name(i: int) -> str:
    """Canonical name for the vertex that will receive index *i*."""
    return f"v{i}"


# ---------------------------------------------------------------------------
# Paper figures
# ---------------------------------------------------------------------------


def fig1_graph() -> ComputationGraph:
    """The 10-node pipelining demonstration graph of Figure 1.

    Five layers of two vertices; layer k feeds layer k+1 with a crossover,
    so every non-source vertex has two inputs and the depth (5) equals the
    number of phases the paper shows in flight simultaneously.
    """
    g = ComputationGraph(name="fig1")
    for i in range(1, 11):
        g.add_vertex(vertex_name(i))
    for layer in range(4):
        a, b = 2 * layer + 1, 2 * layer + 2
        c, d = a + 2, b + 2
        g.add_edge(vertex_name(a), vertex_name(c))
        g.add_edge(vertex_name(a), vertex_name(d))
        g.add_edge(vertex_name(b), vertex_name(c))
        g.add_edge(vertex_name(b), vertex_name(d))
    return g


_FIG2_EDGES: Tuple[Tuple[str, str], ...] = (
    ("v1", "v4"),
    ("v2", "v4"),
    ("v1", "v5"),
    ("v3", "v5"),
    ("v2", "v6"),
    ("v5", "v6"),
    ("v4", "v7"),
    ("v6", "v7"),
)


def fig2_graph() -> ComputationGraph:
    """The 7-node graph of Figure 2 (canonical vertex names ``v1..v7``
    follow the *satisfactory* numbering of Figure 2(b))."""
    g = ComputationGraph(name="fig2")
    for i in range(1, 8):
        g.add_vertex(vertex_name(i))
    g.add_edges(_FIG2_EDGES)
    return g


def fig2b_numbering() -> Dict[str, int]:
    """Figure 2(b)'s satisfactory numbering: the identity on ``v1..v7``."""
    return {vertex_name(i): i for i in range(1, 8)}


def fig2a_numbering() -> Dict[str, int]:
    """Figure 2(a)'s unsatisfactory numbering: vertices 4 and 5 transposed.

    Topologically sorted, but ``S(2) = {1, 2, 3, 5}`` is not a sequential
    prefix, so :func:`repro.graph.numbering.verify_numbering` rejects it.
    """
    mapping = fig2b_numbering()
    mapping["v4"], mapping["v5"] = 5, 4
    return mapping


def fig3_graph() -> ComputationGraph:
    """The 6-node graph of Figure 3.

    Sources are ``v1`` and ``v2``; edges: 1->3, 2->3, 2->4, 3->5, 4->5,
    4->6.  Its restricted numbering is the identity with
    m = [2, 2, 4, 4, 6, 6, 6], which makes the paper's step-by-step set
    memberships ((3,1) partial after (1,1); (3,1) and (4,1) full+ready
    after (2,1); (5,1) partial after (3,1); (5,1) and (6,1) full after
    (4,1)) reproducible exactly.
    """
    g = ComputationGraph(name="fig3")
    for i in range(1, 7):
        g.add_vertex(vertex_name(i))
    g.add_edges(
        [
            ("v1", "v3"),
            ("v2", "v3"),
            ("v2", "v4"),
            ("v3", "v5"),
            ("v4", "v5"),
            ("v4", "v6"),
        ]
    )
    return g


#: Figure 3's eight steps: ``(label, executed)`` where *executed* is
#: ``None`` for "the environment starts the next phase" and
#: ``(v, p, output_targets)`` for "pair (v, p) executed and sent these".
FIG3_STEPS = (
    ("(a) Phase 1 initiated", None),
    ("(b) (1,1) executed", (1, 1, (3,))),
    ("(c) Phase 2 initiated", None),
    ("(d) (1,2) executed", (1, 2, ())),
    ("(e) (2,1) executed", (2, 1, (3, 4))),
    ("(f) (2,2) executed", (2, 2, (3, 4))),
    ("(g) (3,1) executed", (3, 1, (5,))),
    ("(h) (4,1) executed", (4, 1, (5, 6))),
)

#: The figure's ``(ready, partial)`` sets after each step.
FIG3_EXPECTED = (
    ({(1, 1), (2, 1)}, set()),
    ({(2, 1)}, {(3, 1)}),
    ({(2, 1), (1, 2)}, {(3, 1)}),
    ({(2, 1)}, {(3, 1)}),
    ({(2, 2), (3, 1), (4, 1)}, set()),
    ({(3, 1), (4, 1)}, set()),
    ({(3, 2), (4, 1)}, {(5, 1)}),
    ({(3, 2), (4, 2), (5, 1), (6, 1)}, set()),
)


def fig3_replay() -> list:
    """Replay :data:`FIG3_STEPS` on the published scheduler (Listings
    1-2) with the invariant checker attached; returns one
    :class:`~repro.core.tracer.SetSnapshot` per step."""
    # Imported here: repro.core builds on repro.graph, not the reverse.
    from ..core.invariants import InvariantChecker
    from ..core.reference import ReferenceScheduler
    from ..core.tracer import SetSnapshot
    from .numbering import number_graph

    state = ReferenceScheduler(
        number_graph(fig3_graph()), checker=InvariantChecker()
    )
    snapshots = []
    for label, executed in FIG3_STEPS:
        if executed is None:
            state.start_phase()
        else:
            state.complete_execution(*executed)
        snapshots.append(SetSnapshot.of(state, label))
    return snapshots


# ---------------------------------------------------------------------------
# Synthetic families
# ---------------------------------------------------------------------------


def chain_graph(n: int, name: str = "chain") -> ComputationGraph:
    """A linear pipeline ``v1 -> v2 -> ... -> vn`` (maximum depth, width 1)."""
    if n < 1:
        raise GraphError("chain_graph requires n >= 1")
    g = ComputationGraph(name=name)
    for i in range(1, n + 1):
        g.add_vertex(vertex_name(i))
    for i in range(1, n):
        g.add_edge(vertex_name(i), vertex_name(i + 1))
    return g


def diamond_graph(width: int = 2, name: str = "diamond") -> ComputationGraph:
    """One source fanning out to *width* parallel vertices joined at a sink."""
    if width < 1:
        raise GraphError("diamond_graph requires width >= 1")
    g = ComputationGraph(name=name)
    g.add_vertex("src")
    mids = [f"mid{i}" for i in range(1, width + 1)]
    g.add_vertices(mids)
    g.add_vertex("sink")
    for m in mids:
        g.add_edge("src", m)
        g.add_edge(m, "sink")
    return g


def fan_out_graph(fan: int, name: str = "fan_out") -> ComputationGraph:
    """One source feeding *fan* independent sinks."""
    if fan < 1:
        raise GraphError("fan_out_graph requires fan >= 1")
    g = ComputationGraph(name=name)
    g.add_vertex("src")
    for i in range(1, fan + 1):
        leaf = f"leaf{i}"
        g.add_vertex(leaf)
        g.add_edge("src", leaf)
    return g


def fan_in_graph(fan: int, name: str = "fan_in") -> ComputationGraph:
    """*fan* independent sources joined at one sink (a correlator shape)."""
    if fan < 1:
        raise GraphError("fan_in_graph requires fan >= 1")
    g = ComputationGraph(name=name)
    for i in range(1, fan + 1):
        g.add_vertex(f"src{i}")
    g.add_vertex("sink")
    for i in range(1, fan + 1):
        g.add_edge(f"src{i}", "sink")
    return g


def binary_tree_graph(depth: int, name: str = "tree") -> ComputationGraph:
    """A complete binary *reduction* tree: 2**depth sources folding into one
    sink over *depth* levels — the classic sensor-aggregation topology."""
    if depth < 0:
        raise GraphError("binary_tree_graph requires depth >= 0")
    g = ComputationGraph(name=name)
    # Level d has 2**(depth-d) nodes; level 0 is the leaves (sources).
    for level in range(depth + 1):
        for j in range(2 ** (depth - level)):
            g.add_vertex(f"n{level}_{j}")
    for level in range(depth):
        for j in range(2 ** (depth - level)):
            g.add_edge(f"n{level}_{j}", f"n{level + 1}_{j // 2}")
    return g


def layered_graph(
    layers: Sequence[int],
    density: float = 1.0,
    seed: int | None = None,
    name: str = "layered",
) -> ComputationGraph:
    """A random layered DAG.

    *layers* gives the vertex count per layer; each vertex in layer k+1
    receives each possible edge from layer k with probability *density*,
    but always at least one (so layer membership equals dataflow depth).
    Deterministic for a given *seed*.
    """
    if not layers or any(w < 1 for w in layers):
        raise GraphError("layered_graph requires at least one layer of width >= 1")
    if not 0.0 <= density <= 1.0:
        raise GraphError(f"density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    g = ComputationGraph(name=name)
    names: List[List[str]] = []
    for li, width in enumerate(layers):
        row = [f"L{li}_{j}" for j in range(width)]
        names.append(row)
        g.add_vertices(row)
    for li in range(len(layers) - 1):
        for dst in names[li + 1]:
            chosen = [src for src in names[li] if rng.random() < density]
            if not chosen:
                chosen = [rng.choice(names[li])]
            for src in chosen:
                g.add_edge(src, dst)
    return g


def random_dag(
    n: int,
    edge_prob: float = 0.3,
    seed: int | None = None,
    ensure_connected: bool = True,
    name: str = "random",
) -> ComputationGraph:
    """A general random DAG on *n* vertices.

    Vertices are created in a random topological order; each forward pair
    gets an edge with probability *edge_prob*.  With *ensure_connected*,
    every non-first vertex is guaranteed at least one predecessor OR kept
    as an extra source with probability proportional to ``1 - edge_prob``
    (so graphs exercise multi-source scheduling).  Deterministic per seed.
    """
    if n < 1:
        raise GraphError("random_dag requires n >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise GraphError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = random.Random(seed)
    order = [vertex_name(i) for i in range(1, n + 1)]
    rng.shuffle(order)
    g = ComputationGraph(name=name)
    g.add_vertices(order)
    for j in range(1, n):
        preds = [order[i] for i in range(j) if rng.random() < edge_prob]
        if not preds and ensure_connected and rng.random() < 0.7:
            preds = [order[rng.randrange(j)]]
        for p in preds:
            g.add_edge(p, order[j])
    return g
