"""Ancestor cones over a restricted numbering.

The global frontier ``x_p`` of Listing 1 serialises readiness across the
whole graph: a pair ``(w, q)`` becomes full only once ``x_q >= enable(w)``,
so one slow low-indexed vertex holds back *every* higher-indexed vertex in
the phase — even vertices it cannot reach.  The cone rule of the engines'
:class:`~repro.core.state.SchedulerState` relaxes this to the true
data dependencies: a pair waits only on its **ancestor cone**, the set of
vertices with a directed path into it.

This module derives the cone structure once per numbering:

* ``enable(v)`` — the highest-indexed direct predecessor (0 for sources),
  exactly the quantity the restricted-numbering property is stated over;
* sorted predecessor / successor index lists and the in-degree table that
  the determination wave of the cone scheduler consumes;
* ancestor bitmasks (arbitrary-precision ints, one bit per vertex), from
  which :attr:`ConeIndex.cone_count` — the number of *distinct* cones,
  i.e. the graph's independent-progress capacity — is computed.

The numbering-prefix property makes cones cheap and well-ordered: every
edge goes from a lower to a higher index, so ``ancestors(v) ⊆
{1..enable(v)}`` and one ascending pass computes every mask.

:func:`stage_cones` lifts cones through a fused
:class:`~repro.core.plan.ExecutionPlan`: a stage's cone is the union of
its members' cones in the source graph (minus the stage's own members).
Because fusion only collapses linear chains — and relabelling preserves
the edge direction — this union is exactly the projection of the
plan-space cone, which ``tests/graph/test_cones.py`` asserts.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from .numbering import Numbering

__all__ = ["ConeIndex", "stage_cones"]


class ConeIndex:
    """Per-vertex ancestor-cone structure for one numbering.

    All tables are indexed ``1..N`` (slot 0 unused), matching the paper's
    vertex indices.  Construction is O(N + E); the ancestor bitmasks (and
    everything derived from them) are computed lazily on first use.
    """

    __slots__ = ("numbering", "n", "enable", "preds", "succs", "in_degree", "_masks", "_cone_count")

    def __init__(self, numbering: Numbering) -> None:
        self.numbering = numbering
        n = numbering.n
        self.n = n
        self.preds: List[List[int]] = [[]] + [
            numbering.predecessor_indices(v) for v in range(1, n + 1)
        ]
        self.succs: List[List[int]] = [[]] + [
            numbering.successor_indices(v) for v in range(1, n + 1)
        ]
        self.enable: List[int] = [0] + [
            (self.preds[v][-1] if self.preds[v] else 0) for v in range(1, n + 1)
        ]
        self.in_degree: List[int] = [0] + [len(self.preds[v]) for v in range(1, n + 1)]
        self._masks: List[int] | None = None
        self._cone_count: int | None = None

    # -- ancestor masks (lazy) --------------------------------------------

    def _ancestor_masks(self) -> List[int]:
        """``masks[v]`` has bit ``u`` set iff ``u`` is a strict ancestor of
        ``v``.  One ascending pass suffices: every predecessor has a lower
        index, so its mask is already final."""
        if self._masks is None:
            masks = [0] * (self.n + 1)
            for v in range(1, self.n + 1):
                acc = 0
                for u in self.preds[v]:
                    acc |= masks[u] | (1 << u)
                masks[v] = acc
            self._masks = masks
        return self._masks

    def ancestors(self, v: int) -> FrozenSet[int]:
        """The strict ancestor set of vertex *v* (empty for sources)."""
        mask = self._ancestor_masks()[v]
        return frozenset(
            u for u in range(1, self.n + 1) if mask >> u & 1
        )

    def cone(self, v: int) -> FrozenSet[int]:
        """The ancestor cone of *v*: its ancestors plus *v* itself — the
        exact set of vertices whose phase progress gates ``(v, q)``."""
        mask = self._ancestor_masks()[v] | (1 << v)
        return frozenset(
            u for u in range(1, self.n + 1) if mask >> u & 1
        )

    @property
    def cone_count(self) -> int:
        """Number of distinct ancestor cones — an upper bound on how many
        independent progress frontiers the graph supports (the global
        frontier collapses them all to one)."""
        if self._cone_count is None:
            masks = self._ancestor_masks()
            self._cone_count = len(
                {masks[v] | (1 << v) for v in range(1, self.n + 1)}
            )
        return self._cone_count

    def is_source(self, v: int) -> bool:
        return self.enable[v] == 0

    def verify_prefix_property(self) -> None:
        """Assert ``ancestors(v) ⊆ {1..enable(v)}`` for every vertex — the
        cone-localisation corollary of the restricted numbering (tested,
        and relied on by the settled-phase scan of the cone scheduler)."""
        masks = self._ancestor_masks()
        for v in range(1, self.n + 1):
            bound = self.enable[v]
            if masks[v] >> (bound + 1):
                raise AssertionError(
                    f"vertex {v}: ancestor above enable({v}) = {bound}"
                )


def stage_cones(plan) -> Dict[str, FrozenSet[str]]:
    """Ancestor cones of a fused plan's stages, by *source-graph* names.

    For each plan vertex (stage), returns the union of its members'
    source-space ancestor cones minus the stage's own members — i.e. the
    external vertices whose progress gates the stage.  For an unfused plan
    this is exactly the per-vertex strict ancestor set.
    """
    source = plan.source
    cones = ConeIndex(source.numbering)
    index_of = source.numbering.index_of
    name_of = source.numbering.name_of
    out: Dict[str, FrozenSet[str]] = {}
    for stage in plan.program.graph.vertices():
        members = plan.members(stage)
        union = 0
        masks = cones._ancestor_masks()
        for member in members:
            v = index_of[member]
            union |= masks[v] | (1 << v)
        member_set = set(members)
        out[stage] = frozenset(
            name_of(u)
            for u in range(1, cones.n + 1)
            if union >> u & 1 and name_of(u) not in member_set
        )
    return out
