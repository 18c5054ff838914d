"""Tests for ancestor cones (:mod:`repro.graph.cones`).

The cone layer underpins the per-dependency frontier mode of the
scheduler: ``ancestors(v)`` must be exactly the set of vertices with a
directed path into *v*, and every cone must live below ``enable(v)`` (the
restricted-numbering prefix property).
"""

import random

import pytest

from repro.graph.cones import ConeIndex
from repro.graph.generators import (
    chain_graph,
    diamond_graph,
    fan_in_graph,
    fig1_graph,
    random_dag,
)
from repro.graph.model import ComputationGraph
from repro.graph.numbering import number_graph
from repro.streams.workloads import wide_workload


def brute_force_ancestors(numbering, v):
    """Ancestors of *v* by reverse reachability over the index graph."""
    seen = set()
    stack = list(numbering.predecessor_indices(v))
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(numbering.predecessor_indices(u))
    return frozenset(seen)


def numbering_of(graph):
    return number_graph(graph)


class TestConeDerivation:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_on_random_dags(self, seed):
        rng = random.Random(seed)
        g = random_dag(
            rng.randint(2, 12), edge_prob=rng.uniform(0.1, 0.7), seed=seed
        )
        num = numbering_of(g)
        cones = ConeIndex(num)
        for v in range(1, num.n + 1):
            expected = brute_force_ancestors(num, v)
            assert cones.ancestors(v) == expected
            assert cones.cone(v) == expected | {v}

    @pytest.mark.parametrize("seed", range(40))
    def test_prefix_property_on_random_dags(self, seed):
        g = random_dag(10, edge_prob=0.4, seed=seed)
        cones = ConeIndex(numbering_of(g))
        cones.verify_prefix_property()
        for v in range(1, cones.n + 1):
            anc = cones.ancestors(v)
            assert all(u <= cones.enable[v] for u in anc)
            assert cones.is_source(v) == (not anc)

    def test_enable_and_in_degree_tables(self):
        g = diamond_graph()
        num = numbering_of(g)
        cones = ConeIndex(num)
        for v in range(1, num.n + 1):
            preds = num.predecessor_indices(v)
            assert cones.preds[v] == preds
            assert cones.in_degree[v] == len(preds)
            assert cones.enable[v] == (max(preds) if preds else 0)
            assert cones.succs[v] == num.successor_indices(v)


class TestConeCount:
    def test_chain_has_n_distinct_cones(self):
        cones = ConeIndex(numbering_of(chain_graph(6)))
        assert cones.cone_count == 6

    def test_fan_in_cones(self):
        # fan sources each own a singleton cone; the sink's cone is
        # everything — fan + 1 distinct cones.
        cones = ConeIndex(numbering_of(fan_in_graph(5)))
        assert cones.cone_count == 6

    def test_wide_forest_is_all_distinct(self):
        program, _ = wide_workload(lanes=3, depth=3, phases=1)
        cones = ConeIndex(program.numbering)
        assert cones.cone_count == 9  # every vertex's cone is lane-local

    def test_duplicate_cones_collapse(self):
        # Two sinks with identical predecessor sets share an ancestor set
        # but still have distinct cones (each contains itself).
        g = ComputationGraph(name="dup")
        g.add_vertices(["s", "a", "b"])
        g.add_edge("s", "a")
        g.add_edge("s", "b")
        cones = ConeIndex(numbering_of(g))
        assert cones.cone_count == 3


class TestFig1:
    def test_fig1_cones_are_nested_correctly(self):
        cones = ConeIndex(numbering_of(fig1_graph()))
        cones.verify_prefix_property()
        # Every vertex's cone contains the cones of its predecessors.
        for v in range(1, cones.n + 1):
            for u in cones.preds[v]:
                assert cones.cone(u) <= cones.cone(v)
