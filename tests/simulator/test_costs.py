"""Tests for cost models."""

import pytest

from repro.errors import SimulationError
from repro.simulator.costs import CostModel


class TestCostModel:
    def test_constant_compute(self):
        cm = CostModel(compute_cost=2.5)
        assert cm.vertex_cost("v", 1) == 2.5

    def test_callable_compute(self):
        cm = CostModel(compute_cost=lambda name, phase: len(name) * phase)
        assert cm.vertex_cost("abc", 2) == 6

    def test_negative_callable_cost_rejected(self):
        cm = CostModel(compute_cost=lambda n, p: -1.0)
        with pytest.raises(SimulationError):
            cm.vertex_cost("v", 1)

    def test_negative_fixed_costs_rejected(self):
        with pytest.raises(SimulationError):
            CostModel(bookkeeping_cost=-0.1)
        with pytest.raises(SimulationError):
            CostModel(phase_start_cost=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize(
        "name", ["compute_cost", "bookkeeping_cost", "phase_start_cost"]
    )
    def test_non_finite_fixed_costs_rejected(self, name, bad):
        # NaN compares false both ways: it would read as no time at all.
        with pytest.raises(SimulationError, match=name):
            CostModel(**{name: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_callable_cost_rejected(self, bad):
        cm = CostModel(compute_cost=lambda n, p: bad)
        with pytest.raises(SimulationError, match="not finite"):
            cm.vertex_cost("v", 1)

    def test_jitter_bounds(self):
        cm = CostModel(compute_cost=10.0, jitter=0.2, seed=3)
        costs = [cm.vertex_cost("v", p) for p in range(200)]
        assert all(8.0 <= c <= 12.0 for c in costs)
        assert len(set(round(c, 9) for c in costs)) > 1

    def test_invalid_jitter(self):
        with pytest.raises(SimulationError):
            CostModel(jitter=1.0)
        with pytest.raises(SimulationError):
            CostModel(jitter=-0.1)

    def test_jitter_reset_reproduces(self):
        cm = CostModel(compute_cost=1.0, jitter=0.5, seed=7)
        first = [cm.vertex_cost("v", p) for p in range(10)]
        cm.reset()
        assert [cm.vertex_cost("v", p) for p in range(10)] == first

    def test_grain_ratio(self):
        cm = CostModel(compute_cost=10.0, bookkeeping_cost=0.5)
        assert cm.grain_ratio() == 20.0

    def test_grain_ratio_zero_bookkeeping(self):
        cm = CostModel(compute_cost=1.0, bookkeeping_cost=0.0)
        assert cm.grain_ratio() == float("inf")

    def test_grain_ratio_callable_needs_reference(self):
        cm = CostModel(compute_cost=lambda n, p: 1.0)
        with pytest.raises(SimulationError):
            cm.grain_ratio()
        assert cm.grain_ratio(reference_compute=5.0) == 100.0
