"""Cost models for the simulated SMP.

A :class:`CostModel` maps each activity of the algorithm to a virtual
duration:

* ``compute_cost`` — executing one vertex-phase pair (the model
  evaluation: the work the paper parallelises).  Either a constant or a
  callable ``(vertex_name, phase) -> float``.
* ``bookkeeping_cost`` — one pass through the locked critical section of
  Listing 1 (set updates, x maintenance, ready moves).  The paper's
  Section 4 prediction is parameterised exactly by the ratio
  ``compute_cost / bookkeeping_cost``.
* ``phase_start_cost`` — the environment's locked phase-start section.
* ``jitter`` / ``seed`` — optional multiplicative noise on compute costs
  (uniform in ``[1 - jitter, 1 + jitter]``), used by the property tests to
  diversify schedules deterministically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Union

from ..errors import SimulationError

__all__ = ["CostModel"]

CostFn = Union[float, Callable[[str, int], float]]


@dataclass
class CostModel:
    """Virtual durations for each simulated activity (see module docs)."""

    compute_cost: CostFn = 1.0
    bookkeeping_cost: float = 0.05
    phase_start_cost: float = 0.05
    jitter: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        for name in ("compute_cost", "bookkeeping_cost", "phase_start_cost"):
            cost = getattr(self, name)
            # Both comparisons are false for NaN, which would read as no time.
            if not callable(cost) and not 0 <= cost < math.inf:
                raise SimulationError(f"{name} must be finite and >= 0, got {cost}")
        if not 0.0 <= self.jitter < 1.0:
            raise SimulationError(f"jitter must be in [0, 1), got {self.jitter}")
        self.reset()

    def reset(self) -> None:
        """Re-seed the jitter stream (engines call this at run start so the
        same model object gives identical runs)."""
        self._rng = random.Random(self.seed)

    def vertex_cost(self, vertex_name: str, phase: int) -> float:
        """Virtual compute duration for one vertex-phase execution."""
        base = (
            self.compute_cost(vertex_name, phase)
            if callable(self.compute_cost)
            else self.compute_cost
        )
        if not 0 <= base < math.inf:
            raise SimulationError(
                f"compute cost for ({vertex_name!r}, {phase}) is not finite >= 0: {base}"
            )
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return base

    def grain_ratio(self, reference_compute: float | None = None) -> float:
        """``compute / bookkeeping`` — the paper's linear-speedup knob.

        For callable compute costs pass a representative value."""
        if self.bookkeeping_cost == 0:
            return float("inf")
        if reference_compute is None:
            if callable(self.compute_cost):
                raise SimulationError(
                    "grain_ratio needs reference_compute for callable costs"
                )
            reference_compute = self.compute_cost
        return reference_compute / self.bookkeeping_cost
