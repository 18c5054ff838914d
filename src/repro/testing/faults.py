"""Seeded concurrency-bug injection.

The schedule-exploration harness must not only *pass* on the correct
engine — it must demonstrably *fail* on a broken one, else a green fuzz
run means nothing.  :class:`FaultPlan` names the classic bugs the engine
guards against; :class:`~repro.runtime.engine.ParallelEngine` reads the
flags through ``getattr`` (never importing this module), so the seams
cost nothing in production.

Each fault removes one ingredient of the paper's correctness argument:

``unlocked_commit``
    Run Listing 1's statements 1.5-1.8 (complete execution, update x,
    insert outputs) *outside* the global lock.  With preemption points
    inside :class:`~repro.core.state.SchedulerState`'s mutators, two
    workers can interleave mid-update — exactly the race the Section 3.3
    unlock-point argument excludes.

``unlocked_start_phase``
    Run Listing 2's phase start outside the lock, racing the environment
    against worker commits.

``duplicate_enqueue``
    Enqueue every newly ready pair twice, violating the exactly-once
    execution premise of Section 3.3.4.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import FAULT_NAMES

__all__ = ["FaultPlan", "FAULT_NAMES"]


@dataclass(frozen=True)
class FaultPlan:
    """Which seeded bugs to inject into the engine (all off by default)."""

    unlocked_commit: bool = False
    unlocked_start_phase: bool = False
    duplicate_enqueue: bool = False

    @classmethod
    def named(cls, name: str) -> "FaultPlan":
        """Build a plan enabling the single fault called *name*."""
        if name not in FAULT_NAMES:
            raise ValueError(
                f"unknown fault {name!r}; choose from {sorted(FAULT_NAMES)}"
            )
        return cls(**{name: True})

    def active(self) -> list:
        return [f for f in FAULT_NAMES if getattr(self, f)]

    def __str__(self) -> str:
        on = self.active()
        return f"FaultPlan({', '.join(on) if on else 'none'})"
