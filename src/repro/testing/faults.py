"""Seeded hand-off bugs.

The schedule-exploration harness must not only *pass* on the correct
engine — it must demonstrably *fail* on a broken one, else a green fuzz
run means nothing.  :class:`FaultPlan` names the bugs the coordinator's
hand-back seam guards against (:func:`repro.runtime.driver.drive` reads
the flags through ``getattr``, never importing this module, so the seams
cost nothing in production).  Each breaks the exactly-once execution
premise of Section 3.3.4 in its own way:

``deliver_twice``
    Deliver and commit every hand-back twice: a result delivered twice.

``commit_handed_over``
    When a staked run is cut, commit the first member of the tail as
    well as handing the tail over: a result committed for a claim that
    was salvaged and handed over, which then executes again away.

``lose_handback``
    Drop the first hand-back on the floor: its claims never complete,
    and the run wedges.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import FAULT_NAMES

__all__ = ["FaultPlan", "FAULT_NAMES"]


@dataclass(frozen=True)
class FaultPlan:
    """Which seeded bugs to inject into the engine (all off by default)."""

    deliver_twice: bool = False
    commit_handed_over: bool = False
    lose_handback: bool = False

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
