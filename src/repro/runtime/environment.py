"""Configuration of the environment process (Listing 2).

The environment process starts phases.  In the paper's simplified form it
"merely starts new phases repeatedly", sleeping between them; in a real
deployment it would be driven by the arrival of external data.  The engine
supports both styles through :class:`EnvironmentConfig`:

* ``pacing`` — seconds to sleep between phase starts (statement 2.22;
  0 means start the next phase as soon as flow control allows);
* ``max_in_flight_phases`` — an optional bound on started-but-incomplete
  phases.  The paper's environment is unthrottled, which lets edge
  histories grow with the number of phases in flight; the bound trades a
  little pipelining freedom for bounded memory.  ``None`` reproduces the
  paper exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import EngineError

__all__ = ["EnvironmentConfig"]


@dataclass(frozen=True, slots=True)
class EnvironmentConfig:
    """Pacing and flow control for the environment thread."""

    pacing: float = 0.0
    max_in_flight_phases: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pacing < 0:
            raise EngineError(f"pacing must be >= 0, got {self.pacing}")
        if self.max_in_flight_phases is not None and self.max_in_flight_phases < 1:
            raise EngineError(
                f"max_in_flight_phases must be >= 1 or None, "
                f"got {self.max_in_flight_phases}"
            )
