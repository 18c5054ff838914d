"""Domain compositions: the paper's motivating applications, executable.

Each module builds a complete :class:`~repro.core.program.Program` plus
its phase inputs:

* :mod:`~repro.models.domains.power` — the Section 1 electricity-pricing
  example: temperature assumptions, violation events, demand and price
  models;
* :mod:`~repro.models.domains.laundering` — the money-laundering example
  whose option-1/option-2 emission rates motivate Δ-dataflow;
* :mod:`~repro.models.domains.epidemic` — the Section 1 predicate: weekly
  incidence two standard deviations away from a neighbor-county
  regression model;
* :mod:`~repro.models.domains.intrusion` — multi-sensor composite
  condition detection;
* :mod:`~repro.models.domains.keyed` — per-account laundering chains:
  independent heavy-traffic chains, the serve layer's fixture.
"""

from .power import build_power_pricing_program, build_power_pricing_workload
from .laundering import build_laundering_program, build_laundering_workload
from .epidemic import build_epidemic_program, build_epidemic_workload
from .intrusion import build_intrusion_program, build_intrusion_workload
from .crisis import build_crisis_program, build_crisis_workload
from .keyed import (
    KeyedWorkload,
    StructuringDetector,
    build_keyed_program,
    build_keyed_workload,
    keyed_arrivals,
)

__all__ = [
    "KeyedWorkload",
    "StructuringDetector",
    "build_keyed_program",
    "build_keyed_workload",
    "keyed_arrivals",
    "build_power_pricing_program",
    "build_power_pricing_workload",
    "build_laundering_program",
    "build_laundering_workload",
    "build_epidemic_program",
    "build_epidemic_workload",
    "build_intrusion_program",
    "build_intrusion_workload",
    "build_crisis_program",
    "build_crisis_workload",
]
