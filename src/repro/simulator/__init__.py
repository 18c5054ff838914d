"""Simulated shared-memory multiprocessor.

CPython's GIL serialises pure-Python threads, so the paper's Section 4
measurements (speedup of k computation threads on a P-processor SMP)
cannot be observed directly with Python threads executing Python vertex
code.  This package substitutes the *hardware*, not the algorithm: the
same schedulers (the engines' :class:`~repro.core.state.SchedulerState`
or the published :class:`~repro.core.reference.ReferenceScheduler`),
:class:`~repro.core.program.PairRuntime` and vertex behaviours execute
under a discrete-event simulation of

* P processors (threads must hold one to burn virtual time),
* the single global lock (FIFO waiters, held across bookkeeping bursts),
* the blocking run queue, and
* k worker threads plus the always-present environment thread,

with per-vertex compute costs and per-critical-section bookkeeping costs
supplied by a :class:`~repro.simulator.costs.CostModel`.  Virtual makespan
replaces wall-clock time; every scheduling decision is made by the real
algorithm, so correctness results transfer and speedup *shape* (who wins,
crossovers, Amdahl limits) is preserved.

Modules:

* :mod:`~repro.simulator.des` — the minimal discrete-event kernel
  (events, processes-as-generators, FIFO resources, stores);
* :mod:`~repro.simulator.costs` — cost models;
* :mod:`~repro.simulator.machine` — :class:`SimulatedEngine`;
* :mod:`~repro.simulator.metrics` — speedup curves and utilization.
"""

from .des import Simulation, Resource, Store, Process
from .costs import CostModel
from .machine import SimulatedEngine
from .metrics import speedup_curve, SpeedupPoint

__all__ = [
    "Simulation",
    "Resource",
    "Store",
    "Process",
    "CostModel",
    "SimulatedEngine",
    "speedup_curve",
    "SpeedupPoint",
]
