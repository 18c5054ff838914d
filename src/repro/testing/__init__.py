"""Deterministic schedule exploration for the parallel engine.

The paper's correctness claim (Section 3.3) quantifies over every
interleaving of the computation and environment loops; this package makes
interleavings first-class test inputs:

* :mod:`~repro.testing.schedule` — a cooperative virtual scheduler with
  pluggable, seeded interleaving policies, replayable from a
  ``(seed, policy)`` pair;
* :mod:`~repro.testing.monitor` — a race/invariant monitor checking
  definitions (7)-(9) and pair-lifecycle properties at every step;
* :mod:`~repro.testing.faults` — seeded concurrency-bug injection, to
  prove the harness *finds* bugs, not merely that clean runs stay green;
* :mod:`~repro.testing.fuzz` — the stress driver behind ``repro fuzz``:
  random DAGs × Δ-sparse streams × explored schedules, judged against the
  serial oracle, with greedy shrinking of failures.
"""

from .faults import FAULT_NAMES, FaultPlan
from .fuzz import (
    FuzzFailure,
    FuzzReport,
    RunOutcome,
    SparseSource,
    WorkloadSpec,
    fuzz,
    fuzz_process,
    process_config_for_run,
    scripted_placement,
    replay_failure,
    run_one,
    run_one_process,
    shrink,
    spec_for_run,
    write_failure_artifacts,
)
from .monitor import MonitorViolation, RaceMonitor
from .schedule import (
    POLICY_NAMES,
    PriorityFuzzPolicy,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    ScheduleStep,
    SchedulingPolicy,
    VirtualBackend,
    VirtualScheduler,
    VirtualTask,
    make_policy,
)

__all__ = [
    "FAULT_NAMES",
    "FaultPlan",
    "FuzzFailure",
    "FuzzReport",
    "MonitorViolation",
    "POLICY_NAMES",
    "PriorityFuzzPolicy",
    "RaceMonitor",
    "RandomPolicy",
    "ReplayPolicy",
    "RoundRobinPolicy",
    "RunOutcome",
    "ScheduleStep",
    "SparseSource",
    "SchedulingPolicy",
    "VirtualBackend",
    "VirtualScheduler",
    "VirtualTask",
    "WorkloadSpec",
    "fuzz",
    "fuzz_process",
    "make_policy",
    "process_config_for_run",
    "scripted_placement",
    "replay_failure",
    "run_one",
    "run_one_process",
    "shrink",
    "spec_for_run",
    "write_failure_artifacts",
]
