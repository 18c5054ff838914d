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

The package re-exports nothing: import from the submodule that defines a
name.  It defines the two name lists the CLI parser offers, so every
``repro`` process spells them without loading the virtual scheduler; a
re-export here would load the whole fuzz harness into ``repro serve``.
:mod:`~repro.testing.fuzz` is also the name of the function
:func:`repro.testing.fuzz.fuzz`.
"""

FAULT_NAMES = ("unlocked_commit", "unlocked_start_phase", "duplicate_enqueue")
POLICY_NAMES = ("random", "round-robin", "priority")
