"""Race and invariant monitoring for explored schedules.

:class:`RaceMonitor` plugs into the engine twice at once:

* as the **checker** (``checker=monitor``): at every scheduling-set
  mutation it re-derives definitions (7)-(9), the x-consistency equations
  and the pmax bound via a non-strict
  :class:`~repro.core.invariants.InvariantChecker`, and additionally
  checks the lifecycle properties below;
* as the **tracer** (``tracer=monitor``): it observes phase starts,
  enqueues and execution begin/end events, which is where the lifecycle
  state machine lives.

Lifecycle properties checked (each one is a theorem of Section 3.3 that a
seeded concurrency bug can break):

* every vertex-phase pair is **enqueued at most once**;
* a pair may only **begin executing while it is ready**, run-claimed (a
  coalesced run extension certified by ``claim_run``) or in the window
  of phases open to a sweep — dequeue-to-execute justified by definition
  (8), or a certificate, at that instant — and once, bar the tail of a
  cut run (claimed, or left by a sweep that ended early);
* an **executed pair never reappears** in partial / full / ready
  (exactly-once execution, Section 3.3.4);
* phase starts are **contiguous** (pmax increments by one).

Unlike the strict checker, the monitor never raises from inside the
engine: violations are recorded with the *schedule step* at which they
were observed, so a fuzz run can report the minimal divergent step trace
and keep the scheduler coherent enough to unwind.  Attach it to a
:class:`~repro.testing.schedule.VirtualScheduler` to stamp violations
with step indices and capture the trace tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..core.invariants import InvariantChecker
from ..core.tracer import ExecutionTracer
from ..errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover
    from ..core.state import SchedulerState
    from .schedule import ScheduleStep, VirtualScheduler

Pair = Tuple[int, int]

__all__ = ["RaceMonitor", "MonitorViolation"]


@dataclass(frozen=True)
class MonitorViolation:
    """One observed violation, stamped with where in the schedule it hit.

    ``step`` is the index of the scheduling decision during which the
    violation was detected (−1 when no scheduler is attached), and
    ``trace_tail`` the immediately preceding schedule steps — the minimal
    divergent suffix to look at when diagnosing the interleaving.
    """

    step: int
    kind: str
    description: str
    trace_tail: Tuple[Tuple[int, str, str], ...] = ()

    def __str__(self) -> str:
        where = f"@step {self.step}" if self.step >= 0 else "@?"
        return f"[{self.kind} {where}] {self.description}"


class RaceMonitor(ExecutionTracer):
    """Checks scheduling-set invariants and pair-lifecycle properties at
    every step of an explored schedule.  See the module docstring."""

    def __init__(self, trace_tail: int = 25) -> None:
        # Events are stamped with an observation counter, not wall time:
        # strictly increasing, so interval analyses stay well-formed, and
        # deterministic, so traces hash stably across runs.
        self._ticks = 0
        super().__init__(clock=self._tick)
        self._invariants = InvariantChecker(strict=False)
        self._seen_invariants = 0
        self._tail_len = trace_tail
        self._scheduler: Optional["VirtualScheduler"] = None
        self._enqueued: Set[Pair] = set()
        self._executed: Set[Pair] = set()
        self._begun: Set[Pair] = set()
        # Pairs begun in a sweep and not yet ended, with its window.
        self._swept: Dict[Pair, Tuple[int, int]] = {}
        self._last_phase = 0  # the last phase started
        self._last_state: Optional["SchedulerState"] = None
        self.violations: List[MonitorViolation] = []
        self.checks_run = 0

    # -- wiring -----------------------------------------------------------

    def attach(self, scheduler: "VirtualScheduler") -> "RaceMonitor":
        """Stamp future violations with *scheduler*'s step index/trace."""
        self._scheduler = scheduler
        return self

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violations(self) -> None:
        if self.violations:
            raise InvariantViolation(self.report())

    def report(self) -> str:
        """Human-readable summary of every violation with its step trace."""
        if not self.violations:
            return f"race monitor: clean ({self.checks_run} checks)"
        lines = [
            f"race monitor: {len(self.violations)} violation(s) "
            f"in {self.checks_run} checks"
        ]
        for v in self.violations:
            lines.append(f"  {v}")
            for idx, task, point in v.trace_tail[-self._tail_len:]:
                lines.append(f"      step {idx}: {task} @ {point}")
        return "\n".join(lines)

    # -- checker protocol (SchedulerState calls this under its mutators) --

    def check(self, state: "SchedulerState") -> None:
        self.checks_run += 1
        self._last_state = state
        self._invariants.check(state)
        new = self._invariants.violations[self._seen_invariants:]
        self._seen_invariants = len(self._invariants.violations)
        for message in new:
            self._record("invariant", message)
        live = state.partial_set() | state.full_set() | state.ready_set()
        zombies = sorted(self._executed & live)
        if zombies:
            self._record(
                "lifecycle",
                f"executed pair(s) reappeared in the scheduling sets: "
                f"{zombies} (exactly-once execution violated)",
            )

    # -- tracer protocol (the engine calls these) -------------------------

    def phase_started(self, phase: int) -> None:
        super().phase_started(phase)
        if phase != self._last_phase + 1:
            self._record(
                "lifecycle",
                f"phase {phase} started after phase {self._last_phase} "
                f"(non-contiguous pmax)",
            )
        self._last_phase = phase

    def enqueued(self, pair: Pair) -> None:
        super().enqueued(pair)
        if pair in self._enqueued:
            self._record(
                "lifecycle", f"pair {pair} enqueued more than once"
            )
        self._enqueued.add(pair)

    def execute_begin(self, pair: Pair, worker: Optional[int] = None) -> None:
        super().execute_begin(pair, worker)
        state = self._last_state
        # O(1) membership — the per-dequeue hot path must not force a
        # ready-set snapshot; the full set is only materialised (below)
        # to describe an actual violation.  A claimed run extension is
        # licensed to execute without being ready (claim_run certified
        # its inputs final at claim time), and so is every pair of the
        # window of phases open to a sweep.  A cut run's unended tail
        # begins again: claimed, or left by a sweep that ended early.
        claimed = state is not None and state.is_run_claimed(pair)
        window = getattr(state, "sweeping", (0, 0))
        swept = window[0] <= pair[1] <= window[1]
        handed_over = pair not in self._executed and (
            claimed or self._swept.get(pair, window) != window
        )
        if pair in self._begun and not handed_over:
            self._record(
                "lifecycle",
                f"pair {pair} began executing twice (worker {worker})",
            )
        self._begun.add(pair)
        if swept:
            self._swept[pair] = window
        elif state is not None and not (claimed or state.is_ready(pair)):
            self._record(
                "lifecycle",
                f"pair {pair} began executing while neither ready nor "
                f"run-claimed (worker {worker}); ready was "
                f"{sorted(state.ready_set())}",
            )

    def execute_end(self, pair: Pair, worker: Optional[int] = None) -> None:
        super().execute_end(pair, worker)
        if pair in self._executed:
            self._record(
                "lifecycle",
                f"pair {pair} completed execution twice (worker {worker})",
            )
        self._executed.add(pair)
        self._swept.pop(pair, None)

    # -- internals --------------------------------------------------------

    def _tick(self) -> float:
        self._ticks += 1
        return float(self._ticks)

    def _record(self, kind: str, description: str) -> None:
        step = -1
        tail: Tuple[Tuple[int, str, str], ...] = ()
        sched = self._scheduler
        if sched is not None:
            step = sched.steps - 1
            tail = tuple(
                (s.index, s.task, s.point)
                for s in sched.trace[-self._tail_len:]
            )
        self.violations.append(MonitorViolation(step, kind, description, tail))
