"""Exhaustive schedule exploration: model checking the algorithm.

The property tests sample random schedules; for *small* programs we can do
better — enumerate **every** reachable schedule and check that each one

* keeps the invariant checker (definitions (7)–(9)) green at every step,
* executes every vertex-phase pair at most once,
* reaches quiescence, and
* produces the *same* externally visible outcome (executed-pair set,
  per-vertex records, message count) — serializability over the entire
  schedule space, not a sample of it.

The scheduler's nondeterminism is exactly: which ready pair a worker
dequeues next, interleaved with when the environment starts the next
phase.  Because vertex behaviour is deterministic, a schedule's future
depends only on *which pairs have executed* and *how many phases have
started* — so exploration memoises on that signature and the state space
collapses from (orderings) to (antichains of the execution order), small
for small graphs.

Scope: exploration replays the program from scratch along each DFS path
(behaviours are reset per replay), so it is exponential in principle and
bounded by ``max_states``; it is a verification tool for graphs of ~≤ 8
vertices and ~≤ 3 phases, not an engine.

Example
-------
>>> from repro.verification import explore_all_schedules   # doctest: +SKIP
>>> report = explore_all_schedules(program, phases)        # doctest: +SKIP
>>> report.consistent                                       # doctest: +SKIP
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Sequence, Set, Tuple

from .core.invariants import InvariantChecker
from .core.program import PairRuntime, Program
from .core.reference import ReferenceScheduler
from .core.state import Pair
from .errors import ReproError
from .events import PhaseInput

__all__ = ["ScheduleExplorationReport", "explore_all_schedules"]

Signature = Tuple[FrozenSet[Pair], int]
Outcome = Tuple[
    FrozenSet[Pair],  # executed pairs
    Tuple[Tuple[str, Tuple[Tuple[int, Any], ...]], ...],  # records
    int,  # message count
]


@dataclass
class ScheduleExplorationReport:
    """What exhaustive exploration found.

    ``signatures_explored`` counts distinct reachable (executed-set,
    phases-started) signatures — each corresponds to an equivalence class
    of schedule prefixes with identical futures; ``complete_schedules``
    counts the terminal signatures among them (1 when consistent).
    """

    signatures_explored: int
    complete_schedules: int
    outcomes: List[Outcome] = field(default_factory=list)
    truncated: bool = False

    @property
    def consistent(self) -> bool:
        """True iff every complete schedule produced the same outcome."""
        return len(self.outcomes) == 1 and not self.truncated

    def __repr__(self) -> str:
        return (
            f"ScheduleExplorationReport(signatures={self.signatures_explored}, "
            f"complete={self.complete_schedules}, "
            f"outcomes={len(self.outcomes)}, truncated={self.truncated})"
        )


class _Replay:
    """One concrete execution prefix: a fresh state/runtime replayed over a
    fixed action sequence.  Actions: ("start",) or ("exec", v, p)."""

    def __init__(self, program: Program, phases: Sequence[PhaseInput]) -> None:
        program.reset()
        self.runtime = PairRuntime(program, phases)
        self.state = ReferenceScheduler(
            program.numbering, checker=InvariantChecker()
        )
        self.ready: Set[Pair] = set()
        self.executed: Set[Pair] = set()
        self.started = 0
        self.num_phases = len(phases)

    def apply(self, action: Tuple) -> None:
        if action[0] == "start":
            self.ready.update(self.state.start_phase())
            self.started += 1
        else:
            _, v, p = action
            targets = self.runtime.execute(v, p)
            self.ready.discard((v, p))
            self.ready.update(self.state.complete_execution(v, p, targets))
            self.executed.add((v, p))

    def options(self) -> List[Tuple]:
        opts: List[Tuple] = []
        if self.started < self.num_phases:
            opts.append(("start",))
        opts.extend(("exec", v, p) for v, p in sorted(self.ready))
        return opts

    def signature(self) -> Signature:
        return (frozenset(self.executed), self.started)

    def complete(self) -> bool:
        return self.started == self.num_phases and self.state.all_started_complete()

    def outcome(self) -> Outcome:
        records = tuple(
            sorted(
                (vertex, tuple(log))
                for vertex, log in self.runtime.records.items()
            )
        )
        return (frozenset(self.executed), records, self.runtime.message_count)


def explore_all_schedules(
    program: Program,
    phases: Sequence[PhaseInput],
    max_states: int = 20_000,
) -> ScheduleExplorationReport:
    """Enumerate every reachable schedule of *program* over *phases*.

    Raises through any :class:`~repro.errors.InvariantViolation` or
    scheduler error encountered along *any* schedule.  Returns a report;
    ``report.consistent`` is the serializability-over-all-schedules
    verdict.  Exploration is cut off (``truncated=True``) after
    *max_states* distinct signatures.

    Vertex behaviours are replayed many times and must therefore be
    deterministic and resettable (the standard :class:`Vertex` contract).
    """
    if max_states < 1:
        raise ReproError("max_states must be >= 1")

    seen: Set[Signature] = set()
    outcomes: Dict[Outcome, int] = {}
    complete_schedules = 0
    truncated = False

    # Iterative DFS over action paths; each node replays from scratch so
    # scheduler state never needs copying.
    stack: List[List[Tuple]] = [[]]
    while stack:
        path = stack.pop()
        replay = _Replay(program, phases)
        for action in path:
            replay.apply(action)
        sig = replay.signature()
        if sig in seen:
            continue
        seen.add(sig)
        if len(seen) > max_states:
            truncated = True
            break
        if replay.complete():
            complete_schedules += 1
            outcomes.setdefault(replay.outcome(), 0)
            outcomes[replay.outcome()] += 1
            continue
        opts = replay.options()
        if not opts:
            raise ReproError(
                f"schedule wedged with nothing runnable at signature {sig!r}"
            )
        for action in opts:
            stack.append(path + [action])

    return ScheduleExplorationReport(
        signatures_explored=len(seen),
        complete_schedules=complete_schedules,
        outcomes=list(outcomes),
        truncated=truncated,
    )
