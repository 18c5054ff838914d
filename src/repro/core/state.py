"""The scheduler the engines run: cone readiness as a dataflow firing rule.

:class:`SchedulerState` is what :class:`~repro.runtime.core.ScheduleCore`
drives on every real engine; it keeps only what ``admit`` / ``claim`` /
``commit`` need.  The paper's Listings 1-2 as published (one frontier
``x_p`` per phase, partial / full / ready as sets, ghost ``msg``) are
:class:`repro.core.reference.ReferenceScheduler`: that module is the
specification, this one is the schedule the engines pay for.  Like it,
this class is passive and **not** thread-safe — one coordinator thread
makes every call (the simulator, its global lock).

The rule (docs/ARCHITECTURE.md §5.4)
------------------------------------
The global ``x_p`` makes ``(w, q)`` wait for every lower-indexed vertex of
phase *q*, even ones that cannot reach *w*; the cone rule waits only on
*w*'s ancestor cone:

* a vertex is **determined** for phase *p* once it has executed ``(v, p)``
  *or* every direct predecessor is determined for *p* and no message for
  *p* waits on its inputs (it provably will not execute *p*);
* ``(w, q)`` is **full** iff a message waits and every direct predecessor
  is determined for *q* — by induction along edges its whole ancestor
  cone is, so its inputs are final;
* ``(w, q)`` is **ready** iff it is full and *w* is **settled** through
  ``q - 1``: determined for every earlier started phase.  An earlier
  partial or full phase keeps the vertex unsettled, so the gate subsumes
  definition (8)'s min-full-phase rule and keeps each vertex's phases in
  order, which serializability needs.

That is the dynamic-dataflow firing rule: a pair fires when its count of
undetermined inputs reaches zero.

Representation
--------------
Per in-flight phase, one :class:`bytearray` holds a **status byte** per
vertex and one list the **``undet`` counters** (undetermined direct
predecessors left); per vertex, flat lists hold ``settled``,
``ready_upto`` (exactly-once placement, Section 3.3.4) and the number of
full pairs.  Nothing else is touched per pair — no tuple is allocated, no
heap scanned.  A status only moves forward::

    NONE -> PARTIAL -> FULL -> READY | CLAIMED -> EXECUTED -> DETERMINED
    NONE ------------------------------------------------> DETERMINED

``PARTIAL`` .. ``CLAIMED`` are exactly the pairs with ``msg(v, p)`` true;
``EXECUTED`` exists only inside a commit
(:meth:`~SchedulerState.complete_executions`,
:meth:`~SchedulerState.complete_sweep`).
Each completion, in one pass, marks its outputs and runs its
**determination wave** — a DFS over successors decrementing ``undet``;
a counter reaching zero promotes a waiting pair ``PARTIAL -> FULL`` or,
with no message (none can arrive any more), cascades ``NONE ->
DETERMINED`` — so each edge is traversed once per phase, and a silent
edge needs no state.  Readiness, ``status[settled[w] + 1][w] == FULL``,
is tested once per batch, on the vertices the waves touched.  A phase is
complete when all ``N`` vertices are determined; its arrays are dropped
at once, so "started and not in flight" *is* completeness.

The partial / full / ready / claimed sets and ``msg`` of the correctness
argument are **views** derived from the status bytes on demand; only the
invariant checker, the race monitor, ``SetSnapshot.of`` and tests
read them.

A ready ``(v, p)`` certifies more than itself: any later ``(v, q)``
already *full* has every direct predecessor determined for *q*, so its
inputs are final too.  :meth:`~SchedulerState.claim_run` extends a
dequeued ready pair into a run of such members (``CLAIMED``: licensed to
execute, never ready), committed through one
:meth:`~SchedulerState.complete_executions` (docs/ARCHITECTURE.md §5.7).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..errors import DuplicateExecutionError, SchedulerError
from ..graph.cones import ConeIndex
from ..graph.numbering import Numbering

__all__ = ["SchedulerState", "CompletionLog", "Pair", "ADAPTIVE_RUN_CEILING"]

Pair = Tuple[int, int]
"""A vertex-phase pair ``(v, p)``: vertex index ``v`` executing phase ``p``."""

#: Ceiling on the run length :meth:`SchedulerState.claim_run` adapts to:
#: one run never claims more than this many members, bounding both the
#: time a worker holds a run in flight and the size of a commit batch.
ADAPTIVE_RUN_CEILING = 64

# Pair status, in lifecycle order (the comparisons below rely on it):
# msg(v, p) holds for PARTIAL..CLAIMED, the pair is full for FULL..CLAIMED
# and may execute when READY or CLAIMED.
NONE, PARTIAL, FULL, READY, CLAIMED, EXECUTED, DETERMINED = range(7)


class CompletionLog:
    """Phases in completion order (they may complete out of order), with
    an absolute cursor that survives trims; both schedulers keep one."""

    def __init__(self) -> None:
        self.completed_log: List[int] = []  # the untrimmed suffix
        self._completed_base = 0  # entries dropped off the front

    @property
    def completed_total(self) -> int:
        """Entries ever appended: the cursor space, unaffected by trims."""
        return self._completed_base + len(self.completed_log)

    def completed_since(self, cursor: int) -> List[int]:
        """Entries at absolute positions ``cursor..`` (a trimmed
        position is a consumer bug and raises)."""
        if cursor < self._completed_base:
            raise SchedulerError(
                f"completion-log cursor {cursor} precedes trimmed base "
                f"{self._completed_base}"
            )
        return self.completed_log[cursor - self._completed_base :]

    def trim_completed_log(self, cursor: int) -> None:
        """Drop entries below absolute position *cursor* (the consumer
        promises it has processed them)."""
        if cursor < self._completed_base:
            raise SchedulerError(
                f"completion-log trim cursor {cursor} precedes current "
                f"base {self._completed_base}"
            )
        keep = cursor - self._completed_base
        if keep > len(self.completed_log):
            raise SchedulerError(
                f"completion-log trim cursor {cursor} exceeds total "
                f"{self.completed_total}"
            )
        del self.completed_log[:keep]
        self._completed_base = cursor


class _Phase:
    """One in-flight phase: status bytes, ``undet`` counters, and the two
    counts that decide and guard completion."""

    __slots__ = ("status", "undet", "det_count", "waiting")

    def __init__(self, n: int, in_degree: List[int], sources: int) -> None:
        self.status = bytearray(n + 1)
        self.undet = list(in_degree)
        self.det_count = 0  # vertices determined for this phase
        self.waiting = sources  # pairs with msg true (PARTIAL..CLAIMED)


class SchedulerState(CompletionLog):
    """Mutable scheduling state for one run over a numbered graph.

    Parameters
    ----------
    numbering:
        The restricted numbering of the computation graph (Section 3.1.1).
    checker:
        Optional :class:`repro.core.invariants.InvariantChecker`; invoked
        after every mutation (the paper's "at the unlock statement, the
        invariant ... has been preserved").

    Read-only for callers: ``pmax`` (highest started phase),
    ``executed_pairs``, ``complete_phase_count`` and ``retired_upto``
    (the retired phases are the complete prefix ``1..retired_upto``).
    """

    #: The readiness rule, as ``stats["frontier"]["mode"]`` reports it.
    frontier = "cone"

    def __init__(
        self,
        numbering: Numbering,
        checker: "object | None" = None,
    ) -> None:
        super().__init__()
        self.numbering = numbering
        self.N: int = numbering.n
        self.cones = ConeIndex(numbering)
        self._sources = numbering.num_sources
        self._checker = checker

        self._phases: Dict[int, _Phase] = {}  # in-flight only, ascending
        self.pmax = 0
        self._next = 1  # == pmax + 1 except inside start_phase
        # Per vertex (slot 0 unused): the highest phase s such that the
        # vertex is determined for every started phase <= s; the highest
        # phase ever readied or claimed; the number of full pairs, which
        # is what claim_run's adaptive ceiling reads.
        self._settled: List[int] = [0] * (self.N + 1)
        self._ready_upto: List[int] = [0] * (self.N + 1)
        self._full_count: List[int] = [0] * (self.N + 1)

        self.executed_pairs = 0
        self.complete_phase_count = 0
        self.retired_upto = 0
        self._max_phase_skew = 0
        self._runs_claimed = 0
        self._run_members_claimed = 0
        self.sweeping = 0  # the phase open to a sweep, if any (read-only)

    # -- Read-only views --

    def phase_started(self, p: int) -> bool:
        return 1 <= p <= self.pmax

    def phase_complete(self, p: int) -> bool:
        """Every vertex executed, or provably need not execute, phase
        *p*.  Phases may complete out of order."""
        return 1 <= p <= self.pmax and p not in self._phases

    def all_started_complete(self) -> bool:
        """Every started phase is complete (quiescence)."""
        return not self._phases

    def in_flight_phases(self) -> List[int]:
        """Started-but-incomplete phases, ascending (not necessarily
        contiguous)."""
        return list(self._phases)

    def is_ready(self, pair: Pair) -> bool:
        """O(1) ready-set membership."""
        return self._status_of(pair) == READY

    def is_run_claimed(self, pair: Pair) -> bool:
        """A claimed run extension: licensed to execute, never ready."""
        return self._status_of(pair) == CLAIMED

    def msg(self, v: int, p: int) -> bool:
        """``msg(v, p)``: an unconsumed phase-*p* message waits on *v*."""
        return PARTIAL <= self._status_of((v, p)) <= CLAIMED

    def partial_set(self) -> FrozenSet[Pair]:
        """The partial set (definition (9)'s cone form), derived."""
        return self._pairs(PARTIAL, PARTIAL)

    def full_set(self) -> FrozenSet[Pair]:
        """The full set (definition (7)'s cone form), derived; ready and
        claimed pairs are full until they execute."""
        return self._pairs(FULL, CLAIMED)

    def ready_set(self) -> FrozenSet[Pair]:
        """The ready set (definition (8) under the settled gate), derived."""
        return self._pairs(READY, READY)

    def run_claimed_set(self) -> FrozenSet[Pair]:
        """The claim ledger: full pairs claimed as run extensions."""
        return self._pairs(CLAIMED, CLAIMED)

    def counters(self) -> Dict[str, object]:
        """A copy of everything maintained incrementally, for the
        invariant checker to hold against its re-derivation: ``settled``
        and ``full_backlog`` per vertex (slot 0 unused) and, per in-flight
        phase, ``(determined flags, undet counters, determined count,
        waiting count)``."""
        return {
            "settled": list(self._settled),
            "full_backlog": list(self._full_count),
            "phases": {
                p: (
                    [s == DETERMINED for s in ph.status],
                    list(ph.undet),
                    ph.det_count,
                    ph.waiting,
                )
                for p, ph in self._phases.items()
            },
        }

    def frontier_stats(self) -> Dict[str, object]:
        """The ``stats["frontier"]`` section: the rule, the graph's
        distinct ancestor cones (its independent-progress capacity), and
        the largest ``q - oldest incomplete phase`` seen when a
        *non-source* ``(w, q)`` became ready — how far ahead of the
        slowest phase real dependent work pipelined."""
        return {
            "mode": self.frontier,
            "cone_count": self.cones.cone_count,
            "max_phase_skew": self._max_phase_skew,
        }

    def coalescing_stats(self) -> Dict[str, object]:
        """The ``stats["coalescing"]`` section: :meth:`claim_run`
        dispatches (a run of one still paid one), the extension members
        that rode along with a head, and members per run."""
        runs = self._runs_claimed
        members = self._run_members_claimed
        return {
            "runs_scheduled": runs,
            "pairs_coalesced": members - runs,
            "mean_run_length": (members / runs) if runs else 0.0,
        }

    # -- Listing 2: the environment process body --

    def start_phase(self) -> List[Pair]:
        """Start phase ``next``: its source pairs become full, and ready
        where the source is settled.  Returns the newly ready pairs, each
        to be placed on the run queue exactly once."""
        p = self._next
        self.pmax = p
        sources = self._sources
        ph = self._phases[p] = _Phase(self.N, self.cones.in_degree, sources)
        status = ph.status
        full_count = self._full_count
        for s in range(1, sources + 1):
            status[s] = FULL
            full_count[s] += 1
        newly_ready = self._fire(range(1, sources + 1))
        self._next = p + 1
        if self._checker is not None:
            self._checker.check(self)
        return newly_ready

    # -- Listing 1: the post-execution critical section --

    def complete_execution(self, v: int, p: int, output_targets: Iterable[int]) -> List[Pair]:
        """:meth:`complete_executions` for the batch of one."""
        return self.complete_executions([(v, p, output_targets)])

    def complete_executions(
        self, batch: Sequence[Tuple[int, int, Iterable[int]]]
    ) -> List[Pair]:
        """Record that every ``(v, p, output_targets)`` of *batch* finished
        executing; returns the newly ready pairs.

        One pass per member: the pair stops waiting, its outputs become
        partial, its determination wave runs, and its phase completes if
        the wave determined the last vertex; then, once per batch, the
        firing test of the touched vertices.  That equals the members one
        at a time (the wave is a least fixed point, the settled gate a
        function of it), so a run may commit whole or member by member.

        Raises :class:`SchedulerError` for a member neither ready, claimed
        nor swept (:meth:`open_sweep`), an output not to a higher index in
        ``1..N``, or a message for a pair already determined;
        :class:`DuplicateExecutionError` for a member that already ran.
        """
        if not batch:
            return []
        phases = self._phases
        settled = self._settled
        full_count = self._full_count
        succs = self.cones.succs
        n = self.N
        pmax = self.pmax
        candidates: List[int] = []
        for v, p, output_targets in batch:
            ph = phases.get(p)
            if ph is None or not 0 < v <= n or not READY <= ph.status[v] <= CLAIMED:
                if not (p == self.sweeping and ph is not None and 0 < v <= n
                        and ph.status[v] == FULL and settled[v] == p - 1):
                    raise self._not_executable(
                        v, p,
                        f"pair {(v, p)} was already executed; each ready pair "
                        f"executes exactly once",
                        f"pair {(v, p)} is not in the ready set and may not execute",
                    )
                self._ready_upto[v] = p
            status = ph.status
            status[v] = EXECUTED
            full_count[v] -= 1
            waiting = ph.waiting - 1
            for w in output_targets:
                if not v < w <= n:
                    raise SchedulerError(
                        f"vertex {v} emitted to {w}: edges must go from lower to "
                        f"higher indices (1..{n})"
                    )
                s = status[w]
                if s == NONE:
                    status[w] = PARTIAL
                    waiting += 1
                elif s > CLAIMED:
                    raise SchedulerError(
                        f"message for pair {(w, p)} arrived after the pair "
                        f"was determined"
                    )
                # else msg(w, p) is already true: the union is idempotent.
            ph.waiting = waiting
            # The determination wave from (v, p), a DFS over successors.
            undet = ph.undet
            stack = [v]
            while stack:
                u = stack.pop()
                if status[u] == DETERMINED:
                    continue
                status[u] = DETERMINED
                ph.det_count += 1
                if settled[u] == p - 1:
                    s = p
                    while s < pmax:
                        later = phases.get(s + 1)
                        if later is not None and later.status[u] != DETERMINED:
                            break
                        s += 1
                    settled[u] = s
                    candidates.append(u)
                for w in succs[u]:
                    left = undet[w] - 1
                    undet[w] = left
                    if left == 0:
                        if status[w] == PARTIAL:
                            # Last predecessor determined and a message
                            # waits: (w, p) is full.
                            status[w] = FULL
                            full_count[w] += 1
                            candidates.append(w)
                        else:
                            # No message and none can arrive: determined
                            # without executing — cascade.
                            stack.append(w)
                    elif left < 0:
                        raise SchedulerError(
                            f"undetermined-predecessor count of pair "
                            f"{(w, p)} went negative"
                        )
            if ph.det_count == n:  # phase p is complete
                if ph.waiting:
                    raise SchedulerError(
                        f"phase {p} complete with {ph.waiting} pairs still waiting"
                    )
                del phases[p]
                self.complete_phase_count += 1
                self.completed_log.append(p)
        self.executed_pairs += len(batch)
        newly_ready = self._fire(candidates)
        if self._checker is not None:
            self._checker.check(self)
        return newly_ready

    def _fire(self, vertices: Iterable[int]) -> List[Pair]:
        """The firing test, restricted to *vertices*: ``(w, q)`` with
        ``q = settled[w] + 1`` becomes ready iff it is full.  A ready or
        claimed pair at the gate is already in flight, so a vertex listed
        twice fires once.  Enforces exactly-once placement."""
        phases = self._phases
        settled = self._settled
        ready_upto = self._ready_upto
        enable = self.cones.enable
        out: List[Pair] = []
        oldest = 0  # the oldest incomplete phase, once it is needed
        for w in vertices:
            q = settled[w] + 1
            ph = phases.get(q)
            if ph is None or ph.status[w] != FULL:
                continue
            if q <= ready_upto[w]:
                raise DuplicateExecutionError(
                    f"pair {(w, q)} would enter the ready set a second time"
                )
            ready_upto[w] = q
            ph.status[w] = READY
            out.append((w, q))
            if enable[w] > 0:
                if not oldest:
                    oldest = self._oldest_incomplete_phase()
                skew = q - oldest
                if skew > self._max_phase_skew:
                    self._max_phase_skew = skew
        return out

    # -- Temporal run coalescing --

    def claim_run(self, v: int, p: int) -> List[int]:
        """Extend the dispatched ready pair ``(v, p)`` into a phase run.

        Walks phases ``q > p`` ascending, claiming every ``(v, q)`` that
        is already *full* and stepping over phases for which *v* is
        determined *without* executing (nothing to run).  The walk stops
        at the first phase that is neither, at the started horizon, or
        once the vertex's full backlog — capped at
        :data:`ADAPTIVE_RUN_CEILING` — is claimed.  A *claimed* head is
        accepted too: fault salvage requeues the unexecuted tail of a
        crashed run, claims intact, and it is handed out again.

        Returns the claimed phases ascending, starting with *p*; the
        caller must execute them in this order.
        """
        phases = self._phases
        ph = phases.get(p)
        if ph is None or not 0 < v <= self.N or not READY <= ph.status[v] <= CLAIMED:
            raise self._not_executable(
                v,
                p,
                f"claim_run{(v, p)}: pair was already executed",
                f"claim_run{(v, p)}: only a ready or claimed pair may head a run",
            )
        members = [p]
        max_len = self._full_count[v]
        if max_len > 1:  # a full backlog behind the head: extend the run
            if max_len > ADAPTIVE_RUN_CEILING:
                max_len = ADAPTIVE_RUN_CEILING
            pmax = self.pmax
            q = p + 1
            while len(members) < max_len and q <= pmax:
                ph = phases.get(q)
                if ph is not None:  # (a complete phase: determined, step over)
                    s = ph.status[v]
                    if s == FULL or s == CLAIMED:
                        ph.status[v] = CLAIMED
                        members.append(q)
                    elif s != DETERMINED:
                        break
                q += 1
            if len(members) > 1:
                self._ready_upto[v] = members[-1]
        self._runs_claimed += 1
        self._run_members_claimed += len(members)
        return members

    def open_sweep(self) -> Tuple[int, bytearray]:
        """Open the one phase in flight, *p*, to a sweep (``sweeping``):
        its pairs run in index order and commit at once, whole through
        :meth:`complete_sweep` or, when a member raised, its prefix
        through :meth:`complete_executions`, which then accepts a member
        full at its settled gate.  Returns *p* and, per vertex, whether a
        message waits on it."""
        if len(self._phases) != 1:
            raise SchedulerError(f"a sweep needs exactly one phase in "
                                 f"flight, not {self.in_flight_phases()!r}")
        ((p, ph),) = self._phases.items()
        self.sweeping = p
        return p, bytearray(PARTIAL <= s <= CLAIMED for s in ph.status)

    def close_sweep(self, members: int) -> None:
        """Close the sweep: each of its *members* was a run of one."""
        self.sweeping = 0
        self._runs_claimed += members
        self._run_members_claimed += members

    def complete_sweep(
        self, batch: Sequence[Tuple[int, int, Iterable[int]]]
    ) -> List[Pair]:
        """Complete the open sweep's phase *p* from *batch*, every pair
        it executed in index order, and close the sweep; returns the newly
        ready pairs: none, as no other phase is in flight.

        Each member is checked as :meth:`complete_executions` checks it,
        and no pair may still wait after the last one.  Then no wave
        runs: every vertex is determined for *p* (index order made each
        member full when it ran), so every vertex is settled through
        ``pmax`` and the phase completes.  Raises as
        :meth:`complete_executions` does, and :class:`SchedulerError`
        for a member out of index order or a pair left waiting.
        """
        p = self.sweeping
        ph = self._phases.get(p)
        if ph is None:
            raise SchedulerError("no sweep is open")
        status, ready_upto, n = ph.status, self._ready_upto, self.N
        waiting = ph.waiting
        last = 0
        for v, q, output_targets in batch:
            if q != p or not last < v <= n or not PARTIAL <= status[v] <= CLAIMED:
                raise self._not_executable(
                    v, q,
                    f"pair {(v, q)} was already executed; each ready pair "
                    f"executes exactly once",
                    f"pair {(v, q)} is not the next pair of the sweep of "
                    f"phase {p} and may not execute",
                )
            last = v
            status[v] = EXECUTED
            ready_upto[v] = p
            waiting -= 1
            for w in output_targets:
                if not v < w <= n:
                    raise SchedulerError(
                        f"vertex {v} emitted to {w}: edges must go from lower to "
                        f"higher indices (1..{n})"
                    )
                s = status[w]
                if s == NONE:
                    status[w] = PARTIAL
                    waiting += 1
                elif s > CLAIMED:
                    raise SchedulerError(
                        f"message for pair {(w, p)} arrived after the pair "
                        f"was determined"
                    )
        if waiting:
            raise SchedulerError(
                f"the sweep of phase {p} left {waiting} pairs waiting"
            )
        del self._phases[p]
        self._settled[1:] = [self.pmax] * n
        self._full_count[1:] = [0] * n
        self.complete_phase_count += 1
        self.completed_log.append(p)
        self.executed_pairs += len(batch)
        self.close_sweep(len(batch))
        if self._checker is not None:
            self._checker.check(self)
        return []

    # -- Retirement (continuous-operation mode) --

    def retire_phases_upto(self, p: int) -> int:
        """Retire phases ``retired_upto+1..p``; returns how many (0 for
        an already-retired range).  Only a *contiguous complete prefix*
        may retire.  A complete phase already holds no state here, so
        this only checks that contract and moves the bound the engine's
        own retirement (phase inputs, record segments) is keyed on."""
        if p <= self.retired_upto:
            return 0
        oldest = self._oldest_incomplete_phase()
        if p >= oldest:
            raise SchedulerError(
                f"cannot retire through phase {p}: phase {oldest} is not "
                f"complete"
            )
        retired = p - self.retired_upto
        self.retired_upto = p
        return retired

    # -- Internals --

    def _status_of(self, pair: Pair) -> int:
        v, p = pair
        ph = self._phases.get(p)
        if ph is None or not 0 < v <= self.N:
            return NONE
        return ph.status[v]

    def _pairs(self, lo: int, hi: int) -> FrozenSet[Pair]:
        return frozenset(
            (v, p)
            for p, ph in self._phases.items()
            for v, s in enumerate(ph.status)
            if lo <= s <= hi
        )

    def _not_executable(
        self, v: int, p: int, duplicate: str, otherwise: str
    ) -> SchedulerError:
        """The diagnosis split shared by ``complete_executions`` and
        ``claim_run``: a pair that already ran is a duplicate dispatch,
        anything else a scheduling error."""
        if (
            0 < v <= self.N
            and p <= self._ready_upto[v]
            and not FULL <= self._status_of((v, p)) <= CLAIMED
        ):
            return DuplicateExecutionError(duplicate)
        return SchedulerError(otherwise)

    def _oldest_incomplete_phase(self) -> int:
        """Smallest in-flight phase (``pmax + 1`` at quiescence): phases
        enter ``_phases`` in ascending order."""
        return next(iter(self._phases), self.pmax + 1)

    def __repr__(self) -> str:
        return (
            f"SchedulerState(N={self.N}, pmax={self.pmax}, "
            f"in_flight={len(self._phases)}, executed={self.executed_pairs})"
        )
