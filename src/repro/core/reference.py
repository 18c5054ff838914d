"""The specification: Listings 1 and 2 of the paper, as a passive object.

:class:`ReferenceScheduler` owns the partial / full / ready sets, the
per-phase frontiers ``x_p`` with the no-overtaking clamp, ``pmax`` and the
ghost ``msg`` variables, exactly as published, and exposes two mutators:
:meth:`ReferenceScheduler.start_phase` (Listing 2, statements 10-21, the
environment process body) and
:meth:`ReferenceScheduler.complete_execution` (Listing 1, statements 4-31,
the post-execution critical section: remove the executed pair, insert its
outputs into partial, update the ``x_i`` under the ``x_i <= x_{i-1}``
clamp, move newly full pairs, move newly ready pairs).
:meth:`ReferenceScheduler.complete_executions` is the batched form, which
reaches the state the one-at-a-time form reaches (see its docstring).

Nothing here is on a real engine's hot path.  The engines run the
per-dependency cone rule of :class:`repro.core.state.SchedulerState`,
which schedules a superset of what this class schedules at every step
(``tests/test_differential.py`` holds the two side by side); this class
is what :class:`~repro.runtime.core.ScheduleCore` builds for
``frontier="global"`` — the simulator's paper mode — and what the
exhaustive explorer (:mod:`repro.verification`), the Figure 3 replay and
the figure tests drive.  It offers the same driver surface
(``claim_run``, retirement, the completion log), so one ``ScheduleCore``
serves both; a run is always the single pair, since the ``x_p`` clamp
cannot certify a later phase.  It too is deliberately **not** thread-safe.

Fidelity notes
--------------
* The x-update loop of statements 12-23 nominally scans phases ``p ..
  pmax``; this implementation exits the scan as soon as an iteration
  leaves ``x_i`` unchanged, which is exact (for ``i > p`` the pending sets
  are untouched by this call, so ``x_i`` can only change through the clamp
  on a changed ``x_{i-1}``).
* Statement 24's ``newly-full`` scan quantifies over all of partial; only
  phases whose ``x`` changed in this call (plus phase ``p`` itself, which
  may have received brand-new partial pairs below the unchanged threshold)
  can contribute, so only those phases are scanned.  Both reductions are
  covered by the invariant checker, which re-derives the sets from the raw
  definitions (7)-(9) and compares.
* Every ``x_p`` is nondecreasing over a run; the state asserts this, and
  the :class:`~repro.core.pairsets.LazyMinHeap` pair-set structures
  exploit it (pop-prefix operations).
* **Complete-prefix property**: the ``x_i <= x_{i-1}`` clamp forces
  complete phases to be exactly ``1..complete_phase_count``, so phase
  completion and the in-flight range are O(1) reads.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import DuplicateExecutionError, SchedulerError
from ..graph.cones import ConeIndex
from ..graph.numbering import Numbering
from .pairsets import LazyMinHeap
from .state import CompletionLog, Pair

__all__ = ["ReferenceScheduler"]


class ReferenceScheduler(CompletionLog):
    """Listings 1-2 over a numbered graph; constructed like
    :class:`~repro.core.state.SchedulerState` (*numbering*, optional
    invariant *checker* run after every mutation, optional *preempt*
    switch-point hook called after the dequeue bookkeeping, after the
    partial insertions and after the x-update)."""

    #: The readiness rule, as ``stats["frontier"]["mode"]`` reports it.
    frontier = "global"

    def __init__(
        self,
        numbering: Numbering,
        checker: "object | None" = None,
        preempt: Optional[Callable[[str], None]] = None,
    ) -> None:
        super().__init__()
        self.numbering = numbering
        self.N: int = numbering.n
        self.cones = ConeIndex(numbering)
        self._m: List[int] = numbering.m_sequence()
        self._checker = checker
        self._preempt_hook = preempt

        # Listing 2, statements 2-7: initialisation.
        self._partial: Set[Pair] = set()
        self._full: Set[Pair] = set()
        self._ready: Set[Pair] = set()
        self._msg: Set[Pair] = set()  # ghost: pairs with msg(v, p) == true
        self._pmax: int = 0
        self._next: int = 1
        # x_0 = N (statement 2.5); x_p defaults to 0 for unstarted phases
        # (statement 2.6 initialises the infinite family lazily).
        self._x: Dict[int, int] = {0: self.N}

        # Custom structures (Section 4's "optimizations"):
        self._pending: Dict[int, LazyMinHeap] = {}  # phase -> indices in partial|full
        self._partial_by_phase: Dict[int, LazyMinHeap] = {}
        self._full_phases: Dict[int, LazyMinHeap] = {
            v: LazyMinHeap() for v in range(1, self.N + 1)
        }

        # Exactly-once bookkeeping (Section 3.3.4) and simple counters.
        self._ready_upto: Dict[int, int] = {}  # vertex -> highest phase ever readied
        self._executed_pairs = 0
        self._complete_phases = 0
        self._frontier_advances = 0
        self._max_phase_skew = 0
        # Retirement: phases 1..retired_upto have had their x entries and
        # per-phase heaps garbage-collected; x() answers N for them.
        self._retired_upto = 0

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------

    @property
    def pmax(self) -> int:
        """Highest phase number that has started execution."""
        return self._pmax

    @property
    def next_phase(self) -> int:
        """The phase number :meth:`start_phase` will start next."""
        return self._next

    def m(self, v: int) -> int:
        """``m(v)`` of the underlying numbering."""
        return self._m[v]

    def x(self, p: int) -> int:
        """The frontier ``x_p`` (``x_0 = N``; 0 for unstarted phases).

        Retired phases answer ``N``: a phase only retires once complete,
        and a complete phase's frontier is exactly ``N``, so dropping the
        entry loses nothing — and the ``x_{i-1}`` clamp keeps working
        right after the retired prefix.
        """
        if p < 0:
            raise SchedulerError(f"x({p}) undefined for negative phase")
        if 0 < p <= self._retired_upto:
            return self.N
        return self._x.get(p, self.N if p == 0 else 0)

    def msg(self, v: int, p: int) -> bool:
        """Ghost variable ``msg(v, p)``: a message for phase *p* waits on an
        input of vertex *v* (and has not been consumed)."""
        return (v, p) in self._msg

    def msg_set(self) -> FrozenSet[Pair]:
        """Every pair with ``msg(v, p)`` true (for the invariant checker)."""
        return frozenset(self._msg)

    def partial_set(self) -> FrozenSet[Pair]:
        """Snapshot of the partial set (definition (9))."""
        return frozenset(self._partial)

    def full_set(self) -> FrozenSet[Pair]:
        """Snapshot of the full set (definition (7))."""
        return frozenset(self._full)

    def ready_set(self) -> FrozenSet[Pair]:
        """Snapshot of the ready set (definition (8))."""
        return frozenset(self._ready)

    def run_claimed_set(self) -> FrozenSet[Pair]:
        """Always empty: a run here is the single ready pair."""
        return frozenset()

    def is_ready(self, pair: Pair) -> bool:
        """O(1) ready-set membership."""
        return pair in self._ready

    def is_run_claimed(self, pair: Pair) -> bool:
        return False

    def phase_started(self, p: int) -> bool:
        return 1 <= p <= self._pmax

    def phase_complete(self, p: int) -> bool:
        """Phase *p* finished (``x_p == N``): O(1) by the complete-prefix
        property."""
        return self.phase_started(p) and p <= self._complete_phases

    def all_started_complete(self) -> bool:
        """Every started phase is complete (quiescence)."""
        return self._complete_phases == self._pmax

    def in_flight_phases(self) -> List[int]:
        """Started-but-incomplete phases: by the complete-prefix property
        the contiguous range ``complete_phase_count+1 .. pmax``."""
        return list(range(self._complete_phases + 1, self._pmax + 1))

    @property
    def executed_pairs(self) -> int:
        """Total vertex-phase pairs executed so far."""
        return self._executed_pairs

    @property
    def complete_phase_count(self) -> int:
        """Number of started phases that have completed (x_p == N)."""
        return self._complete_phases

    @property
    def retired_upto(self) -> int:
        """Highest phase whose per-phase state has been garbage-collected
        (0 when nothing has retired)."""
        return self._retired_upto

    def retire_phases_upto(self, p: int) -> int:
        """Garbage-collect the state of phases ``retired_upto+1..p``;
        returns how many (0 for an already-retired range).  Only a
        *contiguous complete prefix* may retire; ``x`` and
        ``phase_complete`` then answer for it from the prefix bound
        alone, which is what the dropped structures would have said
        (complete ⟹ ``x = N``)."""
        if p <= self._retired_upto:
            return 0
        if p > self._complete_phases:
            raise SchedulerError(
                f"cannot retire through phase {p}: phase "
                f"{self._complete_phases + 1} is not complete"
            )
        for q in range(self._retired_upto + 1, p + 1):
            self._x.pop(q, None)
            self._pending.pop(q, None)
            self._partial_by_phase.pop(q, None)
        retired = p - self._retired_upto
        self._retired_upto = p
        return retired

    def frontier_stats(self) -> Dict[str, object]:
        """The ``stats["frontier"]`` section: as the engines' scheduler
        reports it, plus ``frontier_advances`` — total ``x_p``
        advancements."""
        return {
            "mode": self.frontier,
            "cone_count": self.cones.cone_count,
            "max_phase_skew": self._max_phase_skew,
            "frontier_advances": self._frontier_advances,
        }

    def coalescing_stats(self) -> Dict[str, object]:
        """The ``stats["coalescing"]`` section: nothing ever coalesces."""
        return {"runs_scheduled": 0, "pairs_coalesced": 0, "mean_run_length": 0.0}

    # ------------------------------------------------------------------
    # Listing 2: the environment process body (statements 10-21)
    # ------------------------------------------------------------------

    def start_phase(self) -> List[Pair]:
        """Start phase ``next``: statements 2.11-2.20.

        Returns the newly ready pairs, which the caller must place on the
        run queue exactly once each (statement 2.18).
        """
        p = self._next
        # Statement 2.11: pmax := next.
        self._pmax = p
        self._x.setdefault(p, 0)
        pending = self._pending.setdefault(p, LazyMinHeap())
        # Statements 2.12-2.14: source pairs into full; msg := true.
        for s in range(1, self._m[0] + 1):
            pair = (s, p)
            self._full.add(pair)
            self._msg.add(pair)
            pending.add(s)
            self._full_phases[s].add(p)
        self._preempt("start_phase:sources-inserted")
        # Statements 2.16-2.19: newly ready pairs.
        newly_ready = self._refresh_ready(range(1, self._m[0] + 1))
        # Statement 2.20: next := next + 1.
        self._next = p + 1
        self._run_checker()
        return newly_ready

    # ------------------------------------------------------------------
    # Listing 1: the post-execution critical section (statements 4-31)
    # ------------------------------------------------------------------

    def complete_execution(self, v: int, p: int, output_targets: Iterable[int]) -> List[Pair]:
        """Record that pair ``(v, p)`` finished executing, having generated
        outputs for the vertices in *output_targets* (statements 1.4-1.31);
        returns the newly ready pairs for the caller to enqueue.

        Raises :class:`SchedulerError` if ``(v, p)`` is not in the ready
        set — only ready pairs may execute (Section 3.1.2) — and
        :class:`DuplicateExecutionError` on completing a pair twice.
        """
        return self.complete_executions([(v, p, output_targets)])

    def complete_executions(
        self, batch: Sequence[Tuple[int, int, Iterable[int]]]
    ) -> List[Pair]:
        """Apply a batch of completions ``(v, p, output_targets)`` at once.

        Statements 1.5-1.11 (remove the pair, insert its outputs into
        partial) run per completion; the x-update (1.12-1.23), the
        newly-full scan (1.24-1.26) and the newly-ready scan (1.27-1.30)
        run once for the whole batch, and the invariant checker fires once
        at the batch boundary.  Returns the newly ready pairs.

        The final state equals applying the completions one at a time:

        * the batch's pairs are pairwise-distinct vertices (the ready set
          holds at most one phase per vertex, and a vertex's next phase
          becomes ready only through a completion's own scans), so the
          removals and partial insertions commute;
        * every ``x_i`` is the unique fixed point of the update equation
          ``x_i = min(vmin_i - 1, x_{i-1})`` over the *final* pending
          sets, which a single left-to-right scan computes (dependencies
          only point backwards), and ``x`` is nondecreasing either way;
        * the newly-full and newly-ready scans are functions of the final
          ``x`` / pending / full-phase structures, restricted to the
          phases and vertices the batch touched — the same restriction
          the per-pair form uses, unioned over the batch.

        A batch of one is therefore step-for-step identical to
        :meth:`complete_execution` (same mutation order, same preemption
        points, same return value).
        """
        if not batch:
            return []
        affected: List[int] = []
        touched: Dict[int, None] = {}  # phases, in first-touch order
        for v, p, output_targets in batch:
            pair = (v, p)
            self._require_ready(pair, "")

            # Statements 1.5-1.7: remove from full and ready; msg := false.
            self._full.remove(pair)
            self._ready.remove(pair)
            self._msg.discard(pair)
            pending = self._pending[p]
            pending.discard(v)
            self._full_phases[v].discard(p)
            self._executed_pairs += 1
            self._preempt("complete_execution:pair-removed")

            # Statements 1.8-1.11: outputs enter the partial set.
            partial_heap = self._partial_by_phase.get(p)
            if partial_heap is None:
                partial_heap = self._partial_by_phase[p] = LazyMinHeap()
            for w in output_targets:
                if not v < w <= self.N:
                    raise SchedulerError(
                        f"vertex {v} emitted to {w}: edges must go from lower to "
                        f"higher indices (1..{self.N})"
                    )
                out_pair = (w, p)
                if out_pair in self._partial or out_pair in self._full:
                    # msg(w, p) is already true; the set union is idempotent.
                    continue
                self._partial.add(out_pair)
                self._msg.add(out_pair)
                partial_heap.add(w)
                pending.add(w)

            self._preempt("complete_execution:outputs-inserted")
            affected.append(v)
            touched[p] = None
        touched_phases = list(touched)

        # Statements 1.12-1.23: update x_i over the touched phases.
        changed_phases = self._update_x_over(touched_phases)
        self._preempt("complete_execution:x-updated")

        # Statements 1.24-1.26: move newly full pairs out of partial.
        for q in sorted(set(touched_phases) | set(changed_phases)):
            heap = self._partial_by_phase.get(q)
            if heap is None or not heap:
                continue
            threshold = self._m[self.x(q)]
            for w in heap.pop_leq(threshold):
                moved = (w, q)
                self._partial.remove(moved)
                self._full.add(moved)
                self._full_phases[w].add(q)
                affected.append(w)

        # Statements 1.27-1.30: newly ready pairs.
        newly_ready = self._refresh_ready(affected)
        self._run_checker()
        return newly_ready

    def claim_run(self, v: int, p: int) -> List[int]:
        """The driver-surface counterpart of the engines' run claim: a
        ready pair heads the run ``[p]`` and nothing extends it."""
        self._require_ready((v, p), "claim_run: ")
        return [p]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_ready(self, pair: Pair, where: str) -> None:
        """Only ready pairs may execute (Section 3.1.2); a pair that
        already ran is diagnosed as a duplicate."""
        if pair in self._ready:
            return
        v, p = pair
        if p <= self._ready_upto.get(v, 0) and pair not in self._full:
            raise DuplicateExecutionError(
                f"{where}pair {pair} was already executed; each ready pair "
                f"executes exactly once"
            )
        raise SchedulerError(
            f"{where}pair {pair} is not in the ready set and may not execute"
        )

    def _update_x_over(self, phases: Sequence[int]) -> List[int]:
        """Statements 1.12-1.23 over a batch of phases, with an exact
        early exit.

        Recomputes ``x_i = min(vmin_i - 1, x_{i-1})`` (or ``N`` when no
        pair with phase *i* remains pending) for ``i = min(phases), ...``,
        stopping as soon as an iteration past ``max(phases)`` leaves
        ``x_i`` unchanged — beyond the touched phases the pending sets
        were untouched by this call, so a fixed point propagates.  Returns
        the phases whose ``x`` changed.
        """
        lo = min(phases)
        hi = max(phases)
        changed: List[int] = []
        i = lo
        while i <= self._pmax:
            pend = self._pending.get(i)
            if pend:
                xi = pend.min() - 1  # statement 1.15: vmin - 1
            else:
                xi = self.N  # statement 1.17: phase complete
            prev_x = self.x(i - 1)
            if xi > prev_x:  # statements 1.19-1.21: the no-overtaking clamp
                xi = prev_x
            old = self.x(i)
            if xi == old:
                if i > hi:
                    break
            else:
                assert xi > old, (
                    f"x_{i} must be nondecreasing (old {old}, new {xi})"
                )
                self._x[i] = xi
                changed.append(i)
                self._frontier_advances += 1
                if xi == self.N:
                    self._complete_phases += 1
                    self.completed_log.append(i)
            i += 1
        return changed

    def _refresh_ready(self, vertices: Iterable[int]) -> List[Pair]:
        """Statements 1.27-1.30 / 2.16-2.19, restricted to *vertices*.

        Only a vertex whose full-phase set just changed can gain a ready
        pair (readiness of ``(w, q)`` depends solely on ``w``'s own full
        phases), so the definitional scan over all pairs reduces to the
        affected vertices.  Enforces exactly-once placement.
        """
        enable = self.cones.enable
        out: List[Pair] = []
        seen: Set[int] = set()
        for w in vertices:
            if w in seen:
                continue
            seen.add(w)
            phases = self._full_phases[w]
            if not phases:
                continue
            q = phases.min()
            pair = (w, q)
            if pair in self._ready:
                continue
            if q <= self._ready_upto.get(w, 0):
                raise DuplicateExecutionError(
                    f"pair {pair} would enter the ready set a second time"
                )
            self._ready_upto[w] = q
            self._ready.add(pair)
            out.append(pair)
            if enable[w] > 0:
                # The oldest incomplete phase, by the complete-prefix property.
                skew = q - (self._complete_phases + 1)
                if skew > self._max_phase_skew:
                    self._max_phase_skew = skew
        return out

    def _preempt(self, point: str) -> None:
        if self._preempt_hook is not None:
            self._preempt_hook(point)

    def _run_checker(self) -> None:
        if self._checker is not None:
            self._checker.check(self)

    def __repr__(self) -> str:
        return (
            f"ReferenceScheduler(N={self.N}, pmax={self._pmax}, "
            f"partial={len(self._partial)}, full={len(self._full)}, "
            f"ready={len(self._ready)}, executed={self._executed_pairs})"
        )
