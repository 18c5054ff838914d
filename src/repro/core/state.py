"""The scheduler state: Listings 1 and 2 of the paper, as a passive object.

:class:`SchedulerState` owns the partial / full / ready sets, the per-phase
frontiers ``x_p``, ``pmax``, and the ghost ``msg`` variables, and exposes
exactly two mutators:

* :meth:`SchedulerState.start_phase` — Listing 2, statements 10-21 (the
  environment process body): start phase ``next``, put its source pairs in
  the full set, move newly ready pairs to ready, return them so the caller
  can enqueue them on the run queue.
* :meth:`SchedulerState.complete_execution` — Listing 1, statements 4-31
  (the post-execution critical section): remove the executed pair, insert
  output pairs into partial, update the ``x_i`` (statements 12-23 with the
  ``x_i <= x_{i-1}`` clamp), move newly full pairs (statements 24-26), move
  newly ready pairs (statements 27-30), return the newly ready pairs.

:meth:`SchedulerState.complete_executions` is the batched form of the
second mutator: it applies several completions in one call, running the
x-update, newly-full and newly-ready scans once for the whole batch.  The
final state is identical to applying the completions one at a time (see
the method docstring for the argument), so the engines may amortize the
global lock over a batch without weakening the serializability theorem.
``complete_execution`` is the batch of one.

The object is deliberately **not** thread-safe: the engines wrap every call
in the single global lock of the algorithm (the paper's ``lock`` /
``unlock``), the serial oracle and the simulator call it from one thread,
and the invariant checker relies on observing quiescent states.

Fidelity notes
--------------
* The x-update loop of statements 12-23 nominally scans phases ``p ..
  pmax``; this implementation exits the scan as soon as an iteration leaves
  ``x_i`` unchanged, which is exact (for ``i > p`` the pending sets are
  untouched by this call, so ``x_i`` can only change through the clamp on a
  changed ``x_{i-1}``).
* Statement 24's ``newly-full`` scan quantifies over all of partial; only
  phases whose ``x`` changed in this call (plus phase ``p`` itself, which
  may have received brand-new partial pairs below the unchanged threshold)
  can contribute, so only those phases are scanned.  Both reductions are
  covered by the invariant checker, which re-derives the sets from the raw
  definitions (7)-(9) and compares.
* Every ``x_p`` is nondecreasing over a run; the state asserts this, and
  the pair-set structures exploit it (pop-prefix operations).

Indexed frontier
----------------
The hot-path observers never rebuild sets:

* ``partial_set`` / ``full_set`` / ``ready_set`` snapshots are cached
  against a mutation generation counter, so any number of reads between
  two mutations constructs at most one frozenset each (and stats paths
  avoid even that — see below).  ``snapshot_builds`` counts the
  constructions, which the tests pin.
* :meth:`SchedulerState.is_ready` answers pair membership in O(1) without
  materialising a snapshot.
* ``ready_backlog`` is a plain length; :meth:`in_flight_phases` exploits
  the **complete-prefix property** — the ``x_i <= x_{i-1}`` clamp forces
  complete phases to form the prefix ``1..complete_phase_count`` of the
  started phases — so it is O(in-flight) with no scan over ``x``.
* :class:`ReadyFrontier` keeps the dispatch backlog pre-partitioned by
  worker, so draining it is O(pairs drained + workers with backlog)
  instead of the O(total pending) sweep of :func:`drain_ready_batches`
  (kept as the reference implementation).

Per-dependency frontiers (``frontier="cone"``)
----------------------------------------------
The global ``x_p`` couples every vertex in a phase: definition (7) makes
``(w, q)`` full only once ``x_q >= enable(w)``, so one slow *low-indexed*
vertex holds back every higher-indexed vertex — even in subgraphs it
cannot reach.  The ``cone`` frontier mode replaces the prefix test with
the exact dependency condition the prefix conservatively approximates:

* a vertex is **determined** for phase *p* once it has executed ``(v, p)``
  *or* every direct predecessor is determined for *p* and no message for
  *p* waits on its inputs (it provably will not execute *p*);
* ``(w, q)`` is **full** iff a message waits and every direct predecessor
  is determined for *q* — equivalently, *w*'s whole ancestor cone is
  determined, by induction along edges;
* ``(w, q)`` is **ready** iff it is full and *w* is **settled** through
  ``q - 1``: determined for every earlier started phase.  This preserves
  the per-vertex phase order that the serializability argument needs
  (ALGORITHM.md §5.4) while letting independent cones pipeline phases
  ahead of slow siblings.

Determinedness is maintained incrementally: each completion runs a
*determination wave* — a DFS over successors decrementing per-phase
undetermined-predecessor counters; a counter reaching zero either
promotes a waiting pair partial→full (message present) or cascades
(vertex determined without executing).  Each edge is traversed at most
once per phase, so the amortised cost matches the global mode's
newly-full scan.  Phase completion becomes ``det_count == N`` (complete
phases no longer form a prefix); the completion *log* records the order,
and ``x_p`` is kept as an unclamped per-phase diagnostic.  The mode is
selected at construction: the real engines always schedule with
``"cone"``; ``"global"`` (the default here) is Listings 1/2 as
published — the reference for the invariant checker, the verification
suite and the simulator's paper figures.

Change suppression (PairRuntime ``suppress=True``) composes with the
wave without new state here: a suppressed output never sets ``msg(w,
q)``, so when the determination wave reaches *w* it finds no waiting
message and **cascades** — the pair is marked determined without ever
being scheduled, exactly the no-message case the wave already handles.
The simulator's global (paper-figure) mode runs with suppression off.

Temporal run coalescing (``claim_run``)
---------------------------------------
Cone-mode readiness certifies more than the single pair it hands out:
when ``(v, p)`` is ready, any later phase ``q`` with ``(v, q)`` already
*full* has every direct predecessor determined for ``q``, so its inputs
are final too — nothing that executes concurrently can change them.
:meth:`SchedulerState.claim_run` exploits this at dispatch time: it
extends a dequeued ready pair into a **run** ``(v, [p..p+k])`` of
consecutive claimable phases, which the engines execute back-to-back and
commit through one :meth:`SchedulerState.complete_executions` critical
section.  Claimed extension members are tracked in a *claim ledger*
(they are not ready — the settled gate has not reached them — but they
may execute), stay out of future readiness scans, and advance the
exactly-once ``_ready_upto`` bookkeeping at claim time.  Global mode
never extends a run (the x_p clamp cannot certify later phases): there a
run is always the single pair.  ALGORITHM.md §5.7 gives the
serializability argument (a run = k serial commits observed
atomically).
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import DuplicateExecutionError, SchedulerError
from ..graph.cones import ConeIndex
from ..graph.numbering import Numbering
from .pairsets import LazyMinHeap

__all__ = [
    "SchedulerState",
    "Pair",
    "drain_ready_batches",
    "ReadyFrontier",
    "ADAPTIVE_RUN_CEILING",
]

Pair = Tuple[int, int]
"""A vertex-phase pair ``(v, p)``: vertex index ``v`` executing phase ``p``."""

#: Ceiling on the run length :meth:`SchedulerState.claim_run` adapts to:
#: one run never claims more than this many members, bounding both the
#: time a worker holds a run in flight and the size of a commit batch.
ADAPTIVE_RUN_CEILING = 64


def drain_ready_batches(
    pending: "deque[Pair]",
    assign: Callable[[int], int],
    capacity: Callable[[int], int],
) -> Tuple[List[Tuple[int, List[Pair]]], Set[int]]:
    """Drain ready pairs into per-worker dispatch batches.

    Sweeps *pending* (a deque of ready pairs, FIFO) once, routing each
    pair to ``assign(v)`` (the sticky worker of its vertex) and taking at
    most ``capacity(w)`` pairs per worker — the worker's remaining credit
    window.  Pairs that do not fit stay in *pending* in their original
    relative order, preserving the per-worker FIFO that the phase-order
    argument relies on.

    Returns ``(batches, starved)`` where *batches* holds one
    ``(worker, pairs)`` entry per worker that had credit, and *starved*
    is the set of workers that still had pairs waiting when their credit
    ran out — the adaptive window controller's widening signal.

    The helper never consults scheduler internals: it operates on pairs
    the :class:`SchedulerState` mutators already returned as ready, so
    using it cannot weaken the exactly-once placement argument.
    """
    taken: Dict[int, List[Pair]] = {}
    remaining: Dict[int, int] = {}
    starved: Set[int] = set()
    leftover: List[Pair] = []
    while pending:
        pair = pending.popleft()
        w = assign(pair[0])
        if w not in remaining:
            remaining[w] = max(0, capacity(w))
        if remaining[w] <= 0:
            starved.add(w)
            leftover.append(pair)
            continue
        remaining[w] -= 1
        taken.setdefault(w, []).append(pair)
    pending.extend(leftover)
    return list(taken.items()), starved


class ReadyFrontier:
    """The dispatch backlog, pre-partitioned by sticky worker.

    Where :func:`drain_ready_batches` sweeps the whole pending deque on
    every dispatch attempt — O(total pending), even when most pairs
    belong to credit-starved workers — this index routes each ready pair
    to its worker's FIFO bucket **once, at insertion** (``assign`` is the
    sticky map, so a vertex's bucket never changes), and a drain touches
    only the pairs it actually takes plus the workers that still hold a
    backlog.  Per-worker FIFO order, which the phase-order/serializability
    argument relies on, is preserved by construction: a bucket is only
    ever appended to, prepended to (requeues), or popped from the front.

    The frontier never consults scheduler internals: it only holds pairs
    the :class:`SchedulerState` mutators already returned as ready, so it
    cannot weaken the exactly-once placement argument.
    """

    __slots__ = ("_assign", "_buckets", "_backlog", "_len")

    def __init__(self, assign: Callable[[int], int]) -> None:
        self._assign = assign
        self._buckets: Dict[int, Deque[Pair]] = {}
        self._backlog: Set[int] = set()  # workers with a non-empty bucket
        self._len = 0

    def push(self, pairs: Iterable[Pair]) -> None:
        """Append newly ready pairs (FIFO per worker)."""
        for pair in pairs:
            w = self._assign(pair[0])
            bucket = self._buckets.get(w)
            if bucket is None:
                bucket = self._buckets[w] = deque()
            bucket.append(pair)
            self._backlog.add(w)
            self._len += 1

    def push_front(self, worker: int, pairs: Sequence[Pair]) -> None:
        """Put *pairs* back at the head of *worker*'s bucket, preserving
        their relative order (the requeue path for skipped tasks)."""
        bucket = self._buckets.get(worker)
        if bucket is None:
            bucket = self._buckets[worker] = deque()
        for pair in reversed(pairs):
            bucket.appendleft(pair)
            self._len += 1
        if bucket:
            self._backlog.add(worker)

    def drain(
        self, capacity: Callable[[int], int]
    ) -> Tuple[List[Tuple[int, List[Pair]]], Set[int]]:
        """Take up to ``capacity(w)`` pairs per backlogged worker.

        Same contract as :func:`drain_ready_batches` — one batch per
        worker with credit, plus the set of workers left starved for
        credit — but O(pairs drained + backlogged workers).
        """
        batches: List[Tuple[int, List[Pair]]] = []
        starved: Set[int] = set()
        for w in sorted(self._backlog):
            bucket = self._buckets[w]
            take = min(len(bucket), max(0, capacity(w)))
            if take < len(bucket):
                starved.add(w)
            if take:
                batches.append((w, [bucket.popleft() for _ in range(take)]))
                self._len -= take
            if not bucket:
                self._backlog.discard(w)
        return batches, starved

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0


class SchedulerState:
    """Mutable scheduling state for one run over a numbered graph.

    Parameters
    ----------
    numbering:
        The restricted numbering of the computation graph (Section 3.1.1).
    checker:
        Optional :class:`repro.core.invariants.InvariantChecker`; when
        given, it is invoked after every mutation (the paper's "at the
        unlock statement, the invariant ... has been preserved").
    preempt:
        Optional ``callable(point: str)`` invoked *between* the sub-steps
        of each mutation (after the dequeue bookkeeping, after the partial
        insertions, after the x-update).  The deterministic test scheduler
        uses it as a context-switch point: with the global lock held
        correctly the switches are harmless (contenders are blocked), but
        if an engine updates the scheduling sets outside the lock the
        scheduler can interleave another task mid-update and expose the
        race.  ``None`` (the default) adds no overhead.
    frontier:
        ``"global"`` (default) runs Listings 1-2 exactly as published —
        one frontier ``x_p`` per phase with the no-overtaking clamp.
        ``"cone"`` replaces the readiness rule with per-dependency
        determinedness tracking (see the module docstring), letting
        independent ancestor cones pipeline phases ahead of slow
        siblings.  Both modes produce serializable executions; only the
        schedule (and therefore pipelining depth) differs.
    """

    def __init__(
        self,
        numbering: Numbering,
        checker: "object | None" = None,
        preempt: Optional[Callable[[str], None]] = None,
        frontier: str = "global",
    ) -> None:
        if frontier not in ("global", "cone"):
            raise SchedulerError(
                f"frontier must be 'global' or 'cone', got {frontier!r}"
            )
        self.numbering = numbering
        self.frontier = frontier
        self.N: int = numbering.n
        self._m: List[int] = numbering.m_sequence()
        self._checker = checker
        self._preempt_hook = preempt
        self._cones = ConeIndex(numbering)

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

        # Temporal run coalescing: full pairs claimed as run extensions
        # by claim_run — in flight but never members of the ready set
        # (module docstring, "Temporal run coalescing").
        self._run_claimed: Set[Pair] = set()
        self._runs_claimed = 0
        self._run_members_claimed = 0

        # Phase-completion bookkeeping shared by both modes: membership
        # set plus the completion-order log the engines label tracer
        # events from.  In global mode the log is the prefix 1..count;
        # in cone mode phases may complete out of order.
        self._complete_set: Set[int] = set()
        self._completed_log: List[int] = []
        self._oldest_incomplete = 1
        self._frontier_advances = 0
        self._max_phase_skew = 0

        # Retirement (continuous-operation mode): phases 1..retired_upto
        # have been garbage-collected — their x entries, complete-set
        # membership and per-phase heaps are gone; predicates answer for
        # them from the prefix bound alone.  The completion log is
        # trimmable independently (engines own the consumption cursor):
        # _completed_base counts entries dropped off its front.
        self._retired_upto = 0
        self._completed_base = 0

        if frontier == "cone":
            # Per started in-flight phase: remaining undetermined-pred
            # counts, determined flags, and the determined-vertex count.
            # Arrays are dropped when the phase completes (membership in
            # _complete_set then answers determinedness), so memory stays
            # O(in-flight phases x N).
            self._undet: Dict[int, List[int]] = {}
            self._det: Dict[int, bytearray] = {}
            self._det_count: Dict[int, int] = {}
            # Per-vertex settled pointer: highest phase s such that the
            # vertex is determined for every started phase <= s.  The
            # ready gate for (w, q) is settled[w] == q - 1.
            self._settled: List[int] = [0] * (self.N + 1)

        # Snapshot cache: bumped by every mutation block, so repeated
        # partial/full/ready snapshot reads between mutations reuse one
        # frozenset instead of rebuilding O(pairs) copies per call.
        self._generation = 0
        self._snapshots: Dict[str, Tuple[int, FrozenSet[Pair]]] = {}
        self._snapshot_builds = 0

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
        entry loses nothing — and the global mode's ``x_{i-1}`` clamp
        keeps working right after the retired prefix.
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

    def partial_set(self) -> FrozenSet[Pair]:
        """Snapshot of the partial set (definition (9)); cached per
        mutation generation."""
        return self._snapshot("partial", self._partial)

    def full_set(self) -> FrozenSet[Pair]:
        """Snapshot of the full set (definition (7)); cached per mutation
        generation."""
        return self._snapshot("full", self._full)

    def ready_set(self) -> FrozenSet[Pair]:
        """Snapshot of the ready set (definition (8)); cached per
        mutation generation."""
        return self._snapshot("ready", self._ready)

    def is_ready(self, pair: Pair) -> bool:
        """O(1) ready-set membership — no snapshot construction."""
        return pair in self._ready

    def is_run_claimed(self, pair: Pair) -> bool:
        """O(1) claim-ledger membership: the pair is a claimed in-flight
        run extension (licensed to execute without being ready)."""
        return pair in self._run_claimed

    @property
    def snapshot_builds(self) -> int:
        """Frozenset snapshot constructions so far (observability: the
        stats/dispatch hot paths must leave this untouched)."""
        return self._snapshot_builds

    def phase_started(self, p: int) -> bool:
        return 1 <= p <= self._pmax

    def phase_complete(self, p: int) -> bool:
        """Phase *p* finished: every vertex executed (or provably need not
        execute) phase *p*.

        In global mode this is O(1) via the complete-prefix property: the
        ``x_i <= x_{i-1}`` clamp forces complete phases to be exactly
        ``1..complete_phase_count``.  In cone mode phases may complete
        out of order, so membership in the completion set answers it.
        """
        if self.frontier == "global":
            return self.phase_started(p) and p <= self._complete_phases
        return p in self._complete_set or 0 < p <= self._retired_upto

    def all_started_complete(self) -> bool:
        """Every started phase is complete (quiescence)."""
        return self._complete_phases == self._pmax

    def in_flight_phases(self) -> List[int]:
        """Started-but-incomplete phases, ascending.

        In global mode, by the complete-prefix property, this is the
        contiguous range ``complete_phase_count+1 .. pmax`` — O(in-flight
        phases), no ``x`` scan, no set construction.  In cone mode the
        incomplete phases need not be contiguous.
        """
        if self.frontier == "global":
            return list(range(self._complete_phases + 1, self._pmax + 1))
        return [
            p
            for p in range(self._oldest_incomplete_phase(), self._pmax + 1)
            if p not in self._complete_set
        ]

    @property
    def completed_log(self) -> Sequence[int]:
        """Phases in completion order (append-only).  Engines label their
        ``phase_completed`` tracer events from this log; in global mode it
        is identical to the prefix ``1..complete_phase_count``.

        Continuous-operation consumers should prefer the cursor API
        (:meth:`completed_since` / :meth:`trim_completed_log`) — this
        property exposes only the untrimmed suffix.
        """
        return self._completed_log

    @property
    def completed_total(self) -> int:
        """Total completion-log entries ever appended — the absolute
        cursor space for :meth:`completed_since`, unaffected by trims."""
        return self._completed_base + len(self._completed_log)

    def completed_since(self, cursor: int) -> List[int]:
        """Completion-log entries at absolute positions ``cursor..``.

        The absolute position of an entry never changes:
        :meth:`trim_completed_log` drops a consumed prefix from memory but
        advances the base, so an engine's ``seen_complete`` cursor keeps
        working across trims.  Asking for an already-trimmed position is
        a consumer bug and raises.
        """
        if cursor < self._completed_base:
            raise SchedulerError(
                f"completion-log cursor {cursor} precedes trimmed base "
                f"{self._completed_base}"
            )
        return self._completed_log[cursor - self._completed_base :]

    def trim_completed_log(self, cursor: int) -> None:
        """Drop completion-log entries below absolute position *cursor*
        (the consumer promises it has processed them)."""
        if cursor < self._completed_base:
            raise SchedulerError(
                f"completion-log trim cursor {cursor} precedes current "
                f"base {self._completed_base}"
            )
        keep = cursor - self._completed_base
        if keep <= 0:
            return
        if keep > len(self._completed_log):
            raise SchedulerError(
                f"completion-log trim cursor {cursor} exceeds total "
                f"{self.completed_total}"
            )
        del self._completed_log[:keep]
        self._completed_base = cursor

    # ------------------------------------------------------------------
    # Retirement (continuous-operation mode)
    # ------------------------------------------------------------------

    @property
    def retired_upto(self) -> int:
        """Highest phase whose per-phase state has been garbage-collected
        (0 when nothing has retired).  Retired phases are always the
        contiguous complete prefix ``1..retired_upto``."""
        return self._retired_upto

    def retire_phases_upto(self, p: int) -> int:
        """Garbage-collect scheduler state for phases ``retired_upto+1..p``.

        Only a *contiguous complete prefix* may retire: every phase
        ``<= p`` must be complete.  That is the property the predicates
        lean on afterwards — ``x``, ``phase_complete`` and determinedness
        answer for retired phases from the prefix bound alone, which is
        exactly what the dropped structures would have said (complete ⟹
        ``x = N`` ⟹ every vertex determined).  Returns the number of
        phases retired by this call; retiring an already-retired range is
        a no-op.
        """
        if p <= self._retired_upto:
            return 0
        if p >= self._oldest_incomplete_phase():
            raise SchedulerError(
                f"cannot retire through phase {p}: phase "
                f"{self._oldest_incomplete_phase()} is not complete"
            )
        retired = 0
        for q in range(self._retired_upto + 1, p + 1):
            self._x.pop(q, None)
            self._complete_set.discard(q)
            # Global mode leaves empty per-phase heaps behind (cone mode
            # pops them at completion); drop both unconditionally.
            self._pending.pop(q, None)
            self._partial_by_phase.pop(q, None)
            retired += 1
        self._retired_upto = p
        return retired

    def frontier_stats(self) -> Dict[str, object]:
        """Frontier-layer observability (the documented stats schema):

        * ``mode`` — ``"global"`` or ``"cone"``;
        * ``cone_count`` — distinct ancestor cones in the graph (the
          independent-progress capacity the cone mode can exploit);
        * ``max_phase_skew`` — the largest ``q - oldest_incomplete_phase``
          observed when a *non-source* pair ``(w, q)`` became ready: how
          far ahead of the slowest phase the schedule pipelined real
          dependent work (sources pipeline trivially in both modes and
          are excluded);
        * ``frontier_advances`` — total per-phase frontier ``x_p``
          advancements (both modes keep ``x``; cone mode without the
          clamp, as a diagnostic).
        """
        return {
            "mode": self.frontier,
            "cone_count": self._cones.cone_count,
            "max_phase_skew": self._max_phase_skew,
            "frontier_advances": self._frontier_advances,
        }

    @property
    def executed_pairs(self) -> int:
        """Total vertex-phase pairs executed so far."""
        return self._executed_pairs

    @property
    def complete_phase_count(self) -> int:
        """Number of started phases that have completed (x_p == N)."""
        return self._complete_phases

    @property
    def ready_backlog(self) -> int:
        """Pairs currently in ready (i.e. runnable or running)."""
        return len(self._ready)

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
        if self.frontier == "cone":
            self._undet[p] = list(self._cones.in_degree)
            self._det[p] = bytearray(self.N + 1)
            self._det_count[p] = 0
        pending = self._pending.setdefault(p, LazyMinHeap())
        # Statements 2.12-2.14: source pairs into full; msg := true.
        for s in range(1, self._m[0] + 1):
            pair = (s, p)
            self._full.add(pair)
            self._msg.add(pair)
            pending.add(s)
            self._full_phases[s].add(p)
        self._generation += 1
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
        outputs for the vertices in *output_targets* (statements 1.4-1.31).

        Returns the newly ready pairs for the caller to enqueue.

        Raises
        ------
        SchedulerError
            If ``(v, p)`` is not currently in the ready set — only ready
            pairs may execute (Section 3.1.2).
        DuplicateExecutionError
            On any attempt to complete a pair twice (via the ready check
            and the per-vertex phase monotonicity bookkeeping).
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
        # Touched phases in first-touch order (an insertion-ordered set:
        # a 64-member run must not pay a list scan per member).
        touched: Dict[int, None] = {}
        preempt = self._preempt_hook
        for v, p, output_targets in batch:
            pair = (v, p)
            claimed = pair in self._run_claimed
            if pair not in self._ready and not claimed:
                if p <= self._ready_upto.get(v, 0) and pair not in self._full:
                    raise DuplicateExecutionError(
                        f"pair {pair} was already executed; each ready pair "
                        f"executes exactly once"
                    )
                raise SchedulerError(
                    f"pair {pair} is not in the ready set and may not execute"
                )

            # Statements 1.5-1.7: remove from full and ready; msg := false.
            # A claimed run extension was never ready — it leaves through
            # the claim ledger instead (claim_run).
            self._full.remove(pair)
            if claimed:
                self._run_claimed.remove(pair)
            else:
                self._ready.remove(pair)
            self._msg.discard(pair)
            pending = self._pending[p]
            pending.discard(v)
            self._full_phases[v].discard(p)
            self._executed_pairs += 1
            self._generation += 1
            if preempt is not None:
                preempt("complete_execution:pair-removed")

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

            self._generation += 1
            if preempt is not None:
                preempt("complete_execution:outputs-inserted")
            affected.append(v)
            touched[p] = None
        touched_phases = list(touched)

        if self.frontier == "cone":
            return self._finish_batch_cone(
                [(v, p) for v, p, _ in batch], touched_phases
            )

        # Statements 1.12-1.23: update x_i over the touched phases.
        changed_phases = self._update_x_over(touched_phases)
        self._preempt("complete_execution:x-updated")

        # Statements 1.24-1.26: move newly full pairs out of partial.
        scan_phases = sorted(set(touched_phases) | set(changed_phases))
        for q in scan_phases:
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
                self._generation += 1

        # Statements 1.27-1.30: newly ready pairs.
        newly_ready = self._refresh_ready(affected)
        self._run_checker()
        return newly_ready

    # ------------------------------------------------------------------
    # Temporal run coalescing
    # ------------------------------------------------------------------

    def claim_run(self, v: int, p: int) -> List[int]:
        """Extend the dispatched ready pair ``(v, p)`` into a phase run.

        Walks phases ``q > p`` ascending, claiming every phase whose pair
        ``(v, q)`` is already *full* — all direct predecessors determined
        for ``q`` with a message waiting, so its inputs are final and no
        concurrent execution can change them — and stepping over phases
        for which *v* is already determined *without* executing (elided
        by suppression or no-message cascade: nothing to run).  The walk
        stops at the first phase that is neither, at the started horizon,
        or once the vertex's current full backlog — capped at
        :data:`ADAPTIVE_RUN_CEILING` — is claimed.

        Claimed extensions enter the claim ledger: they stay in full
        (their defining condition still holds) but are excluded from
        future readiness scans, and ``_ready_upto`` advances to the run's
        highest phase immediately, so exactly-once placement is preserved
        while the run is in flight.  :meth:`complete_executions` accepts
        claimed members interchangeably with ready pairs — as one batch
        (the normal path) or member-at-a-time in ascending order (the
        fault-salvage path), which reach the same state.

        Global mode returns ``[p]`` unchanged: the x_p clamp cannot
        certify later phases.

        An already *claimed* pair is also accepted as the head: that is
        the fault-salvage re-dispatch path, where the unexecuted tail of
        a crashed run (claims intact) is requeued and handed out again —
        possibly re-coalesced into a fresh run.

        Returns the claimed phases ascending, starting with *p*; gaps are
        possible where determined-without-executing phases were stepped
        over.  The caller must execute members in this order (per-vertex
        phase order is what §5.4's serializability argument needs).
        """
        pair = (v, p)
        if pair not in self._ready and pair not in self._run_claimed:
            # Same diagnosis split as complete_executions: a pair that
            # already ran is a duplicate-dispatch bug, anything else is a
            # scheduling error.
            if p <= self._ready_upto.get(v, 0) and pair not in self._full:
                raise DuplicateExecutionError(
                    f"claim_run{pair}: pair was already executed"
                )
            raise SchedulerError(
                f"claim_run{pair}: only a ready or claimed pair may head "
                f"a run"
            )
        members = [p]
        if self.frontier != "cone":
            return members
        max_len = min(ADAPTIVE_RUN_CEILING, len(self._full_phases[v]))
        q = p + 1
        while len(members) < max_len and q <= self._pmax:
            ext = (v, q)
            if ext in self._full:
                self._run_claimed.add(ext)
                self._ready_upto[v] = q
                members.append(q)
            elif not self._is_determined(v, q):
                break
            q += 1
        self._runs_claimed += 1
        self._run_members_claimed += len(members)
        return members

    def run_claimed_set(self) -> FrozenSet[Pair]:
        """Snapshot of the claim ledger: full pairs claimed as in-flight
        run extensions (not ready — the settled gate has not reached
        them — but licensed to execute).  For the invariant checker and
        tests; the hot path never builds it."""
        return frozenset(self._run_claimed)

    def coalescing_stats(self) -> Dict[str, object]:
        """Run-coalescing counters (the ``stats["coalescing"]`` core):

        * ``runs_scheduled`` — :meth:`claim_run` dispatches (a run of one
          still counts: it paid one dispatch);
        * ``pairs_coalesced`` — extension members that rode along with a
          run head instead of paying their own dispatch;
        * ``mean_run_length`` — members per run (0.0 before any run).
        """
        runs = self._runs_claimed
        members = self._run_members_claimed
        return {
            "runs_scheduled": runs,
            "pairs_coalesced": members - runs,
            "mean_run_length": (members / runs) if runs else 0.0,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _snapshot(self, kind: str, live: Set[Pair]) -> FrozenSet[Pair]:
        cached = self._snapshots.get(kind)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        snap = frozenset(live)
        self._snapshot_builds += 1
        self._snapshots[kind] = (self._generation, snap)
        return snap

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
                    self._complete_set.add(i)
                    self._completed_log.append(i)
            i += 1
        return changed

    # -- cone-frontier internals ----------------------------------------

    def _finish_batch_cone(
        self, executed: Sequence[Pair], touched_phases: Sequence[int]
    ) -> List[Pair]:
        """The cone-mode tail of :meth:`complete_executions`: unclamped
        x-update, determination waves, phase completion, newly-ready.

        Replaces statements 1.12-1.30.  The newly-full scan of 1.24-1.26
        becomes part of the wave (a pair goes full the moment its last
        predecessor determines, regardless of lower-indexed strangers),
        and phase completion becomes ``det_count == N`` instead of
        ``x_p == N`` — complete phases no longer form a prefix.
        """
        changed = self._update_x_unclamped(touched_phases)
        del changed  # diagnostic only in cone mode
        self._preempt("complete_execution:x-updated")
        candidates = self._determination_wave(executed)
        for q in sorted(set(touched_phases)):
            if q not in self._complete_set and self._det_count[q] == self.N:
                self._mark_phase_complete_cone(q)
        newly_ready = self._refresh_ready(candidates)
        self._run_checker()
        return newly_ready

    def _update_x_unclamped(self, phases: Sequence[int]) -> List[int]:
        """Per-phase frontier recompute *without* the no-overtaking clamp.

        In cone mode ``x_p`` is a diagnostic (``vmin_p - 1``, or ``N``
        when nothing is pending): it no longer gates fullness, and
        dropping the clamp decouples the phases, so only the touched
        phases can change.  Each ``x_p`` is still nondecreasing — an
        executed vertex was pending, and every inserted output has a
        higher index than its emitter, so the pending minimum never
        drops (asserted).
        """
        changed: List[int] = []
        for i in sorted(set(phases)):
            pend = self._pending.get(i)
            xi = (pend.min() - 1) if pend else self.N
            old = self.x(i)
            if xi != old:
                assert xi > old, (
                    f"x_{i} must be nondecreasing (old {old}, new {xi})"
                )
                self._x[i] = xi
                changed.append(i)
                self._frontier_advances += 1
        return changed

    def _determination_wave(self, executed: Sequence[Pair]) -> List[int]:
        """Propagate determinedness from the executed pairs.

        For each executed ``(v, p)``: mark *v* determined for *p*, then
        walk successors decrementing the phase-*p* undetermined-pred
        counters.  A counter reaching zero either promotes the waiting
        pair partial→full (a message is present) or cascades — the
        successor is determined *without* executing (no message can ever
        arrive for it: all its predecessors are determined).  Each edge
        is traversed at most once per phase over the whole run.

        Returns the readiness candidates: every vertex whose settled
        pointer advanced plus every vertex that went full.  (An executed
        vertex always advances its own pointer — the ready gate held at
        dispatch — so it is always re-examined for its next phase.)
        """
        candidates: List[int] = []
        for v, p in executed:
            det = self._det[p]
            undet = self._undet[p]
            stack = [v]
            while stack:
                u = stack.pop()
                if det[u]:
                    continue
                det[u] = 1
                self._det_count[p] += 1
                if self._settled[u] == p - 1:
                    s = p
                    while s < self._pmax and self._is_determined(u, s + 1):
                        s += 1
                    self._settled[u] = s
                    candidates.append(u)
                for w in self._cones.succs[u]:
                    undet[w] -= 1
                    assert undet[w] >= 0, (
                        f"undetermined-pred count of vertex {w} phase {p} "
                        f"went negative"
                    )
                    if undet[w] == 0:
                        wp = (w, p)
                        if wp in self._partial:
                            # Last predecessor determined and a message
                            # waits: (w, p) is full (statement 1.24-1.26's
                            # role, per-dependency).
                            self._partial.remove(wp)
                            self._full.add(wp)
                            self._full_phases[w].add(p)
                            heap = self._partial_by_phase.get(p)
                            if heap is not None:
                                heap.discard(w)
                            self._generation += 1
                            candidates.append(w)
                        else:
                            # No message and none can arrive: determined
                            # without executing — cascade.
                            stack.append(w)
        return candidates

    def _is_determined(self, v: int, r: int) -> bool:
        """Vertex *v* determined for started phase *r* (complete phases
        count as all-determined; their per-phase arrays are dropped)."""
        if r in self._complete_set or r <= self._retired_upto:
            return True
        det = self._det.get(r)
        return det is not None and bool(det[v])

    def _oldest_incomplete_phase(self) -> int:
        """Smallest started-but-incomplete phase (``pmax + 1`` at
        quiescence); amortised O(1) via a monotone pointer."""
        o = self._oldest_incomplete
        while o <= self._pmax and o in self._complete_set:
            o += 1
        self._oldest_incomplete = o
        return o

    def _mark_phase_complete_cone(self, q: int) -> None:
        """Every vertex determined for *q*: retire the phase's arrays."""
        assert self.x(q) == self.N, (
            f"phase {q} complete with pending pairs (x={self.x(q)})"
        )
        self._complete_phases += 1
        self._complete_set.add(q)
        self._completed_log.append(q)
        del self._undet[q]
        del self._det[q]
        del self._det_count[q]
        self._pending.pop(q, None)
        self._partial_by_phase.pop(q, None)

    def _refresh_ready(self, vertices: Iterable[int]) -> List[Pair]:
        """Statements 1.27-1.30 / 2.16-2.19, restricted to *vertices*.

        Only a vertex whose full-phase set just changed can gain a ready
        pair (readiness of ``(w, q)`` depends solely on ``w``'s own full
        phases), so the definitional scan over all pairs reduces to the
        affected vertices.  Enforces exactly-once placement.

        In cone mode a full pair additionally waits for its vertex to be
        *settled* through ``q - 1`` (determined for every earlier started
        phase) — the per-vertex phase-order gate that replaces the
        min-full-phase rule's reliance on the global clamp.  The settled
        gate subsumes the min rule: an earlier full or partial phase
        keeps the vertex unsettled, so ``q`` is necessarily the vertex's
        lowest pending phase when the gate opens.
        """
        cone = self.frontier == "cone"
        enable = self._cones.enable
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
            if pair in self._ready or pair in self._run_claimed:
                # Claimed run extensions are already in flight; they
                # leave through complete_executions, never through ready.
                continue
            if cone and self._settled[w] != q - 1:
                continue
            if q <= self._ready_upto.get(w, 0):
                raise DuplicateExecutionError(
                    f"pair {pair} would enter the ready set a second time"
                )
            self._ready_upto[w] = q
            self._ready.add(pair)
            self._generation += 1
            out.append(pair)
            if enable[w] > 0:
                skew = q - self._oldest_incomplete_phase()
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
            f"SchedulerState(N={self.N}, pmax={self._pmax}, "
            f"partial={len(self._partial)}, full={len(self._full)}, "
            f"ready={len(self._ready)}, executed={self._executed_pairs})"
        )
