"""Runtime verification of the correctness argument (Section 3.3).

The paper proves correctness by showing that, at every ``unlock``, the
partial / full / ready variables coincide with their *definitions*
(equations (7)-(9)) evaluated over the ghost ``msg`` variables, ``x``,
``pmax`` and ``m``.  :class:`InvariantChecker` re-derives those definitions
from scratch and compares them with the incrementally maintained sets —
turning the paper's proof obligations into executable checks:

* **(7)** ``full  = {(v,p) | 1<=p<=pmax ∧ msg(v,p) ∧ x_p < v <= m(x_p)}``
* **(9)** ``partial = {(v,p) | 1<=p<=pmax ∧ msg(v,p) ∧ m(x_p) < v}``
* **(8)** ``ready = min-phase-per-vertex subset of full``
* **x-consistency** (Section 3.3.2): for every started phase,
  ``x_p = min(vmin_p - 1, x_{p-1})`` where ``vmin_p`` is the least index
  with a pair in partial ∪ full (or ``x_p = min(N, x_{p-1})`` when none
  remains), and ``x_p <= x_{p-1}`` (the no-overtaking clamp).
* **pmax-consistency** (Section 3.3.1): every pair in any set has
  ``1 <= p <= pmax``.

The checker is O(|msg| + pmax) per call; it is attached in tests and
debugging runs and omitted in performance runs.

For the engines' scheduler (:class:`repro.core.state.SchedulerState`) the
definitions change (docs/ARCHITECTURE.md §5.4), so the checker re-derives the
cone-rule ground truth instead, reading the scheduler only through its
public views: per in-flight phase it computes *determinedness* as the
least fixed point of "no message waits and every direct predecessor is
determined" — one ascending-index pass, since edges only point upward —
then checks

* ``full = {(v,p) | msg(v,p) ∧ every pred determined}`` and
  ``partial`` its complement over ``msg``;
* ``ready = {(v,q) ∈ full | v settled through q-1}`` (determined for
  every earlier started phase) minus the run-claim ledger — claimed run
  extensions (docs/ARCHITECTURE.md §5.7) execute without entering ready;
* the live ``undet`` counters, determined flags, per-phase determined /
  waiting counts, per-vertex settled pointers and full backlogs against
  the derivation;
* phase completion = all ``N`` vertices determined, and the completion
  count, log and retired prefix against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from ..errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover
    from .reference import ReferenceScheduler
    from .state import SchedulerState

__all__ = ["InvariantChecker"]


class InvariantChecker:
    """Re-derives definitions (7)-(9) and compares with the live sets.

    Parameters
    ----------
    strict:
        If True (default) raise :class:`InvariantViolation` on the first
        failure; otherwise collect failure descriptions in
        :attr:`violations` and keep going (useful for debugging).
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.checks_run = 0
        self.violations: List[str] = []

    def check(self, state: "SchedulerState | ReferenceScheduler") -> None:
        """Verify every invariant against *state*; see class docstring.

        Branches on the scheduler's rule: the published definitions
        (7)-(9) for the ``"global"`` frontier of
        :class:`~repro.core.reference.ReferenceScheduler`, the
        per-dependency definitions of docs/ARCHITECTURE.md §5.4 for the
        ``"cone"`` rule of :class:`~repro.core.state.SchedulerState`.
        """
        self.checks_run += 1
        if state.frontier == "cone":
            self._check_cone(state)
            return
        n = state.N
        pmax = state.pmax
        msg_pairs = state.msg_set()

        # pmax-consistency: no pair with a phase outside 1..pmax.
        for v, p in msg_pairs:
            if not 1 <= p <= pmax:
                self._fail(f"msg({v},{p}) set but phase outside 1..pmax={pmax}")
            if not 1 <= v <= n:
                self._fail(f"msg({v},{p}) set but vertex outside 1..N={n}")

        # Definitions (7) and (9), derived from ghosts.
        full_def: Set[Tuple[int, int]] = set()
        partial_def: Set[Tuple[int, int]] = set()
        for v, p in msg_pairs:
            xp = state.x(p)
            if xp < v <= state.m(xp):
                full_def.add((v, p))
            elif v > state.m(xp):
                partial_def.add((v, p))
            else:
                # v <= x_p would mean a message waits on a vertex that has
                # already finished the phase — impossible in a correct run.
                self._fail(
                    f"msg({v},{p}) set but v <= x_{p} = {xp}: message waiting "
                    f"on an already-finished pair"
                )

        live_full = state.full_set()
        live_partial = state.partial_set()
        live_ready = state.ready_set()

        if live_full != full_def:
            self._fail(
                f"full set diverges from definition (7): "
                f"live-only={sorted(live_full - full_def)}, "
                f"def-only={sorted(full_def - live_full)}"
            )
        if live_partial != partial_def:
            self._fail(
                f"partial set diverges from definition (9): "
                f"live-only={sorted(live_partial - partial_def)}, "
                f"def-only={sorted(partial_def - live_partial)}"
            )

        # Definition (8): ready = the min-phase pair per vertex in full.
        min_phase: Dict[int, int] = {}
        for v, p in full_def:
            if v not in min_phase or p < min_phase[v]:
                min_phase[v] = p
        ready_def = {(v, p) for v, p in min_phase.items()}
        # Execution removes a pair from full and ready inside one critical
        # section, so at every unlock ready equals the definition exactly.
        if live_ready != ready_def:
            self._fail(
                f"ready set diverges from definition (8): "
                f"live-only={sorted(live_ready - ready_def)}, "
                f"def-only={sorted(ready_def - live_ready)}"
            )
        if not live_ready <= live_full:
            self._fail("ready is not a subset of full")
        if live_partial & live_full:
            self._fail(
                f"partial and full intersect: {sorted(live_partial & live_full)}"
            )

        # x-consistency (Section 3.3.2).
        vmin: Dict[int, int] = {}
        for v, p in msg_pairs:
            if v < vmin.get(p, n + 1):
                vmin[p] = v
        if state.x(0) != n:
            self._fail(f"x_0 must be N={n}, got {state.x(0)}")
        for p in range(1, pmax + 1):
            xp = state.x(p)
            xprev = state.x(p - 1)
            if xp > xprev:
                self._fail(f"clamp violated: x_{p}={xp} > x_{p-1}={xprev}")
            expected = (vmin[p] - 1) if p in vmin else n
            expected = min(expected, xprev)
            if xp != expected:
                self._fail(
                    f"x_{p}={xp} but the Listing-1 update yields {expected} "
                    f"(vmin={vmin.get(p)}, x_{p-1}={xprev})"
                )

    def _check_cone(self, state: "SchedulerState") -> None:
        """Cone-rule ground truth: re-derive determinedness per in-flight
        phase as a least fixed point (one ascending-index pass suffices —
        edges only point upward), then compare every live structure,
        read through the scheduler's public views, against the
        derivation.  See the module docstring."""
        n = state.N
        pmax = state.pmax
        cones = state.cones
        live_full = state.full_set()
        live_partial = state.partial_set()
        live_ready = state.ready_set()
        claimed = state.run_claimed_set()
        # msg(v, p) holds exactly for the waiting pairs.
        msg_pairs = live_full | live_partial

        by_phase: Dict[int, Set[int]] = {}
        for v, p in msg_pairs:
            if not 1 <= p <= pmax:
                self._fail(f"msg({v},{p}) set but phase outside 1..pmax={pmax}")
            if not 1 <= v <= n:
                self._fail(f"msg({v},{p}) set but vertex outside 1..N={n}")
            by_phase.setdefault(p, set()).add(v)

        # Completion bookkeeping: a started phase is complete or in
        # flight, the count and the log agree with that split, complete
        # phases hold no message, and the retired prefix (whose log
        # entries may have been trimmed) is complete.
        retired = state.retired_upto
        in_flight = state.in_flight_phases()
        complete = [
            p for p in range(1, pmax + 1) if state.phase_complete(p)
        ]
        if sorted(complete + in_flight) != list(range(1, pmax + 1)):
            self._fail(
                f"complete phases {complete} and in-flight phases "
                f"{in_flight} do not partition 1..pmax={pmax}"
            )
        if len(complete) != state.complete_phase_count:
            self._fail(
                f"{len(complete)} phases are complete but "
                f"complete_phase_count is {state.complete_phase_count}"
            )
        log = list(state.completed_log)
        trimmed = state.completed_total - len(log)
        if trimmed == 0:
            if sorted(log) != complete:
                self._fail(
                    f"completion log {log} does not enumerate the "
                    f"complete phases {complete}"
                )
        else:
            for p in log:
                if not state.phase_complete(p):
                    self._fail(
                        f"completion log holds phase {p} which is not complete"
                    )
        if in_flight and in_flight[0] <= retired:
            self._fail(
                f"phase {in_flight[0]} is in flight but retired "
                f"(retired_upto={retired})"
            )
        for p in complete:
            if by_phase.get(p):
                self._fail(
                    f"complete phase {p} still has messages: "
                    f"{sorted(by_phase[p])}"
                )

        # Per-phase determinedness fixed point + live-counter comparison.
        live = state.counters()
        full_def: Set[Tuple[int, int]] = set()
        partial_def: Set[Tuple[int, int]] = set()
        det_by_phase: Dict[int, List[bool]] = {}
        for p in in_flight:
            msgs = by_phase.get(p, set())
            det = [False] * (n + 1)
            for v in range(1, n + 1):
                det[v] = v not in msgs and all(det[u] for u in cones.preds[v])
            det_by_phase[p] = det
            if sum(det) == n:
                self._fail(
                    f"phase {p} has every vertex determined but was not "
                    f"marked complete"
                )
            undet = [0] + [
                sum(1 for u in cones.preds[v] if not det[u])
                for v in range(1, n + 1)
            ]
            expected = (det, undet, sum(det), len(msgs))
            names = ("determined flags", "undet counters", "determined count",
                     "waiting count")
            for name, got, want in zip(names, live["phases"][p], expected):
                if got != want:
                    self._fail(
                        f"phase {p} {name}: {got} live but {want} by definition"
                    )
            for v in msgs:
                if undet[v] == 0:
                    full_def.add((v, p))
                else:
                    partial_def.add((v, p))

        if live_full != full_def:
            self._fail(
                f"full set diverges from the per-dependency definition: "
                f"live-only={sorted(live_full - full_def)}, "
                f"def-only={sorted(full_def - live_full)}"
            )
        if live_partial != partial_def:
            self._fail(
                f"partial set diverges from the per-dependency definition: "
                f"live-only={sorted(live_partial - partial_def)}, "
                f"def-only={sorted(partial_def - live_partial)}"
            )

        # Settled pointers: longest determined prefix of started phases;
        # full backlogs: what claim_run's adaptive ceiling reads.
        settled_def = [0] * (n + 1)
        backlog_def = [0] * (n + 1)
        for v, _ in full_def:
            backlog_def[v] += 1
        for v in range(1, n + 1):
            s = 0
            while s < pmax and (
                s + 1 not in det_by_phase or det_by_phase[s + 1][v]
            ):
                s += 1
            settled_def[v] = s
        if live["settled"][1:] != settled_def[1:]:
            self._fail(
                f"settled pointers {live['settled'][1:]} but the vertices are "
                f"determined exactly through phases {settled_def[1:]}"
            )
        if live["full_backlog"][1:] != backlog_def[1:]:
            self._fail(
                f"full backlogs {live['full_backlog'][1:]} but the vertices "
                f"have {backlog_def[1:]} full pairs"
            )

        # Ready: full pairs whose vertex is settled through q-1 — minus
        # the claim ledger.  A claimed run extension is licensed to
        # execute without ever entering ready; normally its gate is shut
        # (settled lags behind the uncommitted run head), but when an
        # earlier member commits separately (the fault-salvage path) the
        # gate can open while the pair stays claimed.  Every claimed pair
        # must itself be full.  (One status byte per pair makes partial,
        # ready and claimed disjoint, and ready a subset of full, by
        # construction.)
        for v, q in sorted(claimed):
            if (v, q) not in full_def:
                self._fail(
                    f"claimed run extension ({v},{q}) is not a full pair"
                )
        ready_def = {
            (v, q) for v, q in full_def if settled_def[v] == q - 1
        } - claimed
        if live_ready != ready_def:
            self._fail(
                f"ready set diverges from the settled-gate definition: "
                f"live-only={sorted(live_ready - ready_def)}, "
                f"def-only={sorted(ready_def - live_ready)}"
            )

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    def __repr__(self) -> str:
        return (
            f"InvariantChecker(strict={self.strict}, checks={self.checks_run}, "
            f"violations={len(self.violations)})"
        )
