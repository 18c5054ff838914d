"""Execution plans: the compile-time optimization layer between a
:class:`~repro.core.program.Program` and the engines.

An :class:`ExecutionPlan` is a program rewritten for cheaper scheduling
plus the mapping needed to report results in terms of the *original*
program.  The only rewrite currently performed is **linear-chain fusion**
(:mod:`repro.graph.fuse`): every maximal single-predecessor /
single-successor chain collapses into one :class:`FusedVertex` that runs
the member behaviours in topological order in-process.  The scheduler then
dispatches one (stage, phase) pair — one lock acquisition, one queue
transfer, one IPC frame — where it previously dispatched one pair per
member.

Δ-semantics survive fusion: a member executes iff its chain predecessor
emitted a message *this phase* (the predecessor's silence short-circuits
the rest of the chain), and the chain edge's latched previous value is
kept as fused-vertex state, exactly mirroring the per-edge latches of
:class:`~repro.core.ports.EdgeStore`.

Serializability argument (sketch; docs/ARCHITECTURE.md §5.2 has the full
version): an interior chain member's **only** input is its chain edge, so
in the serial order its phase-``p`` execution depends on nothing but the
phase-``p`` execution of its predecessor.  Fusion merely *pre-applies*
that fragment of the schedule — it runs the member immediately after its
predecessor instead of scheduling it as a separate pair.  Because
external in-edges enter a chain only at its head and external out-edges
leave only from its tail, the fused stage consumes exactly the messages
the head would have consumed and emits exactly the messages the tail
would have emitted, at a single commit point that every original commit
interleaving already allowed.

Per-original-vertex reporting is reconstructed from a :class:`FusedTrace`
— one structured record appended per fused-stage execution, carrying
which members ran, their records, and the internal message count — via
:meth:`ExecutionPlan.translate`, so executions, records and message
counts compare *exactly* against the unfused serial oracle
(:func:`repro.analysis.serializability.check_serializable`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..errors import SchedulerError, VertexExecutionError
from ..events import PhaseInput
from ..graph.fuse import FusionResult, fuse_graph
from .ports import stable_equal
from .program import Program, RunResult
from .vertex import EMIT_NOTHING, Vertex, VertexContext

__all__ = [
    "ExecutionPlan",
    "FusedVertex",
    "FusedTrace",
    "RelabeledVertex",
    "compile_plan",
    "as_plan",
]


@dataclass(frozen=True)
class FusedTrace:
    """What one execution of a fused stage did, member by member.

    Appended to the stage's record log (exactly one per executed pair),
    it is the evidence :meth:`ExecutionPlan.translate` uses to expand the
    stage execution back into per-original-vertex executions, records and
    message counts.  Picklable: it rides result messages over the process
    backend's wire.

    Attributes
    ----------
    members:
        The member names that executed, in chain order.  A strict prefix
        of the chain when Δ-short-circuiting stopped it early.
    records:
        ``(member name, recorded values)`` for members that recorded.
    internal_messages:
        Messages delivered on internal chain edges (these never reach the
        plan's edge store, so the translated message count adds them
        back).
    """

    members: Tuple[str, ...]
    records: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    internal_messages: int


@dataclass
class _Member:
    """One chain member inside a :class:`FusedVertex` (picklable)."""

    name: str
    behavior: Vertex
    successors: Tuple[str, ...]  # original successor names


class FusedVertex(Vertex):
    """A maximal linear chain executed as one vertex.

    The members' behaviours are held by reference (not copied): resetting
    or restoring the fused vertex mutates the very objects the source
    program owns, so per-original-vertex state stays observable after a
    run regardless of fusion.

    State owned by the fused vertex itself is the set of **internal
    latches** — the last value sent along each internal chain edge —
    which replaces the per-edge latch the
    :class:`~repro.core.ports.EdgeStore` would have kept for those edges.
    """

    def __init__(self, members: Sequence[_Member]) -> None:
        if len(members) < 2:
            raise SchedulerError("a FusedVertex needs at least two members")
        self._members: List[_Member] = list(members)
        # Bound by ExecutionPlan construction (the plan-level names are
        # not known until the fused graph exists):
        self._in_map: Dict[str, str] = {}  # plan pred name -> original pred name
        self._ext_out: Dict[str, str] = {}  # original succ name -> plan succ name
        self._is_source = False
        # receiving member name -> latched value on its chain edge
        self._latch: Dict[str, Any] = {}
        # Change suppression (set per run via configure_suppression):
        # when enabled, a member's value-equal internal output may stop
        # the chain early — see _compute_elide_from for the rule.
        self._suppress_enabled = False
        self._elide_from: List[bool] = self._compute_elide_from()

    def _compute_elide_from(self) -> List[bool]:
        """``_elide_from[j]``: a value-equal message *into* member *j*
        may be dropped **using chain-local information only** — some
        member at or after *j* is ``silent_on_unchanged`` with every
        member in between suppressible, so the value-equal propagation
        provably dies inside the chain without emitting or recording.

        If the propagation would instead run through to the tail's
        external emissions, the chain executes normally and the
        commit-level edge-latch check decides — that case needs
        plan-graph knowledge this pickled behaviour does not carry.
        """
        n = len(self._members)
        elide = [False] * (n + 1)
        for j in range(n - 1, -1, -1):
            beh = self._members[j].behavior
            if not getattr(beh, "suppressible", True):
                continue
            silent = bool(getattr(beh, "silent_on_unchanged", False))
            elide[j] = silent or elide[j + 1]
        return elide

    def configure_suppression(self, enabled: bool) -> None:
        """Enable/disable the intra-chain value-equal short-circuit.

        Called by :class:`~repro.core.program.PairRuntime` at run start —
        before the process backend pickles its warm caches, so workers
        inherit the run's setting."""
        self._suppress_enabled = enabled
        self._elide_from = self._compute_elide_from()

    # -- suppressibility contract (stage-level) ------------------------

    @property
    def suppressible(self) -> bool:  # type: ignore[override]
        """A stage is suppressible iff every member is."""
        return all(
            getattr(m.behavior, "suppressible", True) for m in self._members
        )

    @property
    def silent_on_unchanged(self) -> bool:  # type: ignore[override]
        """A value-equal input dies inside the chain: all members
        suppressible and at least one strictly silent (the propagation
        stops there, before any external emission or record)."""
        return self.suppressible and any(
            getattr(m.behavior, "silent_on_unchanged", False)
            for m in self._members
        )

    def bind_plan(
        self,
        in_map: Dict[str, str],
        ext_out: Dict[str, str],
        is_source: bool,
    ) -> None:
        """Attach the plan-level name translations (plan construction only)."""
        self._in_map = dict(in_map)
        self._ext_out = dict(ext_out)
        self._is_source = is_source

    @property
    def member_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self._members)

    # -- execution -----------------------------------------------------

    def on_execute(self, ctx: VertexContext) -> Any:
        members = self._members
        executed: List[str] = []
        recorded: List[Tuple[str, Tuple[Any, ...]]] = []
        internal = 0
        last = len(members) - 1
        for i, member in enumerate(members):
            if i == 0:
                # The head sees the stage's external inputs, translated
                # back to its original predecessor names.
                sub_inputs = {
                    self._in_map[k]: v for k, v in ctx.inputs.items()
                }
                sub_changed = {self._in_map[k] for k in ctx.changed}
                sub_phase_input = ctx.phase_input if self._is_source else None
            else:
                # An interior member's only input is its chain edge; it
                # runs only because the predecessor just emitted, so the
                # latch holds this phase's value.
                prev = members[i - 1].name
                sub_inputs = {prev: self._latch[member.name]}
                sub_changed = {prev}
                sub_phase_input = None
            sub = VertexContext.owning(
                member.name,
                ctx.phase,
                sub_inputs,
                sub_changed,
                member.successors,
                sub_phase_input,
            )
            try:
                returned = member.behavior.on_execute(sub)
            except VertexExecutionError:
                raise
            except Exception as exc:  # attribute the fault to the member
                raise VertexExecutionError(
                    member.name, ctx.phase, str(exc)
                ) from exc
            sub.finish(returned)
            executed.append(member.name)
            if sub.records:
                recorded.append((member.name, tuple(sub.records)))
            if i < last:
                nxt = members[i + 1].name
                if nxt in sub.outputs:
                    value = sub.outputs[nxt]
                    if (
                        self._suppress_enabled
                        and self._elide_from[i + 1]
                        and nxt in self._latch
                        and stable_equal(self._latch[nxt], value)
                    ):
                        # Value-equal short-circuit: the rest of the
                        # chain is provably a no-op that emits nothing.
                        break
                    self._latch[nxt] = value
                    internal += 1
                else:
                    # Δ short-circuit: no message means "unchanged", so
                    # the rest of the chain provably need not execute.
                    break
            else:
                for succ, value in sub.outputs.items():
                    ctx.emit_to(self._ext_out[succ], value)
        ctx.record(FusedTrace(tuple(executed), tuple(recorded), internal))
        return EMIT_NOTHING

    # -- state management ----------------------------------------------

    def reset(self) -> None:
        for member in self._members:
            member.behavior.reset()
        self._latch = {}

    def snapshot_state(self) -> Any:
        return {
            "members": {
                m.name: m.behavior.snapshot_state() for m in self._members
            },
            "latch": copy.deepcopy(self._latch),
        }

    def restore_state(self, snapshot: Any) -> None:
        # Restore INTO the existing member objects (never replace them):
        # the source program holds references to the same behaviours.
        for member in self._members:
            member.behavior.restore_state(snapshot["members"][member.name])
        self._latch = copy.deepcopy(snapshot["latch"])

    def snapshot_delta(self, baseline: Any) -> Any:
        return (
            "fused",
            {
                m.name: m.behavior.snapshot_delta(
                    baseline["members"][m.name]
                )
                for m in self._members
            },
            copy.deepcopy(self._latch),
        )

    def apply_delta(self, delta: Any) -> None:
        if delta[0] != "fused":
            super().apply_delta(delta)
            return
        _, member_deltas, latch = delta
        for member in self._members:
            member.behavior.apply_delta(member_deltas[member.name])
        self._latch = copy.deepcopy(latch)

    def __repr__(self) -> str:
        return f"FusedVertex({'->'.join(self.member_names)})"


class RelabeledVertex(Vertex):
    """An unfused vertex whose plan-space neighbours are fused stages.

    In plan space the vertex's predecessors/successors carry *stage*
    names, but behaviours legitimately key on the original names
    (``ctx.input("sensor")``) — so this adapter re-keys inputs from plan
    names back to original predecessor names before executing, and
    outputs from original successor names to plan names after.  State
    management delegates to the wrapped behaviour (the source program's
    own object), so per-original-vertex state stays observable and the
    process backend's delta sync passes straight through.
    """

    def __init__(
        self,
        name: str,
        behavior: Vertex,
        in_map: Dict[str, str],
        ext_out: Dict[str, str],
        successors: Sequence[str],
    ) -> None:
        self._name = name
        self.behavior = behavior
        self._in_map = dict(in_map)  # plan pred name -> original pred name
        self._ext_out = dict(ext_out)  # original succ name -> plan succ name
        self._successors = tuple(successors)  # original successor names

    # The adapter is transparent to the suppressibility contract.

    @property
    def suppressible(self) -> bool:  # type: ignore[override]
        return bool(getattr(self.behavior, "suppressible", True))

    @property
    def silent_on_unchanged(self) -> bool:  # type: ignore[override]
        return bool(getattr(self.behavior, "silent_on_unchanged", False))

    def on_execute(self, ctx: VertexContext) -> Any:
        sub = VertexContext.owning(
            self._name,
            ctx.phase,
            {self._in_map.get(k, k): v for k, v in ctx.inputs.items()},
            {self._in_map.get(k, k) for k in ctx.changed},
            self._successors,
            ctx.phase_input,
        )
        returned = self.behavior.on_execute(sub)
        sub.finish(returned)
        for succ, value in sub.outputs.items():
            ctx.emit_to(self._ext_out.get(succ, succ), value)
        for value in sub.records:
            ctx.record(value)
        return EMIT_NOTHING

    def reset(self) -> None:
        self.behavior.reset()

    def snapshot_state(self) -> Any:
        return self.behavior.snapshot_state()

    def restore_state(self, snapshot: Any) -> None:
        self.behavior.restore_state(snapshot)

    def snapshot_delta(self, baseline: Any) -> Any:
        return self.behavior.snapshot_delta(baseline)

    def apply_delta(self, delta: Any) -> None:
        self.behavior.apply_delta(delta)

    def __repr__(self) -> str:
        return f"RelabeledVertex({self._name!r})"


class ExecutionPlan:
    """A compiled program plus the plan<->original mapping.

    Engines execute :attr:`program` (the possibly-fused program) and feed
    the raw result through :meth:`translate`, which restores
    per-original-vertex executions, records, and message counts.  When
    nothing was fused, :attr:`program` *is* :attr:`source` and
    :meth:`translate` is the identity, so passing a plain
    :class:`Program` through :func:`as_plan` changes nothing.

    Attributes
    ----------
    source:
        The original program (reporting space).
    program:
        The program the engines schedule (plan space).  Singleton stages
        share the source program's behaviour objects; fused stages hold a
        :class:`FusedVertex` over them.
    members_of:
        Plan vertex name -> ordered original member names.
    stage_of:
        Original vertex name -> plan vertex name.
    """

    def __init__(
        self,
        source: Program,
        program: Program,
        members_of: Optional[Dict[str, Tuple[str, ...]]] = None,
        stage_of: Optional[Dict[str, str]] = None,
    ) -> None:
        self.source = source
        self.program = program
        if members_of is None:
            members_of = {v: (v,) for v in source.graph.vertices()}
        if stage_of is None:
            stage_of = {v: v for v in source.graph.vertices()}
        self.members_of = members_of
        self.stage_of = stage_of
        self._fused_stages = {
            name for name, members in members_of.items() if len(members) > 1
        }

    # -- introspection -------------------------------------------------

    @property
    def fused(self) -> bool:
        """True iff at least one chain was fused."""
        return bool(self._fused_stages)

    @property
    def fused_stage_count(self) -> int:
        return len(self._fused_stages)

    @property
    def vertices_eliminated(self) -> int:
        """Scheduling units removed by fusion (`source.n - program.n`)."""
        return self.source.n - self.program.n

    def members(self, stage: str) -> Tuple[str, ...]:
        """Original member names of plan vertex *stage* (chain order)."""
        return self.members_of[stage]

    def stage_index_of(self, original: str) -> int:
        """Plan-numbering index of the stage containing *original*."""
        return self.program.numbering.index_of[self.stage_of[original]]

    def stage_cones(self) -> Dict[str, FrozenSet[str]]:
        """Ancestor cone of each stage, as source-graph vertex names:
        the union of the members' cones minus the members themselves.

        Fusion only collapses linear chains, so this union is exactly the
        projection of the plan-space ancestor cone — the cone-frontier
        scheduler running over the fused plan therefore gates each stage
        on precisely these vertices' stages (asserted by
        ``tests/graph/test_cones.py``).
        """
        from ..graph.cones import stage_cones

        return stage_cones(self)

    def describe(self) -> Dict[str, Any]:
        """Summary used by stats, ``repro info`` and the benchmarks."""
        return {
            "enabled": self.fused,
            "original_vertices": self.source.n,
            "plan_vertices": self.program.n,
            "fused_stages": self.fused_stage_count,
            "vertices_eliminated": self.vertices_eliminated,
            "stages": {
                name: list(self.members_of[name])
                for name in sorted(self._fused_stages)
            },
        }

    # -- engine-side hooks ---------------------------------------------

    def localize_phase_inputs(
        self, phase_inputs: Sequence[PhaseInput]
    ) -> Sequence[PhaseInput]:
        """Re-key external phase payloads to plan vertex names.

        A source absorbed as a chain head keeps receiving its payload:
        the payload is re-addressed to the head's stage, and the stage's
        :class:`FusedVertex` hands it to the head.  Identity when nothing
        is fused.
        """
        if not self.fused:
            return phase_inputs
        out: List[PhaseInput] = []
        for pi in phase_inputs:
            values = {
                self.stage_of.get(name, name): value
                for name, value in pi.values.items()
            }
            out.append(PhaseInput(pi.phase, pi.timestamp, values))
        return out

    def translate_entries(
        self, entries: Sequence[Tuple[str, Any]]
    ) -> Tuple[List[Tuple[str, Any]], int]:
        """Map one phase's plan-space record entries back to original
        vertices — the per-phase streaming analogue of :meth:`translate`.

        *entries* is ``(plan_vertex_name, recorded_value)`` in commit
        order for a single phase (the shape
        :meth:`~repro.core.program.PairRuntime.retire_phase` returns).
        Fused-stage traces expand into their members' record entries in
        chain order; everything else passes through.  Returns the
        translated entries plus the phase's internal chain-message count.
        Identity (with count 0) when nothing is fused.
        """
        if not self.fused:
            return list(entries), 0
        out: List[Tuple[str, Any]] = []
        internal = 0
        for name, value in entries:
            if name not in self._fused_stages:
                out.append((name, value))
                continue
            if not isinstance(value, FusedTrace):
                raise SchedulerError(
                    f"fused stage {name!r} recorded a non-trace value "
                    f"{value!r}"
                )
            for member, values in value.records:
                out.extend((member, v) for v in values)
            internal += value.internal_messages
        return out, internal

    def translate(self, result: RunResult) -> RunResult:
        """Map a plan-space :class:`RunResult` back to original vertices.

        Expands each fused-stage execution into its members' executions
        (chain order), re-attributes records, and adds the internal chain
        messages back into the message count, so the translated result is
        directly comparable — execution set, records, message count — to
        an unfused serial-oracle run.  Identity when nothing is fused.
        """
        if not self.fused:
            return result
        plan_names = self.program.numbering
        src_index = self.source.numbering.index_of

        # Per-stage phase -> trace lookup (one trace per executed pair).
        traces: Dict[str, Dict[int, FusedTrace]] = {}
        records: Dict[str, List[Tuple[int, Any]]] = {}
        for name, log in result.records.items():
            if name not in self._fused_stages:
                records[name] = list(log)
                continue
            by_phase = traces.setdefault(name, {})
            for phase, trace in log:
                if not isinstance(trace, FusedTrace):
                    raise SchedulerError(
                        f"fused stage {name!r} recorded a non-trace value "
                        f"{trace!r} for phase {phase}"
                    )
                by_phase[phase] = trace
                for member, values in trace.records:
                    member_log = records.setdefault(member, [])
                    member_log.extend((phase, value) for value in values)

        internal_total = 0
        executions: List[Tuple[int, int]] = []
        for v, p in result.executions:
            name = plan_names.name_of(v)
            if name not in self._fused_stages:
                executions.append((src_index[name], p))
                continue
            trace = traces.get(name, {}).get(p)
            if trace is None:
                raise SchedulerError(
                    f"fused stage {name!r} executed phase {p} without "
                    f"leaving a trace record"
                )
            executions.extend((src_index[m], p) for m in trace.members)
            internal_total += trace.internal_messages

        stats = dict(result.stats)
        fusion = self.describe()
        fusion["scheduled_pairs"] = len(result.executions)
        fusion["member_executions"] = len(executions)
        fusion["internal_messages"] = internal_total
        stats["fusion"] = fusion
        return RunResult(
            engine=f"{result.engine}+fused[{self.source.n}->{self.program.n}]",
            records=records,
            executions=executions,
            message_count=result.message_count + internal_total,
            phases_run=result.phases_run,
            wall_time=result.wall_time,
            stats=stats,
        )

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan({self.source.name!r}, "
            f"{self.source.n}->{self.program.n} vertices, "
            f"fused_stages={self.fused_stage_count})"
        )


def compile_plan(program: Program, fuse: bool = True) -> ExecutionPlan:
    """Compile *program* into an :class:`ExecutionPlan`.

    With ``fuse=False`` — or when the graph has no fusible chain — the
    plan is the identity: the engines execute *program* itself and
    results pass through untranslated, reproducing unfused behaviour
    exactly.
    """
    if not fuse:
        return ExecutionPlan(program, program)
    fusion: FusionResult = fuse_graph(program.graph)
    if not fusion.chains:
        return ExecutionPlan(program, program)

    graph = program.graph
    behaviors: Dict[str, Vertex] = {}
    fused_vertices: Dict[str, FusedVertex] = {}
    for sname, members in fusion.members_of.items():
        if len(members) == 1:
            orig = members[0]
            # Neighbours absorbed into fused stages change this vertex's
            # plan-space input/output names; behaviours key on the
            # original ones, so wrap with the name translations.
            in_map = {
                fusion.stage_of[p]: p
                for p in graph.predecessors(orig)
                if fusion.stage_of[p] != p
            }
            ext_out = {
                s: fusion.stage_of[s]
                for s in graph.successors(orig)
                if fusion.stage_of[s] != s
            }
            if in_map or ext_out:
                behaviors[sname] = RelabeledVertex(
                    orig,
                    program.behaviors[orig],
                    in_map,
                    ext_out,
                    tuple(graph.successors(orig)),
                )
            else:
                behaviors[sname] = program.behaviors[orig]
            continue
        fv = FusedVertex(
            [
                _Member(
                    name=m,
                    behavior=program.behaviors[m],
                    successors=tuple(graph.successors(m)),
                )
                for m in members
            ]
        )
        behaviors[sname] = fv
        fused_vertices[sname] = fv

    plan_program = Program(
        fusion.graph, behaviors, name=f"{program.name}+fused"
    )

    # Bind the plan-level name translations now that stage names exist.
    for sname, fv in fused_vertices.items():
        head, tail = fusion.members_of[sname][0], fusion.members_of[sname][-1]
        # External in-edges enter only at the head; each predecessor
        # lives in a distinct stage (tails are the only members with
        # external out-edges), so plan pred -> original pred is a bijection.
        in_map = {fusion.stage_of[p]: p for p in graph.predecessors(head)}
        ext_out = {s: fusion.stage_of[s] for s in graph.successors(tail)}
        fv.bind_plan(in_map, ext_out, is_source=graph.in_degree(head) == 0)

    return ExecutionPlan(
        program,
        plan_program,
        members_of=dict(fusion.members_of),
        stage_of=dict(fusion.stage_of),
    )


def as_plan(program: Union[Program, ExecutionPlan]) -> ExecutionPlan:
    """Engines accept a program or a plan; normalise to a plan.

    A bare :class:`Program` becomes the identity plan — **no** implicit
    fusion, so existing call sites behave exactly as before.
    """
    if isinstance(program, ExecutionPlan):
        return program
    return ExecutionPlan(program, program)
