"""Programs and the shared pair-execution mechanics.

A :class:`Program` bundles the three things a run needs: a computation
graph, a restricted numbering of it, and a behaviour (:class:`Vertex`) per
graph vertex.  Programs are engine-agnostic: the threaded engine, the
serial oracle, the simulated SMP, and the baselines all execute the same
program, which is what makes serializability checking meaningful.

:class:`PairRuntime` implements the mechanics of executing a *run* — one
vertex over ascending phases, the unit the scheduler hands out; a single
vertex-phase pair is a run of one — split into three steps so the
bookkeeping stays with the coordinator while the compute may run on an
executor thread or a worker process (the "lock" below is the
coordinator's, or the simulator's global lock):

* :meth:`PairRuntime.prepare` (under the lock) — walk each input channel
  once and build one :class:`VertexContext` per member;
* :meth:`PairRuntime.compute` (outside the lock) — run the vertex
  behaviour over the members in order: the expensive model evaluation
  the paper parallelises;
* :meth:`PairRuntime.commit` (under the lock) — deliver the members'
  output messages back to back, append their records, garbage-collect
  the consumed inputs once, and return per member the *indices* of the
  vertices that received outputs (the set Listing 1's statement 1.8
  iterates over).

:class:`RunResult` is the externally visible outcome of a run: the per-
vertex records, the executed pairs in completion order (an
:class:`ExecutionLog`, which commit appends to), and counters.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import GraphError, SchedulerError, VertexExecutionError
from ..events import PhaseInput
from ..graph.model import ComputationGraph
from ..graph.numbering import Numbering, number_graph
from .ports import EdgeStore
from .vertex import Vertex, VertexContext

__all__ = [
    "ExecutionLog", "Program", "PairRuntime", "RunResult", "compute_members",
]


class Program:
    """A computation graph plus one behaviour per vertex.

    Parameters
    ----------
    graph:
        The (acyclic) computation graph.
    behaviors:
        Mapping from vertex name to :class:`Vertex`.  Must cover every
        vertex exactly.
    numbering:
        Optional pre-built restricted numbering; by default the FIFO-Kahn
        numbering of *graph* is computed.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        behaviors: Mapping[str, Vertex],
        numbering: Optional[Numbering] = None,
        name: Optional[str] = None,
    ) -> None:
        graph.validate()
        missing = set(graph.vertices()) - set(behaviors)
        extra = set(behaviors) - set(graph.vertices())
        if missing or extra:
            raise GraphError(
                f"behaviors must cover the vertex set exactly "
                f"(missing={sorted(missing)!r}, extra={sorted(extra)!r})"
            )
        for vname, beh in behaviors.items():
            if not isinstance(beh, Vertex):
                raise GraphError(
                    f"behavior for {vname!r} must be a Vertex, got {type(beh).__name__}"
                )
        self.graph = graph
        self.name = name or graph.name
        self.numbering = numbering or number_graph(graph)
        if self.numbering.graph is not graph:
            raise GraphError("numbering was built for a different graph object")
        self.behaviors: Dict[str, Vertex] = dict(behaviors)
        self._behavior_by_index: List[Vertex | None] = [None] * (self.numbering.n + 1)
        for vname, beh in self.behaviors.items():
            self._behavior_by_index[self.numbering.index_of[vname]] = beh

    @property
    def n(self) -> int:
        return self.numbering.n

    def behavior(self, index: int) -> Vertex:
        """Behaviour of the vertex with numbering index *index*."""
        beh = self._behavior_by_index[index]
        assert beh is not None
        return beh

    def reset(self) -> None:
        """Reset every vertex behaviour to its initial state (run start)."""
        for beh in self.behaviors.values():
            beh.reset()

    def source_names(self) -> List[str]:
        return self.graph.sources()

    def sink_names(self) -> List[str]:
        return self.graph.sinks()

    def __repr__(self) -> str:
        return f"Program({self.name!r}, n={self.n})"


class ExecutionLog(SequenceABC):
    """Executed vertex-phase pairs ``(v, p)`` in completion order, held
    in one ``array('i')``: a run of vertex *v* is its phases, preceded by
    the marker ``-v`` unless the run before it was *v*'s too (vertex
    indices and phases are positive).  That is 4 bytes per pair plus 4
    per change of vertex: at most 8 per pair.

    It reads as the list of tuples: ``len``, iteration, indexing,
    slicing (a slice is a list) and ``==`` against a list or another
    log.  Random access builds an index of the markers on first use.
    Append-only; the one writer is :meth:`PairRuntime.commit`.
    """

    __hash__ = None  # type: ignore[assignment]  # mutable, like a list

    def __init__(self) -> None:
        self._data = array("i")
        self._len = 0
        self._last = 0  # the vertex of the last run; none yet
        # The random-access index: per marker, its position in _data and
        # the number of pairs before it; it covers _data[:_indexed].
        self._marks = array("i")
        self._firsts = array("i")
        self._indexed = 0

    def append_run(self, v: int, phases: List[int]) -> None:
        """Append the run of *v* over *phases*, a non-empty list."""
        data = self._data
        if v != self._last:
            data.append(-v)
            self._last = v
        data.fromlist(phases)
        self._len += len(phases)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        v = 0
        for x in self._data:
            if x < 0:
                v = -x
            else:
                yield v, x

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self._pair(i) for i in range(*index.indices(self._len))]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("execution log index out of range")
        return self._pair(i)

    def _pair(self, i: int) -> Tuple[int, int]:
        data, marks, firsts = self._data, self._marks, self._firsts
        for pos in range(self._indexed, len(data)):
            if data[pos] < 0:
                firsts.append(pos - len(marks))
                marks.append(pos)
        self._indexed = len(data)
        k = bisect_right(firsts, i) - 1
        mark = marks[k]
        return -data[mark], data[mark + 1 + i - firsts[k]]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExecutionLog):
            return self._data == other._data  # one encoding per sequence
        if isinstance(other, list):
            return self._len == len(other) and all(
                map(operator.eq, self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"ExecutionLog({list(self)!r})"


@dataclass
class RunResult:
    """The externally observable outcome of executing a program.

    Attributes
    ----------
    engine:
        Which engine produced this result (e.g. ``"serial"``,
        ``"parallel[k=2]"``).
    records:
        Per-vertex record log: vertex name -> list of ``(phase, value)``.
        Only vertices that recorded anything appear.
    executions:
        A sequence of the executed vertex-phase pairs ``(v, p)``, in
        completion order — every engine returns an :class:`ExecutionLog`
        (empty when the run retired its phases).  Completion order varies
        across engines; the *set* must not.
    message_count:
        Total messages delivered along edges.
    phases_run:
        Number of phases started.
    wall_time:
        Wall-clock (or virtual, for the simulator) duration of the run.
    stats:
        Engine-specific extras (lock contention, utilization, ...).
    """

    engine: str
    records: Dict[str, List[Tuple[int, Any]]]
    executions: Sequence[Tuple[int, int]]
    message_count: int
    phases_run: int
    wall_time: float = 0.0
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def execution_count(self) -> int:
        return len(self.executions)

    def executions_as_set(self) -> Set[Tuple[int, int]]:
        return set(self.executions)

    def records_for(self, vertex: str) -> List[Tuple[int, Any]]:
        return self.records.get(vertex, [])

    def __repr__(self) -> str:
        return (
            f"RunResult(engine={self.engine!r}, phases={self.phases_run}, "
            f"executions={self.execution_count}, messages={self.message_count}, "
            f"wall_time={self.wall_time:.6f})"
        )


def compute_members(
    on_execute: Callable[[VertexContext], Any],
    ctxs: Sequence[VertexContext],
    after_member: Optional[Callable[[], bool]] = None,
) -> int:
    """The member loop of a run, the same in every address space: call
    *on_execute* on each prepared context in phase order and return how
    many members executed.

    A failing member stops the run — later members must not advance the
    behaviour's state — and raises :class:`VertexExecutionError` naming
    its exact phase, not the run head's.  *after_member* is called after
    each successful member and stops the run after it by returning true
    (the threaded engine's staking budget and watchdog counter; the
    process worker builds the member's reply entry there).
    """
    executed = 0
    for ctx in ctxs:
        try:
            ctx.finish(on_execute(ctx))
        except VertexExecutionError:
            raise
        except Exception as exc:
            raise VertexExecutionError(ctx.name, ctx.phase, str(exc)) from exc
        executed += 1
        # Outside the try: the engine's callback is not the vertex.
        if after_member is not None and after_member():
            break
    return executed


class PairRuntime:
    """Execution mechanics shared by every engine (see module docstring).

    Parameters
    ----------
    program, phase_inputs:
        The program to execute and its (possibly empty — engines may
        register phases incrementally) phase inputs.
    stream_records:
        When True, records are grouped *per phase* instead of per vertex
        so :meth:`retire_phase` can hand each completed phase's output to
        a streaming consumer and then forget it — the continuous-
        operation mode, where nothing may accumulate for the whole run.
        :attr:`records` stays empty and :attr:`executions` is ``None``
        in this mode; otherwise :attr:`executions` logs every committed
        pair.
    """

    def __init__(
        self,
        program: Program,
        phase_inputs: Sequence[PhaseInput],
        stream_records: bool = False,
    ) -> None:
        self.program = program
        self.edges = EdgeStore(program.numbering)
        self.records: Dict[str, List[Tuple[int, Any]]] = {}
        self.stream_records = stream_records
        self._records_by_phase: Dict[int, List[Tuple[str, Any]]] = {}
        self.message_count = 0
        self.executions: Optional[ExecutionLog] = (
            None if stream_records else ExecutionLog()
        )
        self._phase_inputs: Dict[int, PhaseInput] = {}
        self.num_phases = 0
        # When the last delivery began (``perf_counter_ns``): where
        # ScheduleCore's budget ends a run's compute.
        self.delivered_at = 0
        for pi in phase_inputs:
            self.register_phase(pi)
        self.sources = set(program.numbering.source_indices())
        # Name tables for context construction.
        nm = program.numbering
        self._names: List[str] = [""] + [nm.name_of(i) for i in range(1, nm.n + 1)]
        self._succ_names: List[List[str]] = [[]] + [
            [self._names[w] for w in self.edges.succs[v]]
            for v in range(1, nm.n + 1)
        ]
        # Per-vertex record-log cache: after the first record, commits
        # append without a per-commit dict lookup / setdefault.
        self._record_logs: List[Optional[List[Tuple[int, Any]]]] = [
            None
        ] * (nm.n + 1)

    def register_phase(self, pi: PhaseInput) -> None:
        """Append the next phase's inputs.

        Engines that learn phase contents incrementally (the distributed
        cluster: a machine's inputs arrive from upstream machines during
        the run) register each phase just before starting it; batch
        engines pass everything to the constructor.
        """
        if pi.phase != self.num_phases + 1:
            raise SchedulerError(
                f"phase inputs must be numbered sequentially from 1; "
                f"got phase {pi.phase} after {self.num_phases}"
            )
        self._phase_inputs[pi.phase] = pi
        self.num_phases += 1
        if self.stream_records:
            # Pre-create the phase's record segment so the commit hot
            # path appends without a per-commit setdefault.
            self._records_by_phase[pi.phase] = []

    # -- the three execution steps ------------------------------------------

    def prepare(self, v: int, phases: Sequence[int]) -> List[VertexContext]:
        """Snapshot the inputs of the run ``(v, phases)`` — ascending
        phases — and build one context per member (call under the lock).

        Every member is prepared up front: a claimed member's inputs are
        final (its claim certificate), so no commit can change what a
        later member reads.  Each input channel is walked once.
        """
        name = self._names[v]
        successors = self._succ_names[v]
        owning = VertexContext.owning
        ctxs: List[VertexContext] = []
        if v in self.sources:
            # A source has no input channel: it reads its phase input.
            phase_inputs = self._phase_inputs
            for p in phases:
                pi = phase_inputs.get(p)
                ctxs.append(owning(
                    name, p, {}, set(), successors,
                    None if pi is None else pi.values.get(name),
                ))
            return ctxs
        inputs: List[Dict[str, Any]] = []
        changed: List[Set[str]] = []
        for p in phases:
            ctx = owning(name, p, {}, set(), successors)
            inputs.append(ctx.inputs)
            changed.append(ctx.changed)
            ctxs.append(ctx)
        for pred, channel in self.edges.in_channels[v]:
            channel.read_run(pred, phases, inputs, changed)
        return ctxs

    def compute(
        self,
        v: int,
        ctxs: Sequence[VertexContext],
        after_member: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run the vertex behaviour over the run's members in order (call
        outside the lock); returns how many executed — see
        :func:`compute_members`, the loop the process workers share."""
        return compute_members(
            self.program.behavior(v).on_execute, ctxs, after_member
        )

    def commit(
        self, v: int, phases: List[int], ctxs: Sequence[VertexContext]
    ) -> List[Tuple[int, int, List[int]]]:
        """Deliver outputs, append records, GC inputs (call under the lock).

        Commits the members ``zip(phases, ctxs)`` back to back, exactly
        as serial per-phase commits — *ctxs* holds a context for each of
        *phases*; contexts past them, a cut run's unexecuted tail, are
        ignored — then accounts the edges, garbage-collects *v*'s inputs
        once, up to the last member's phase, and logs the run.  Returns
        ``(v, phase, targets)`` per member —
        what :meth:`SchedulerState.complete_executions` takes — *targets*
        being the indices of the vertices that received an output, the
        ``w`` of Listing 1's statement 1.8, ascending: a broadcasting
        member's is *v*'s one successor list, shared and never mutated.
        """
        self.delivered_at = perf_counter_ns()
        out_channels = self.edges.out_channels[v]
        every = self.edges.succs[v]
        fanout = len(every)
        stream = self.stream_records
        completed: List[Tuple[int, int, List[int]]] = []
        sent = 0
        for p, ctx in zip(phases, ctxs):
            outs = ctx._outputs
            if len(outs) == fanout:
                for wname, _, channel in out_channels:
                    channel.send(p, outs[wname])
                targets = every
            else:
                targets = []
                if outs:
                    for wname, w, channel in out_channels:
                        if wname in outs:
                            channel.send(p, outs[wname])
                            targets.append(w)
            sent += len(targets)
            records = ctx._records
            if records:
                if stream:
                    seg = self._records_by_phase[p]
                    for value in records:
                        seg.append((ctx.name, value))
                else:
                    log = self._record_logs[v]
                    if log is None:
                        log = self._record_logs[v] = self.records.setdefault(
                            ctx.name, []
                        )
                    for value in records:
                        log.append((p, value))
            completed.append((v, p, targets))
        if completed:
            self.message_count += sent
            self.edges.settle_run(v, completed[-1][1], sent)
            if self.executions is not None:
                self.executions.append_run(v, phases)
        return completed

    def execute(self, v: int, p: int) -> List[int]:
        """prepare + compute + commit of the run of one ``(v, [p])``
        (single-threaded drivers); returns its output targets."""
        phases = [p]
        ctxs = self.prepare(v, phases)
        self.compute(v, ctxs)
        return self.commit(v, phases, ctxs)[0][2]

    def commit_remote(
        self,
        v: int,
        phases: List[int],
        ctxs: Sequence[VertexContext],
        replies: Sequence[Tuple[Mapping[str, Any], Sequence[Any]]],
    ) -> List[Tuple[int, int, List[int]]]:
        """Commit a run whose compute step ran in another process.

        The coordinator prepared *ctxs* locally, shipped them to a
        worker, and got back per member ``(outputs, records)``; this
        adopts each into its context and commits as usual (call under
        the lock).  The delivery began here, adoption included.
        """
        began = perf_counter_ns()
        for ctx, (outputs, records) in zip(ctxs, replies):
            ctx.adopt_results(outputs, records)
        completed = self.commit(v, phases, ctxs)
        self.delivered_at = began
        return completed

    # -- retirement (continuous-operation mode) -------------------------------

    def retire_phase(self, p: int) -> Tuple[float, List[Tuple[str, Any]]]:
        """Release everything held for completed phase *p* and return it.

        Pops the phase's input (its timestamp is handed back for the
        result stream) and its record segment (``(vertex_name, value)``
        in commit order; requires ``stream_records=True`` when the
        program records anything).  After this call the runtime holds no
        per-phase state for *p* — the serve layer's memory bound.
        """
        pi = self._phase_inputs.pop(p, None)
        ts = pi.timestamp if pi is not None else float(p)
        return ts, self._records_by_phase.pop(p, [])

    # -- results -------------------------------------------------------------

    def build_result(
        self,
        engine: str,
        wall_time: float,
        stats: Optional[Dict[str, Any]] = None,
        phases_run: Optional[int] = None,
    ) -> RunResult:
        """The run's result.  It takes over the records and the execution
        log, not copies: the runtime must not commit again."""
        return RunResult(
            engine=engine,
            records=self.records,
            executions=(
                ExecutionLog() if self.executions is None else self.executions
            ),
            message_count=self.message_count,
            phases_run=self.num_phases if phases_run is None else phases_run,
            wall_time=wall_time,
            stats=dict(stats or {}),
        )
