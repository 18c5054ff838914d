"""The worker-process main loop.

Each worker owns a **warm cache** of the vertex behaviours assigned to it
(sticky assignment: once the coordinator, where every vertex starts out,
promotes one, its every later phase executes on the same worker),
unpickled once at startup from the blob the coordinator shipped.  The
first :class:`~.protocol.RunMsg` of a vertex carries the state its
coordinator-side runs left, applied before the first member.  Because
the scheduler serialises a vertex's phases — ``(v, p+1)`` becomes ready
only after ``(v, p)`` completed — the cached behaviour's state then
evolves exactly as in the serial oracle, with no state per task.

The loop mirrors the computation thread of Listing 1 with the critical
sections removed: dequeue a :class:`~.protocol.RunMsg`, execute the
behaviour against the shipped context snapshots, send back outputs +
records in one :class:`~.protocol.ResultBatch`.  The members run through
:func:`~repro.core.program.compute_members` — the loop the in-process
engines use — so phase order, stop-after-failure and exact-phase fault
attribution are the same behaviour in every address space.  Output
values recurring across the run are interned so the reply frame pickles
them once.  Value-equal outputs are suppressed here, before they are
serialized (:class:`_SuppressFilter`).  All scheduling-set bookkeeping
stays coordinator-side, under the coordinator's lock.

On adopting a vertex the worker snapshots the adopted state; the
shutdown reply carries :meth:`~repro.core.vertex.Vertex.snapshot_delta`
payloads against those baselines — for adopted vertices only — so
re-synchronising the coordinator costs bytes proportional to what
actually changed.

A vertex exception becomes an error :class:`~.protocol.ResultMsg` entry
(the coordinator re-raises it as
:class:`~repro.errors.VertexExecutionError`); a failure of the loop
itself becomes a :class:`~.protocol.WorkerCrashMsg`.  When a reply fails
to pickle, the worker salvages it result-by-result — the poisoned result
degrades to an error entry, the survivors still ship and commit.  Either
way the worker keeps draining its task queue until told to shut down, so
the coordinator never blocks on a dead letter.
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, List, Tuple

from ...core.ports import stable_equal
from ...core.program import compute_members
from ...core.vertex import Vertex, VertexContext
from ...errors import VertexExecutionError
from .protocol import (
    FinalStateMsg,
    Interner,
    ResultBatch,
    ResultMsg,
    RunMsg,
    ShutdownMsg,
    WorkerCrashMsg,
    decode,
    encode,
)

__all__ = ["worker_main"]

_MISSING = object()


class _SuppressFilter:
    """Worker-side change suppression: elide value-equal outputs before
    they are ever serialized.

    Vertices are sticky to one worker and execute their phases in order,
    so this cache of the last value shipped per ``(vertex, successor)``
    edge mirrors the coordinator's edge latch exactly — the filter and
    the coordinator's commit-time check agree by construction (the
    coordinator's check remains as an idempotent backstop).

    *elidable* maps a vertex name to the successor names whose pairs the
    coordinator proved elidable (:meth:`PairRuntime._compute_elide_ok`);
    outputs to any other successor always ship.
    """

    __slots__ = ("_elidable", "_last")

    def __init__(self, elidable: Dict[str, FrozenSet[str]]) -> None:
        self._elidable = elidable
        self._last: Dict[Tuple[str, str], Any] = {}

    def filter(
        self, name: str, outputs: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Tuple[str, ...]]:
        eligible = self._elidable.get(name)
        if not outputs or not eligible:
            return outputs, ()
        kept: Dict[str, Any] = {}
        suppressed: List[str] = []
        for succ, value in outputs.items():
            if succ in eligible:
                key = (name, succ)
                prev = self._last.get(key, _MISSING)
                if prev is not _MISSING and stable_equal(prev, value):
                    suppressed.append(succ)
                    continue
                self._last[key] = value
            kept[succ] = value
        return kept, tuple(suppressed)


def _compute_run(
    worker_id: int,
    behavior: Vertex,
    run: RunMsg,
    suppress_filter: _SuppressFilter,
    interner: Interner,
) -> Tuple[List[ResultMsg], List[Tuple[int, int]]]:
    """Execute *run*'s members; return the reply's ``(results, skipped)``.

    One result entry per member that ran, the failing one (an error
    entry naming its phase) last; *skipped* is the tail behind it, which
    must not advance this worker's state.  ``compute_s`` of an entry
    spans its ``on_execute``, the suppression filter and the interning.
    """
    successors = list(run.successors)
    ctxs = [
        VertexContext.owning(
            run.name, m.phase, m.inputs, set(m.changed), successors, m.phase_input
        )
        for m in run.members
    ]
    results: List[ResultMsg] = []
    intern = interner.intern
    started = time.perf_counter()

    def member_done() -> bool:
        nonlocal started
        ctx = ctxs[len(results)]
        outputs, suppressed = suppress_filter.filter(run.name, ctx.outputs)
        outputs = {k: intern(v) for k, v in outputs.items()}
        records = tuple(intern(r) for r in ctx.records)
        now = time.perf_counter()
        results.append(
            ResultMsg(
                worker_id=worker_id,
                vertex=run.vertex,
                phase=ctx.phase,
                outputs=outputs,
                records=records,
                compute_s=now - started,
                suppressed=suppressed,
            )
        )
        started = now
        return False

    try:
        compute_members(behavior.on_execute, ctxs, member_done)
    except VertexExecutionError as exc:
        # The coordinator re-raises with this vertex's name and phase
        # around the bare message; an error that names another vertex
        # (a fused stage's member) keeps its own attribution inside it.
        results.append(
            ResultMsg(
                worker_id=worker_id,
                vertex=run.vertex,
                phase=ctxs[len(results)].phase,
                error=exc.message if exc.vertex == run.name else str(exc),
                compute_s=time.perf_counter() - started,
            )
        )
    skipped = [(run.vertex, ctx.phase) for ctx in ctxs[len(results):]]
    return results, skipped


def _describe_pickle_failure(exc: BaseException) -> str:
    """Render *exc* with its explicit cause chain, oldest last.

    The downgraded error entry is all the coordinator ever sees of the
    poison result, so the original exception (and whatever it was raised
    from) must survive the trip in string form.
    """
    parts: List[str] = []
    seen: set[int] = set()
    cur: BaseException | None = exc
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        parts.append(f"{type(cur).__name__}: {cur}")
        cur = cur.__cause__ or cur.__context__
    return " <- ".join(parts)


def _encode_result_batch(
    worker_id: int,
    results: List[ResultMsg],
    skipped: List[Tuple[int, int]],
) -> bytes:
    """Encode a batch reply, salvaging survivors if pickling fails.

    A result whose outputs do not pickle would poison the whole frame;
    instead each unpicklable result is downgraded **in place** to an
    error entry carrying the original pickling exception (the
    coordinator raises a :class:`~repro.errors.VertexExecutionError` for
    it) while every other result ships intact.  Executed results are
    never moved into ``skipped``: the coordinator re-dispatches skipped
    pairs, and a pair that already ran on this worker must not run a
    second time (the warm-cached behaviour state has already advanced).
    ``skipped`` therefore passes through exactly as the member loop built
    it — pairs that were genuinely never executed.
    """
    try:
        return encode(
            ResultBatch(
                worker_id=worker_id,
                results=tuple(results),
                skipped=tuple(skipped),
            )
        )
    except Exception:  # noqa: BLE001 - salvage result-by-result
        salvaged: List[ResultMsg] = []
        for res in results:
            try:
                encode(res)
                salvaged.append(res)
            except Exception as exc:  # noqa: BLE001 - a poison result
                salvaged.append(
                    ResultMsg(
                        worker_id=worker_id,
                        vertex=res.vertex,
                        phase=res.phase,
                        error="result not picklable: "
                        + _describe_pickle_failure(exc),
                        compute_s=res.compute_s,
                        suppressed=res.suppressed,
                    )
                )
        executed = {(r.vertex, r.phase) for r in salvaged}
        return encode(
            ResultBatch(
                worker_id=worker_id,
                results=tuple(salvaged),
                skipped=tuple(p for p in skipped if p not in executed),
            )
        )


def worker_main(
    worker_id: int,
    task_queue: Any,
    result_queue: Any,
    behaviors_blob: bytes,
    elidable_blob: bytes,
    ready: Any,
) -> None:
    """Entry point of one worker process.

    *behaviors_blob* is the pickled ``{vertex name: Vertex}`` mapping for
    this worker's assigned vertices — the warm cache.  *elidable_blob*
    pickles the change-suppression map ``{vertex name: frozenset of
    successor names}`` (see :class:`_SuppressFilter`).  *ready* is the
    event this worker sets once both are unpickled: the coordinator
    promotes no vertex to a worker that has not.  Queue elements are
    protocol frames (bytes); see :mod:`~repro.runtime.mp.protocol`.
    """
    try:
        behaviors: Dict[str, Vertex] = decode(behaviors_blob)
        baselines: Dict[str, Any] = {}  # adopted vertices only
        suppress_filter = _SuppressFilter(decode(elidable_blob))
        interner = Interner()
        busy_s = 0.0
        ready.set()
        while True:
            msg = decode(task_queue.get())
            if isinstance(msg, ShutdownMsg):
                deltas: Dict[str, Any] = {}
                if msg.collect_state:
                    deltas = {
                        name: behaviors[name].snapshot_delta(baseline)
                        for name, baseline in baselines.items()
                    }
                result_queue.put(
                    encode(
                        FinalStateMsg(
                            worker_id=worker_id,
                            deltas=deltas,
                            busy_s=busy_s,
                        )
                    )
                )
                return
            behavior = behaviors[msg.name]
            if msg.state is not None:
                behavior.apply_delta(msg.state)
                baselines[msg.name] = behavior.snapshot_state()
            results, skipped = _compute_run(
                worker_id, behavior, msg, suppress_filter, interner
            )
            busy_s += sum(result.compute_s for result in results)
            result_queue.put(_encode_result_batch(worker_id, results, skipped))
    except (KeyboardInterrupt, SystemExit):  # terminate() / Ctrl-C paths
        raise
    except BaseException as exc:  # noqa: BLE001 - reported to coordinator
        try:
            result_queue.put(
                encode(
                    WorkerCrashMsg(
                        worker_id=worker_id,
                        message=f"{type(exc).__name__}: {exc}",
                    )
                )
            )
        except Exception:  # pragma: no cover - queue already unusable
            pass
