"""The worker-process main loop.

A worker starts empty and holds exactly the vertex behaviours promoted
to it (sticky assignment: once the coordinator, where every vertex
starts out, promotes one, its every later phase executes on the same
worker).  A promoted vertex's first :class:`~.protocol.RunMsg` carries
the behaviour object itself, with the state its coordinator-side runs
left, and the worker adopts it before the first member.  Because the
scheduler serialises a vertex's phases — ``(v, p+1)`` becomes ready
only after ``(v, p)`` completed — the adopted behaviour's state then
evolves exactly as in the serial oracle, with no state per task.

The loop mirrors the computation thread of Listing 1 with the critical
sections removed: dequeue a :class:`~.protocol.RunMsg`, execute the
behaviour against the shipped context snapshots, send back outputs +
records in one :class:`~.protocol.ResultBatch`.  The members run through
:func:`~repro.core.program.compute_members` — the loop the in-process
engines use — so phase order, stop-after-failure and exact-phase fault
attribution are the same behaviour in every address space.  Every output
ships: committing it is the coordinator's, as for a run it computed
itself.  The
shutdown reply carries each adopted behaviour's
:meth:`~repro.core.vertex.Vertex.snapshot_state` home.

A vertex exception becomes an error :class:`~.protocol.ResultMsg` entry
(the coordinator re-raises it as
:class:`~repro.errors.VertexExecutionError`); a failure of the loop
itself becomes a :class:`~.protocol.WorkerCrashMsg`.  When a reply fails
to pickle, the worker salvages it result-by-result — the first poisoned
result degrades to an error entry that ends the reply, the survivors
before it still ship and commit.  Either way the worker keeps draining
its task queue until told to shut down, so the coordinator never blocks
on a dead letter.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from ...core.program import compute_members
from ...core.vertex import Vertex, VertexContext
from ...errors import VertexExecutionError
from .protocol import (
    FinalStateMsg,
    ResultBatch,
    ResultMsg,
    RunMsg,
    ShutdownMsg,
    WorkerCrashMsg,
    decode,
    encode,
)

__all__ = ["worker_main"]


def _compute_run(behavior: Vertex, run: RunMsg) -> List[ResultMsg]:
    """Execute *run*'s members; return the reply's result entries.

    One entry per member that ran, in member order; when a member fails,
    its error entry (naming its phase) is the last: the members behind it
    never ran, so they did not advance this worker's state.
    """
    successors = list(run.successors)
    ctxs = [
        VertexContext.owning(
            run.name, m.phase, m.inputs, set(m.changed), successors, m.phase_input
        )
        for m in run.members
    ]
    results: List[ResultMsg] = []

    def member_done() -> bool:
        ctx = ctxs[len(results)]
        results.append(ResultMsg(ctx.phase, ctx.outputs, tuple(ctx.records)))
        return False

    try:
        compute_members(behavior.on_execute, ctxs, member_done)
    except VertexExecutionError as exc:
        # The coordinator re-raises with this vertex's name and phase
        # around the bare message.
        results.append(ResultMsg(ctxs[len(results)].phase, error=exc.message))
    return results


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
    worker_id: int, vertex: int, results: List[ResultMsg]
) -> bytes:
    """Encode a run's reply, salvaging its survivors if pickling fails.

    A result whose outputs or records do not pickle would poison the
    whole frame; instead the first such result is downgraded to an error
    entry carrying the original pickling exception (the coordinator
    raises a :class:`~repro.errors.VertexExecutionError` for it) and ends
    the reply, while every result before it ships intact.
    """
    try:
        return encode(ResultBatch(worker_id, vertex, tuple(results)))
    except Exception:  # noqa: BLE001 - salvage result-by-result
        salvaged: List[ResultMsg] = []
        for res in results:
            try:
                encode(res)
            except Exception as exc:  # noqa: BLE001 - a poison result
                res = ResultMsg(
                    res.phase,
                    error="result not picklable: " + _describe_pickle_failure(exc),
                )
            salvaged.append(res)
            if res.error is not None:
                break
        return encode(ResultBatch(worker_id, vertex, tuple(salvaged)))


def worker_main(worker_id: int, task_queue: Any, result_queue: Any) -> None:
    """Entry point of one worker process.

    Queue elements are protocol frames (bytes); see
    :mod:`~repro.runtime.mp.protocol`.  A frame that arrives while the
    worker is still booting waits in its FIFO task queue.
    """
    try:
        behaviors: Dict[str, Vertex] = {}  # the vertices promoted here
        busy_s = 0.0
        while True:
            msg = decode(task_queue.get())
            if isinstance(msg, ShutdownMsg):
                states = {
                    name: behavior.snapshot_state()
                    for name, behavior in behaviors.items()
                }
                result_queue.put(encode(FinalStateMsg(worker_id, states, busy_s)))
                return
            if msg.behavior is not None:
                behaviors[msg.name] = msg.behavior
            behavior = behaviors[msg.name]
            began = time.perf_counter()
            results = _compute_run(behavior, msg)
            busy_s += time.perf_counter() - began
            result_queue.put(_encode_result_batch(worker_id, msg.vertex, results))
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
