"""Running one keyed program as N replicated engine instances.

:class:`ShardedEngine` glues the layer together: :mod:`.router` decides
key placement, :mod:`.plan` splits the program into per-shard replicas,
each replica runs on any of the four backends (serial / parallel /
process / simulated), and :mod:`.merge` recombines per-shard outputs
into one phase-ordered stream under per-shard watermark alignment.

Two feed modes:

* :meth:`ShardedEngine.run` — pre-assembled :class:`~repro.events.PhaseInput`
  streams (the XML-spec path): every shard executes every phase, with
  payload values filtered to the sources it owns.  Phase numbering is
  identical across shards and the single instance.
* :meth:`ShardedEngine.run_stream` — a raw keyed arrival stream: the
  router partitions :class:`~repro.ingest.ArrivingEvent` s by key, each
  shard ingests through its **own** :class:`~repro.ingest.ReorderBuffer`
  (local phase numbering, local watermark), and the merge stage aligns
  the per-shard outputs by binned timestamp.

Oracle equality (stream mode): a shard's watermark trails the global
one — it only sees its own keys' arrivals — so a shard can *accept* an
event the single instance would have sealed past.  Merged output equals
the single-instance run whenever the wait covers the worst
arrival-vs-bin gap (zero lateness everywhere); the keyed workload
generator computes exactly that wait.  Under a lossy wait the per-shard
``late_events`` counters in ``stats["sharding"]`` quantify the drift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.plan import compile_plan
from ..core.program import Program, RunResult
from ..core.serial import SerialExecutor
from ..errors import ShardingError
from ..events import PhaseInput
from ..ingest import ArrivingEvent, ReorderBuffer
from .merge import MergedPhase, WatermarkMerger
from .plan import ShardPlan, split_by_key
from .router import KeyRouter

__all__ = [
    "ShardedEngine",
    "ShardedRunResult",
    "stream_phases",
    "flatten_entries",
]

_ENGINES = ("serial", "parallel", "process", "simulated")
#: Every key ``engine_options`` may carry; an engine reads the ones that
#: apply to it, and anything else is an error rather than ignored.
_ENGINE_OPTIONS = frozenset({"threads", "workers", "processors", "start_method"})


def stream_phases(
    arrivals: Sequence[ArrivingEvent], wait: float, quantum: float = 1.0
) -> Tuple[List[PhaseInput], ReorderBuffer]:
    """Ingest *arrivals* through one reorder buffer; the single-instance
    side of every sharded-vs-oracle comparison."""
    buf = ReorderBuffer(wait=wait, quantum=quantum)
    phases: List[PhaseInput] = []
    for arriving in arrivals:
        phases.extend(buf.offer(arriving))
    phases.extend(buf.flush())
    return phases, buf


def flatten_entries(
    result: RunResult, phases: Sequence[PhaseInput]
) -> List[Tuple[float, str, Any]]:
    """A run's records as timestamp-keyed ``(ts, vertex, value)`` rows.

    Phase numbers are local to an instance (a shard skips timestamps
    with no owned events), so cross-instance comparison happens in
    timestamp space.
    """
    ts_of = {p.phase: p.timestamp for p in phases}
    rows: List[Tuple[float, str, Any]] = []
    for vertex in sorted(result.records):
        for phase, value in result.records[vertex]:
            rows.append((ts_of[phase], vertex, value))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


@dataclass
class ShardedRunResult:
    """The merged outcome of one sharded run."""

    engine: str
    merged: List[MergedPhase]
    shard_results: List[Optional[RunResult]]
    shard_phases: List[List[PhaseInput]]
    plan: ShardPlan
    wall_time: float
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def phases_run(self) -> int:
        return len(self.merged)

    @property
    def execution_count(self) -> int:
        return sum(
            r.execution_count for r in self.shard_results if r is not None
        )

    @property
    def message_count(self) -> int:
        return sum(
            r.message_count for r in self.shard_results if r is not None
        )

    @property
    def records(self) -> Dict[str, List[Tuple[int, Any]]]:
        """Merged per-vertex record logs, numbered by merged phase."""
        out: Dict[str, List[Tuple[int, Any]]] = {}
        for mp in self.merged:
            for vertex, value in mp.entries:
                out.setdefault(vertex, []).append((mp.phase, value))
        return out

    def entries(self) -> List[Tuple[float, str, Any]]:
        """Timestamp-keyed rows, directly comparable with
        :func:`flatten_entries` of a single-instance run."""
        rows: List[Tuple[float, str, Any]] = []
        for mp in self.merged:
            for vertex, value in mp.entries:
                rows.append((mp.timestamp, vertex, value))
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def final_states(self) -> Dict[str, Any]:
        """Post-run behaviour snapshots across all shards, by vertex."""
        out: Dict[str, Any] = {}
        for prog in self.plan.programs:
            if prog is None:
                continue
            for name, beh in prog.behaviors.items():
                out[name] = beh.snapshot_state()
        return out


class ShardedEngine:
    """N replicated engine instances behind one keyed front door."""

    def __init__(
        self,
        program: Program,
        key_of: Callable[[str], Hashable],
        num_shards: int,
        engine: str = "serial",
        engine_options: Optional[Mapping[str, Any]] = None,
        fuse: bool = True,
        router: Optional[KeyRouter] = None,
    ) -> None:
        if engine not in _ENGINES:
            raise ShardingError(
                f"unknown shard engine {engine!r} (expected one of {_ENGINES})"
            )
        self.router = router or KeyRouter(num_shards)
        self.plan = split_by_key(
            program, key_of, num_shards, router=self.router
        )
        self.engine = engine
        self.engine_options = dict(engine_options or {})
        unknown = sorted(set(self.engine_options) - _ENGINE_OPTIONS)
        if unknown:
            raise ShardingError(
                f"unknown engine_options {unknown!r} (expected a subset of "
                f"{sorted(_ENGINE_OPTIONS)!r})"
            )
        self.fuse = fuse
        self.num_shards = num_shards

    # ------------------------------------------------------------------
    # backends

    def _engine_label(self) -> str:
        return f"sharded[n={self.num_shards},{self.engine}]"

    def _run_shard(
        self, program: Program, phases: Sequence[PhaseInput]
    ) -> RunResult:
        plan = compile_plan(program, fuse=self.fuse)
        opts = self.engine_options
        if self.engine == "serial":
            return SerialExecutor(plan).run(phases)
        if self.engine == "parallel":
            from ..runtime.engine import ParallelEngine

            return ParallelEngine(
                plan,
                num_threads=opts.get("threads", 2),
            ).run(phases)
        if self.engine == "process":
            from ..runtime.mp import ProcessEngine

            return ProcessEngine(
                plan,
                num_workers=opts.get("workers", 2),
                start_method=opts.get("start_method"),
            ).run(phases)
        from ..simulator import CostModel, SimulatedEngine

        return SimulatedEngine(
            plan,
            num_workers=opts.get("workers", 2),
            num_processors=opts.get("processors", 2),
            cost_model=CostModel(),
            frontier="cone",
        ).run(phases)

    # ------------------------------------------------------------------
    # feed modes

    def run(self, phase_inputs: Sequence[PhaseInput]) -> ShardedRunResult:
        """Broadcast mode: every shard runs every phase, values filtered
        to its owned sources."""
        started = time.perf_counter()
        shard_sources: List[set] = []
        for prog in self.plan.programs:
            shard_sources.append(
                set(prog.graph.sources()) if prog is not None else set()
            )
        # Merge keys: input timestamps when strictly increasing (the
        # spec path), else the phase numbers themselves.
        ts_seq = [p.timestamp for p in phase_inputs]
        increasing = all(a < b for a, b in zip(ts_seq, ts_seq[1:]))
        merge_ts = ts_seq if increasing else [float(p.phase) for p in phase_inputs]

        shard_results: List[Optional[RunResult]] = []
        shard_phases: List[List[PhaseInput]] = []
        late_counts = [0] * self.num_shards
        for i, prog in enumerate(self.plan.programs):
            if prog is None:
                shard_results.append(None)
                shard_phases.append([])
                continue
            owned = shard_sources[i]
            local = [
                PhaseInput(
                    p.phase,
                    p.timestamp,
                    {s: v for s, v in p.values.items() if s in owned},
                )
                for p in phase_inputs
            ]
            shard_phases.append(local)
            shard_results.append(self._run_shard(prog, local))

        merger = WatermarkMerger(self.num_shards)
        merged: List[MergedPhase] = []
        for i, result in enumerate(shard_results):
            if result is None:
                merged.extend(merger.advance(i, float("inf")))
                continue
            by_phase = _entries_by_phase(result)
            for j, p in enumerate(phase_inputs):
                merged.extend(
                    merger.offer(i, merge_ts[j], by_phase.get(p.phase, []))
                )
            merged.extend(merger.advance(i, float("inf")))
        merged.extend(merger.finish())
        # Restore the true timestamps if we merged on phase numbers.
        if not increasing:
            real_ts = {float(p.phase): p.timestamp for p in phase_inputs}
            merged = [
                MergedPhase(m.phase, real_ts.get(m.timestamp, m.timestamp),
                            m.entries)
                for m in merged
            ]
        wall = time.perf_counter() - started
        return self._build_result(
            "phases", merged, shard_results, shard_phases, late_counts,
            merger, wall,
        )

    def run_stream(
        self,
        arrivals: Sequence[ArrivingEvent],
        key_of_event: Callable[[ArrivingEvent], Hashable],
        wait: float,
        quantum: float = 1.0,
    ) -> ShardedRunResult:
        """Stream mode: route keyed arrivals to per-shard reorder
        buffers, run each shard, merge by binned timestamp."""
        started = time.perf_counter()
        routed: List[List[ArrivingEvent]] = [
            [] for _ in range(self.num_shards)
        ]
        known = set(self.plan.keys)
        for arriving in arrivals:
            key = key_of_event(arriving)
            if key not in known:
                raise ShardingError(
                    f"arrival for unknown key {key!r} (source "
                    f"{arriving.event.source!r}); the program declares "
                    f"keys for its sources only"
                )
            routed[self.router.shard_of(key)].append(arriving)

        shard_results: List[Optional[RunResult]] = []
        shard_phases: List[List[PhaseInput]] = []
        late_counts = [0] * self.num_shards
        for i, prog in enumerate(self.plan.programs):
            if prog is None:
                if routed[i]:
                    raise ShardingError(
                        f"shard {i} received {len(routed[i])} arrivals "
                        f"but owns no keys"
                    )
                shard_results.append(None)
                shard_phases.append([])
                continue
            phases, buf = stream_phases(routed[i], wait=wait, quantum=quantum)
            late_counts[i] = buf.late_count
            shard_phases.append(phases)
            shard_results.append(self._run_shard(prog, phases))

        merger = WatermarkMerger(self.num_shards)
        merged: List[MergedPhase] = []
        for i, result in enumerate(shard_results):
            if result is None:
                merged.extend(merger.advance(i, float("inf")))
                continue
            by_phase = _entries_by_phase(result)
            for p in shard_phases[i]:
                merged.extend(
                    merger.offer(i, p.timestamp, by_phase.get(p.phase, []))
                )
            merged.extend(merger.advance(i, float("inf")))
        merged.extend(merger.finish())
        wall = time.perf_counter() - started
        return self._build_result(
            "stream", merged, shard_results, shard_phases, late_counts,
            merger, wall,
        )

    # ------------------------------------------------------------------

    def _build_result(
        self,
        mode: str,
        merged: List[MergedPhase],
        shard_results: List[Optional[RunResult]],
        shard_phases: List[List[PhaseInput]],
        late_counts: List[int],
        merger: WatermarkMerger,
        wall: float,
    ) -> ShardedRunResult:
        per_shard: List[Dict[str, int]] = []
        for i in range(self.num_shards):
            r = shard_results[i]
            prog = self.plan.programs[i]
            per_shard.append(
                {
                    "shard": i,
                    "keys": len(self.plan.shard_keys[i]),
                    "vertices": (
                        prog.graph.num_vertices if prog is not None else 0
                    ),
                    "phases": r.phases_run if r is not None else 0,
                    "executions": (
                        r.execution_count if r is not None else 0
                    ),
                    "messages": r.message_count if r is not None else 0,
                    "late_events": late_counts[i],
                }
            )
        stats: Dict[str, Any] = {
            "sharding": {
                "num_shards": self.num_shards,
                "mode": mode,
                "keys": len(self.plan.keys),
                "router": self.router.describe(),
                "per_shard": per_shard,
                "merge": merger.stats(),
            }
        }
        return ShardedRunResult(
            engine=self._engine_label(),
            merged=merged,
            shard_results=shard_results,
            shard_phases=shard_phases,
            plan=self.plan,
            wall_time=wall,
            stats=stats,
        )


def _entries_by_phase(
    result: RunResult,
) -> Dict[int, List[Tuple[str, Any]]]:
    out: Dict[int, List[Tuple[str, Any]]] = {}
    for vertex in sorted(result.records):
        for phase, value in result.records[vertex]:
            out.setdefault(phase, []).append((vertex, value))
    return out
