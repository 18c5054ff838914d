"""The four fixed workloads: programs, seeded input streams, expected outputs.

Everything the system under test sees is generated here from ``--seed``;
sizes are fixed event counts (never durations) so two commits always do
the same work.  The drop set, the late set and the out-of-order arrivals
are pure functions of the seed, and the phases the system *must* seal are
computed by feeding the identical stream through a private
:class:`~repro.ingest.ReorderBuffer`; the serial oracle over those phases
is both the correctness reference and the single-threaded baseline.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import PassthroughSource
from repro.events import Event, PhaseInput
from repro.graph.generators import layered_graph
from repro.ingest import ArrivingEvent, ReorderBuffer
from repro.spec import load_spec
from repro.streams.workloads import LatchedSum, SpinningSum

HERE = Path(__file__).resolve().parent
KEYED_SPEC = HERE / "specs" / "keyed16.xml"

KEYS = [f"k{i:02d}" for i in range(16)]
KEYED_WAIT = 2.0  # `repro serve --wait 2`
TICKS_PER_POST = 10
DROP_SHARE = 0.10  # ticks a key skips
LATE_SHARE = 0.01  # events sent after their bin has sealed
OUTLIER_SHARE = 0.02  # amounts the z-score detectors flag
SPIN_GRAIN = 3000


@dataclass(frozen=True)
class Workload:
    """One row of the matrix.  ``closed_ticks`` / ``open_ticks`` are the
    fixed sizes of the closed-loop (throughput) and open-loop (latency)
    stages; ``open_rate`` is the frozen arrival rate of the latter in
    ticks (= phases) per second, ~40 % of the closed-loop rate measured
    on the calibration machine.  Batch workloads have no open-loop stage."""

    name: str
    why: str
    kind: str  # "http" | "serve" | "batch"
    engine: str  # "parallel" | "process"
    closed_ticks: int
    spinning: bool = False  # SpinningSum instead of LatchedSum inner vertices
    open_ticks: int = 0
    open_rate: float = 0.0
    quick_closed_ticks: int = 40
    quick_open_ticks: int = 0

    def sizes(self, quick: bool) -> Tuple[int, int]:
        if quick:
            return self.quick_closed_ticks, self.quick_open_ticks
        return self.closed_ticks, self.open_ticks


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="http_keyed",
            why=(
                "repro serve over HTTP, 16 silent detector chains: HTTP, NDJSON "
                "parse, reorder buffer and SSE do the work, the scheduler almost "
                "none; open loop at 90 phases/s"
            ),
            kind="http",
            engine="parallel",
            closed_ticks=200,
            open_ticks=300,
            open_rate=90.0,
            quick_closed_ticks=60,
            quick_open_ticks=40,
        ),
        Workload(
            name="serve_grid_process",
            why=(
                "in-process ServeSession on 2 worker processes, chatty 4x4 grid: "
                "pickle, pipes and commit_remote dominate, ingest is negligible; "
                "open loop at 120 phases/s"
            ),
            kind="serve",
            engine="process",
            closed_ticks=2000,
            open_ticks=300,
            open_rate=120.0,
            quick_closed_ticks=120,
            quick_open_ticks=80,
        ),
        Workload(
            name="batch_grid_threaded",
            why=(
                "same grid and events pre-sealed, ParallelEngine(2).run: scheduler "
                "state, engine glue and PairRuntime bookkeeping dominate; no "
                "ingest, serve or IPC"
            ),
            kind="batch",
            engine="parallel",
            closed_ticks=3000,
            quick_closed_ticks=200,
        ),
        Workload(
            name="batch_cpu_process",
            why=(
                "4x4 grid of SpinningSum(3000) on ProcessEngine(2): compute >> "
                "bookkeeping, the paper's regime; overhead optimisations must "
                "predict no change here"
            ),
            kind="batch",
            engine="process",
            spinning=True,
            closed_ticks=400,
            quick_closed_ticks=40,
        ),
    )
}


# -- programs ---------------------------------------------------------------


def keyed_program() -> Program:
    return load_spec(str(KEYED_SPEC)).program


def grid_program(spinning: bool) -> Program:
    """4x4 fully connected layers (no 1-in/1-out chain, so nothing fuses):
    event-driven sources, summing inner vertices, four recording sinks."""
    graph = layered_graph([4, 4, 4, 4], density=1.0, seed=0, name="grid4x4")
    behaviors: Dict[str, Any] = {}
    for v in graph.vertices():
        preds = tuple(graph.predecessors(v))
        if not preds:
            behaviors[v] = PassthroughSource()
        elif spinning:
            behaviors[v] = SpinningSum(preds, grain=SPIN_GRAIN)
        else:
            behaviors[v] = LatchedSum(preds)
    return Program(graph, behaviors, name=graph.name)


def build_program(workload: Workload) -> Program:
    if workload.kind == "http":
        return keyed_program()
    return grid_program(workload.spinning)


# -- input streams ----------------------------------------------------------


def keyed_events(seed: int, ticks: int) -> List[ArrivingEvent]:
    """Per tick and key: ~10 % dropped, clock noise that reorders arrivals
    inside the wait, ~1 % sent after their bin sealed.  Arrival order."""
    rng = random.Random(f"bench_e2e|keyed|{seed}")
    out: List[ArrivingEvent] = []
    for tick in range(ticks):
        for key in KEYS:
            if rng.random() < DROP_SHARE:
                continue
            amount = 40.0 + 20.0 * rng.random()
            if rng.random() < OUTLIER_SHARE:
                amount *= 6.0 + 4.0 * rng.random()
            stamped = tick + max(-0.4, min(0.4, rng.gauss(0.0, 0.1)))
            if rng.random() < LATE_SHARE:
                arrival = tick + KEYED_WAIT + 1.0 + 2.0 * rng.random()
            else:
                arrival = tick + 0.5 + 0.9 * rng.random()
            out.append(
                ArrivingEvent(
                    Event(round(stamped, 6), f"txn[{key}]", round(amount, 4)),
                    arrival=round(arrival, 6),
                )
            )
    out.sort(key=lambda a: (a.arrival, a.event.source))
    return out


def grid_events(seed: int, ticks: int) -> List[ArrivingEvent]:
    """Four chatty random-walk sources, every tick, in order, no delay."""
    rng = random.Random(f"bench_e2e|grid|{seed}")
    sources = [f"L0_{j}" for j in range(4)]
    level = [rng.uniform(-1.0, 1.0) for _ in sources]
    out: List[ArrivingEvent] = []
    for tick in range(ticks):
        for j, source in enumerate(sources):
            level[j] += rng.uniform(-1.0, 1.0)
            out.append(
                ArrivingEvent(
                    Event(float(tick), source, round(level[j], 6)),
                    arrival=float(tick),
                )
            )
    return out


@dataclass
class Stream:
    """A generated input stream and what the system must make of it.

    ``groups`` are the units the load generator sends (one POST body over
    HTTP, one tick's events in process); the first ``closed_groups`` form
    the closed-loop stage.  ``sealed_by[p - 1]`` is the group whose
    arrival sealed phase *p* (``None`` for phases only the final flush
    seals); open-loop latency is stamped from that group's due time.
    """

    wait: float
    groups: List[List[ArrivingEvent]]
    closed_groups: int
    phases: List[PhaseInput]
    sealed_by: List[Optional[int]]
    late: int
    accepted: int

    @property
    def events(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def closed_events(self) -> int:
        return sum(len(g) for g in self.groups[: self.closed_groups])

    @property
    def closed_last_phase(self) -> int:
        """The last phase sealed during the closed-loop stage."""
        last = 0
        for phase, group in enumerate(self.sealed_by, start=1):
            if group is not None and group < self.closed_groups:
                last = phase
        return last


def build_stream(workload: Workload, seed: int, quick: bool = False) -> Stream:
    closed, opened = workload.sizes(quick)
    ticks = closed + opened
    if workload.kind == "http":
        wait = KEYED_WAIT
        posts = ticks // TICKS_PER_POST
        groups: List[List[ArrivingEvent]] = [[] for _ in range(posts)]
        for ev in keyed_events(seed, ticks):
            # Stragglers of the final ticks ride in the last POST.
            groups[min(int(ev.arrival // TICKS_PER_POST), posts - 1)].append(ev)
        closed_groups = closed // TICKS_PER_POST
    else:
        wait = 0.0
        events = grid_events(seed, ticks)
        groups = [events[i : i + 4] for i in range(0, len(events), 4)]
        closed_groups = closed
    buf = ReorderBuffer(wait=wait)
    phases: List[PhaseInput] = []
    sealed_by: List[Optional[int]] = []
    for gi, group in enumerate(groups):
        for ev in group:
            for pi in buf.offer(ev):
                phases.append(pi)
                sealed_by.append(gi)
    late, accepted = buf.late_count, buf.accepted
    for pi in buf.flush():
        phases.append(pi)
        sealed_by.append(None)
    return Stream(wait, groups, closed_groups, phases, sealed_by, late, accepted)


def ndjson(group: Sequence[ArrivingEvent]) -> bytes:
    """One POST /events body."""
    return "".join(
        json.dumps(
            {
                "timestamp": a.event.timestamp,
                "source": a.event.source,
                "value": a.event.value,
                "arrival": a.arrival,
            }
        )
        + "\n"
        for a in group
    ).encode("ascii")


# -- the oracle -------------------------------------------------------------


def canonical(value: Any) -> Any:
    """What a record looks like after the SSE JSON round trip (tuples
    become lists; floats survive exactly) — every sink is compared in
    this one form."""
    return json.loads(json.dumps(value))


def entries_by_timestamp(
    program: Program,
    records: Dict[str, List[Tuple[int, Any]]],
    phases: Sequence[PhaseInput],
) -> Dict[float, List[Any]]:
    """Regroup per-vertex ``(phase, value)`` logs into per-phase entry
    lists ``[[vertex, value], ...]`` in vertex-index order, keyed by the
    phase timestamp — the shape the streaming sinks deliver."""
    out: Dict[float, List[Any]] = {pi.timestamp: [] for pi in phases}
    ts_of = {pi.phase: pi.timestamp for pi in phases}
    order = program.numbering.index_of
    for name in sorted(records, key=lambda n: order[n]):
        for phase, value in records[name]:
            out[ts_of[phase]].append([name, canonical(value)])
    return out


@dataclass
class Oracle:
    expected: Dict[float, List[Any]]  # timestamp -> entries
    events_per_s: float  # the single-threaded baseline


def run_oracle(workload: Workload, stream: Stream) -> Oracle:
    program = build_program(workload)
    started = time.perf_counter()
    result = SerialExecutor(program).run(stream.phases)
    wall = time.perf_counter() - started
    return Oracle(
        expected=entries_by_timestamp(program, result.records, stream.phases),
        events_per_s=stream.accepted / wall,
    )


def count_wrong(
    expected: Dict[float, List[Any]], got: Dict[float, List[Any]]
) -> Tuple[int, int]:
    """``(missing, differing)`` phases of a sink against the oracle.
    A phase the oracle never sealed counts as differing."""
    missing = sum(1 for ts in expected if ts not in got)
    differing = sum(
        1 for ts, entries in got.items() if expected.get(ts) != entries
    )
    return missing, differing
