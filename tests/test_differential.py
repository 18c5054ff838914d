"""The differential suite: every engine against the serial oracle.

One module instead of a matrix per feature (ROADMAP aim 3).  The axes:

* **engine** — the virtual-scheduler campaign (explored interleavings of
  the threaded engine's hand-offs, every scheduler mutation
  invariant-checked by the :class:`~repro.testing.monitor.RaceMonitor`),
  the threaded engine on real threads in both of its regimes
  (``threaded``: the real clock, on which these cheap vertices stay on
  the environment thread; ``threaded-pooled``: a clock scripted so
  compute always reads dearer than a hand-off, so every vertex moves to
  the executor threads after its stakes),
  the process engine on real worker processes, again in both placements
  (``process``: the real clock, on which these vertices never leave the
  coordinator; ``process-remote``: a clock that stands still, on which
  nothing reads cheap, so every vertex is promoted at its first pair —
  its state applied worker-side mid-run — and every later pair crosses
  the pipe), the DES
  simulator in both of its modes: ``cone`` (what the real engines do) and
  ``global`` (Listings 1-2 as published), and ``inline`` — no engine at
  all, a single-threaded loop over
  :class:`~repro.runtime.core.ScheduleCore`'s four operations (the proof
  that the run lifecycle lives in the core, not in its drivers);
* **workload family** — sparse random DAGs, the same DAGs with a seeded
  straggler per phase (on the cells with a real clock only: a spin has
  no yield point, so everywhere else it re-checks the sparse specs), the
  repeated-values mix whose sources draw from three values (so an edge
  often carries the value it carried last), deep linear pipelines on
  which runs form, and keyed traffic: independent
  per-account chains fed in arrival order through one reorder buffer.

Every cell is **exact** against :class:`SerialExecutor`: the same
executed pairs, message count, records and phases.  Real-engine cells
also compare final behaviour state.  Both results' execution logs must
read as the lists of ``(v, p)`` they stand for (``len``, indexing,
slicing, ``==``, ``sorted``, ``set``, ``Counter``).

One more cell holds the two *schedulers* side by side, with no engine in
between: the published :class:`ReferenceScheduler` and the engines'
:class:`SchedulerState`, driven through every family in the serial
completion order — whatever the global ``x_p`` makes ready, the cone
rule has made ready too (docs/ARCHITECTURE.md §5.4: the same schedule
family, cone ⊇ global).

Another holds the *data path* against itself: the same claims committed
as whole runs, as runs of one, and as a cut run plus its re-claimed tail
(``PairRuntime`` prepares, computes and commits a run as one unit; a pair
is a run of one) must leave the same records, counters and channels.

The last class keeps the suite honest: the repeated-values corpus really
repeats values on its edges, the pipelines really form runs longer than
one, the process backend really ships run frames, and the simulator's
global mode really is the published schedule.
"""

import random
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, replace

import pytest

from repro.analysis.serializability import check_serializable
from repro.analysis.stats import validate_engine_stats
from repro.core.invariants import InvariantChecker
from repro.core.program import ExecutionLog, PairRuntime
from repro.core.reference import ReferenceScheduler
from repro.core.serial import SerialExecutor
from repro.core.state import SchedulerState
from repro.ingest import ReorderBuffer, bin_timestamp
from repro.models.domains.keyed import build_keyed_workload
from repro.runtime.core import ScheduleCore
from repro.runtime.engine import ParallelEngine
from repro.runtime.mp import ProcessEngine
from repro.simulator import SimulatedEngine
from repro.streams.workloads import pipeline_workload
from repro.testing.fuzz import (
    process_config_for_run,
    run_one,
    scripted_placement,
    spec_for_run,
)
from repro.testing.schedule import make_policy

from tests.models.test_pickling import normalized
from tests.runtime.regime_clock import RegimeClockBackend

SEED = 2025
POLICIES = ("random", "round-robin", "priority", "random")

ENGINES = (
    "virtual", "threaded", "threaded-pooled", "process", "process-remote",
    "simulated-cone", "simulated-global", "inline",
)
#: The engines on which a straggler's spin takes real time.
REAL_CLOCK = ("threaded", "threaded-pooled", "process", "process-remote")
#: Specs per cell: the virtual campaign is cheap and explores schedules,
#: so it carries the breadth; every process run pays real forks.
CORPUS = {
    "virtual": 200,
    "threaded": 12,
    "threaded-pooled": 12,
    "process": 3,
    "process-remote": 5,
    "simulated-cone": 8,
    "simulated-global": 8,
    "inline": 40,
}


@dataclass(frozen=True)
class PipelineSpec:
    """A deep linear pipeline with the :class:`WorkloadSpec` surface the
    fuzz runners read (``build``, ``threads``, ``max_in_flight``, ...)."""

    depth: int
    phases: int
    seed: int
    threads: int = 3
    max_in_flight = None

    def build(self):
        return pipeline_workload(
            depth=self.depth, phases=self.phases, seed=self.seed
        )

    def describe(self):
        return f"pipeline depth={self.depth} phases={self.phases} seed={self.seed}"


@dataclass(frozen=True)
class KeyedSpec:
    """Independent ``txn -> detect -> audit`` chains, one per account,
    whose events arrive out of timestamp order — inside the covering
    wait, so none is late — and are sealed into phases by the one
    :class:`ReorderBuffer` a program has."""

    num_keys: int
    ticks: int
    seed: int
    delay_jitter: float
    threads: int = 3
    max_in_flight = None

    def workload(self):
        return build_keyed_workload(
            self.num_keys, self.ticks, self.seed,
            delay_jitter=self.delay_jitter, anomaly_rate=0.25,
        )

    def build(self):
        workload = self.workload()
        buffer = ReorderBuffer(wait=workload.wait, quantum=workload.quantum)
        phases = [p for a in workload.arrivals for p in buffer.offer(a)]
        phases.extend(buffer.flush())
        assert buffer.late_count == 0
        return workload.program, phases

    def describe(self):
        return (
            f"keyed keys={self.num_keys} ticks={self.ticks} seed={self.seed} "
            f"jitter={self.delay_jitter}"
        )


def small(engine):
    # Process runs stay small: each one spawns its own workers.
    return {"max_vertices": 6, "max_phases": 4} if process(engine) else {}


def process(engine):
    return engine.startswith("process")


FAMILIES = {
    "sparse": lambda e, i: replace(
        spec_for_run(SEED, i, **small(e)), repeated=False
    ),
    "skewed": lambda e, i: replace(
        spec_for_run(SEED, i, skew=True, **small(e)), repeated=False
    ),
    "repeated": lambda e, i: replace(
        spec_for_run(SEED, i, **small(e)), repeated=True
    ),
    "pipeline": lambda e, i: PipelineSpec(
        depth=4 + i % 4, phases=(10 if process(e) else 30) + 5 * (i % 3),
        seed=i,
    ),
    # Jitter 1.6 delivers a tick's stragglers after the next tick's events.
    "keyed": lambda e, i: KeyedSpec(
        num_keys=2 + i % 3, ticks=(12 if process(e) else 16) + i % 5,
        seed=i, delay_jitter=(0.4, 1.0, 1.6)[i % 3],
    ),
}


#: Every family but the straggler's, which only a real clock tells apart.
UNTIMED = sorted(set(FAMILIES) - {"skewed"})
CELLS = [
    (engine, family)
    for engine in ENGINES
    for family in sorted(FAMILIES)
    if family in UNTIMED or engine in REAL_CLOCK
]


def policy_for(i):
    return make_policy(POLICIES[i % len(POLICIES)], 1000 + i)


def whole(runtime, v, phases, ctxs):
    """The data path as the engines drive it: the run as one unit."""
    runtime.compute(v, ctxs)
    return runtime.commit(v, phases, ctxs)


def pairwise(runtime, v, phases, ctxs):
    """The same members as runs of one, each prepared at its turn."""
    completed = []
    for q in phases:
        one = runtime.prepare(v, [q])
        runtime.compute(v, one)
        completed += runtime.commit(v, [q], one)
    return completed


def run_inline(
    program, phases, newest_first=False, data_path=whole, cut=None, **core_options
):
    """The whole run lifecycle with no engine: admit every phase, one
    input at a time, then pop a ready pair, claim its run, compute,
    commit, until quiescent.
    With *cut* (a ``random.Random``) a run commits only a drawn prefix
    and the head of its still-claimed tail is dispatched again — the
    threaded engine's staking break.  Returns the core (for its
    completion log) and the result."""
    core = ScheduleCore(program, 1, **core_options)
    ready = deque(pair for pi in phases for pair in core.admit(pi))
    committed = []
    while ready:
        v, p = ready.pop() if newest_first else ready.popleft()
        run, ctxs = core.claim(0, v, p)
        keep = len(run) if cut is None else cut.randint(1, len(run))
        completed = data_path(core.runtime, v, run[:keep], ctxs[:keep])
        committed += [(v, q) for v, q, _ in completed]
        ready.extend(core.commit(0, completed)[0])
        if keep < len(run):
            ready.append((v, run[keep]))
    result = core.result("inline", 0.0, {})
    # The log is the commits, in their order (none when retiring).
    assert result.executions == ([] if core_options.get("retire") else committed)
    return core, result


def run_cell(engine, spec, index):
    """Run *spec* on *engine*; returns ``(serial, result)`` once the
    judgement has passed: serializability, plus the invariant monitor on
    the virtual campaign and final behaviour state everywhere else."""
    where = f"{engine} spec {index} [{spec.describe()}]"
    if engine == "virtual":
        outcome = run_one(spec, policy_for(index))
        assert outcome.passed, f"{where}: {outcome.reason}"
        return outcome.serial, outcome.parallel

    def state():
        return {
            name: normalized(beh.snapshot_state())
            for name, beh in program.behaviors.items()
        }

    program, phases = spec.build()  # stateful sources
    serial = SerialExecutor(program).run(phases)
    serial_state = state()
    if engine in ("threaded", "threaded-pooled"):
        backend = (
            RegimeClockBackend(compute_dear=True)
            if engine == "threaded-pooled" else None
        )
        result = ParallelEngine(
            program, num_threads=spec.threads,
            max_in_flight_phases=spec.max_in_flight, backend=backend
        ).run(phases)
        assert validate_engine_stats(result.engine, result.stats) == [], where
    elif process(engine):
        # fork keeps the matrix affordable; the fuzz_process campaign
        # covers the spawn start method.
        with scripted_placement() if engine == "process-remote" else nullcontext():
            result = ProcessEngine(
                program,
                num_workers=process_config_for_run(SEED, index)["workers"],
                max_in_flight_phases=spec.max_in_flight,
                start_method="fork",
            ).run(phases)
        assert validate_engine_stats(result.engine, result.stats) == [], where
    elif engine == "inline":
        _, result = run_inline(program, phases)
    else:
        result = SimulatedEngine(
            program, num_workers=2, num_processors=2,
            frontier=engine.split("-")[1],
        ).run(phases)
    report = check_serializable(serial, result)
    assert report, f"{where}: {report}"
    final_state = state()
    diverged = {
        name: (expected, final_state[name])
        for name, expected in serial_state.items()
        if final_state[name] != expected
    }
    assert not diverged, f"{where}: final state diverged: {diverged}"
    return serial, result


def reads_as_its_list(result):
    """``result.executions`` is an :class:`ExecutionLog` and behaves, for
    every reader, as the list of ``(v, p)`` tuples it stands for."""
    log = result.executions
    pairs = list(log)
    assert type(log) is ExecutionLog
    assert all(type(pair) is tuple and len(pair) == 2 for pair in pairs)
    n = len(pairs)
    assert len(log) == result.execution_count == n > 0
    assert [log[i] for i in range(n)] == pairs
    assert [log[i] for i in range(-n, 0)] == pairs
    for cut in (slice(None), slice(n // 3, -2), slice(None, None, -3), slice(n, None)):
        assert log[cut] == pairs[cut]
    with pytest.raises(IndexError):
        log[n]
    assert log == pairs and pairs == log and not log != pairs
    assert log != pairs[:-1] and (n == 1 or log != pairs[::-1])
    assert log != tuple(pairs)  # a list is never equal to a tuple
    assert sorted(log) == sorted(pairs)
    assert set(log) == result.executions_as_set() == set(pairs)
    assert Counter(log) == Counter(pairs)
    assert pairs[-1] in log and log.index(pairs[-1]) == pairs.index(pairs[-1])
    return pairs


@pytest.mark.parametrize("engine, family", CELLS)
def test_record_exact_against_serial_oracle(engine, family):
    inline_runs = pooled_runs = 0
    for i in range(CORPUS[engine]):
        spec = FAMILIES[family](engine, i)
        serial, result = run_cell(engine, spec, i)
        assert result.records == serial.records, (
            f"{engine} {family} spec {i} [{spec.describe()}]"
        )
        assert result.phases_run == serial.phases_run
        # Both logs read as lists; the oracle's is phase-major.
        ordered = reads_as_its_list(serial)
        assert ordered == sorted(ordered, key=lambda pair: (pair[1], pair[0]))
        assert sorted(reads_as_its_list(result)) == sorted(ordered)
        drain = result.stats.get("drain", {})
        inline_runs += drain.get("inline_runs", 0)
        pooled_runs += drain.get("pooled_runs", 0)
    # Both regimes of the threaded engine are really exercised.
    if engine == "threaded":
        assert inline_runs > 0, "the environment never drained a run inline"
    if engine == "threaded-pooled":
        assert pooled_runs > 0
    # And both placements of the process engine.
    if engine == "process":
        assert inline_runs > pooled_runs
    if engine == "process-remote":
        assert pooled_runs > 0


@pytest.mark.parametrize("family", UNTIMED)
def test_a_run_is_its_members_one_at_a_time(family):
    """Run-vs-pairwise: the same claims, committed as whole runs, as runs
    of one, and as a drawn prefix plus the re-claimed tail, leave the
    same records, executions, messages and coalescing counts and the
    same entries on every channel.  Only
    ``edge_entries_peak`` may differ: it is sampled once per commit."""
    coalesced = 0
    for i in range(CORPUS["inline"]):
        spec = FAMILIES[family]("inline", i)
        where = f"{family} spec {i} [{spec.describe()}]"
        outcomes = []
        for data_path, cut in (
            (whole, None), (pairwise, None), (whole, random.Random(i)),
        ):
            program, phases = spec.build()
            core, result = run_inline(
                program, phases, data_path=data_path, cut=cut,
            )
            stats = dict(result.stats)
            outcomes.append({
                "records": result.records,
                "executions": result.executions,
                "messages": result.message_count,
                "edge_entries_final": stats["edge_entries_final"],
                "channels": {
                    edge: repr(channel)
                    for edge, channel in core.runtime.edges._channels.items()
                },
                "coalescing": stats["coalescing"],
                "peak": stats["edge_entries_peak"],
            })
        by_run, by_pair, by_cut = outcomes
        coalesced += by_run["coalescing"]["pairs_coalesced"]
        assert by_run.pop("peak") >= by_pair.pop("peak"), where
        assert by_run == by_pair, where
        # A cut run is claimed twice and completes in another order.
        for outcome in (by_run, by_cut):
            outcome["executions"] = sorted(outcome["executions"])
            del outcome["coalescing"]
        assert by_cut.pop("peak") >= by_cut["edge_entries_final"], where
        assert by_cut == by_run, where
    assert coalesced, "no run of this family had more than one member"


@pytest.mark.parametrize("order", ["serial", "random"])
@pytest.mark.parametrize("family", UNTIMED)
def test_cone_schedule_contains_the_published_schedule(family, order):
    """Reference-vs-cone: start every phase, then complete pairs on both
    schedulers, with the outputs the real behaviours produce, in the
    serial order (phase-major, index-minor) or in a seeded random order
    that is legal under the reference.  After every step each pair the
    reference holds ready is ready in the cone scheduler as well — so
    the order is legal on both and the executed sets stay equal.  (In
    the serial order the two rules coincide; in a random one the cone
    rule gets strictly ahead where cones are independent — the keyed
    family's per-account chains.)
    """
    ahead = 0
    for i in range(12):
        rng = random.Random(i)
        spec = FAMILIES[family]("inline", i)
        program, phases = spec.build()
        program.reset()
        runtime = PairRuntime(program, phases)
        reference = ReferenceScheduler(program.numbering, checker=InvariantChecker())
        cone = SchedulerState(program.numbering, checker=InvariantChecker())
        where = f"{family} spec {i} [{spec.describe()}]"

        def in_step(step):
            published, ours = reference.ready_set(), cone.ready_set()
            assert published <= ours, (
                f"{where} after {step}: ready under x_p but not under the "
                f"cone rule: {sorted(published - ours)}"
            )
            return ours > published

        for p in range(1, len(phases) + 1):
            reference.start_phase()
            cone.start_phase()
            ahead += in_step(f"start of phase {p}")
        while reference.ready_set():
            p, v = min((p, v) for v, p in reference.ready_set())
            if order == "random":
                v, p = rng.choice(sorted(reference.ready_set()))
            targets = runtime.execute(v, p)
            reference.complete_execution(v, p, targets)
            cone.complete_execution(v, p, targets)
            ahead += in_step(f"({v},{p})")
        assert reference.all_started_complete() and cone.all_started_complete()
        assert reference.executed_pairs == cone.executed_pairs
        assert sorted(reference.completed_log) == sorted(cone.completed_log)
    if (family, order) == ("keyed", "random"):
        assert ahead, "the cone rule never had more ready than x_p allows"


def test_inline_retirement_sinks_each_phase_once_in_phase_order():
    """The completion tail lives in the core: a retiring inline run hands
    the sink every phase exactly once, ascending, with the oracle's
    records — also on newest-first schedules whose phases *complete* out
    of order (checked on the same schedule without retirement, where the
    completion log survives)."""
    out_of_order = 0
    for family in UNTIMED:
        for i in range(12):
            spec = FAMILIES[family]("inline", i)
            program, phases = spec.build()
            serial = SerialExecutor(program).run(phases)
            core, _ = run_inline(program, phases, newest_first=True)
            log = list(core.state.completed_log)
            assert sorted(log) == list(range(1, len(phases) + 1))
            out_of_order += log != sorted(log)
            sunk = []
            _, result = run_inline(
                program, phases, newest_first=True, retire=True,
                sink=lambda p, ts, entries: sunk.append((p, entries)),
            )
            where = f"inline {family} spec {i} [{spec.describe()}]"
            assert [p for p, _ in sunk] == sorted(log), where
            records = {}
            for p, entries in sunk:
                for name, value in entries:
                    records.setdefault(name, []).append((p, value))
            assert records == serial.records, where
            assert result.executions == [] and result.records == {}
            assert result.stats["retirement"]["phases_retired"] == len(phases)
    assert out_of_order >= 5, (
        f"only {out_of_order} schedules completed phases out of order"
    )


@pytest.mark.parametrize(
    "engine",
    ["threaded", "process", "process-remote", "simulated-cone", "simulated-global"],
)
def test_scheduling_sections_are_identical_across_engines(engine):
    """Every engine's result carries exactly the sections
    ``ScheduleCore.result`` attaches — an inline run under the same
    frontier, which adds nothing of its own, is the reference — with
    identical keys inside each."""
    spec = PipelineSpec(depth=4, phases=12, seed=5)
    program, phases = spec.build()
    frontier = "global" if engine == "simulated-global" else "cone"
    _, reference = run_inline(program, phases, frontier=frontier)
    _, result = run_cell(engine, spec, 0)
    assert validate_engine_stats(result.engine, result.stats) == []
    assert set(reference.stats) <= set(result.stats)
    for name, section in reference.stats.items():
        if isinstance(section, dict) and name != "per_worker_executions":
            assert set(result.stats[name]) == set(section), name
    per_worker = result.stats["per_worker_executions"]
    assert sorted(per_worker) == list(range(len(per_worker)))
    assert sum(per_worker.values()) == result.execution_count


def repeated_messages(spec):
    """How many messages of *spec*'s serial run carry the value the
    previous message on the same edge carried."""
    program, phases = spec.build()
    program.reset()
    runtime = PairRuntime(program, phases)
    sources = program.numbering.source_indices()
    previous, repeats = {}, 0
    for p in range(1, len(phases) + 1):
        due = set(sources)
        for v in range(1, program.n + 1):
            if v not in due:
                continue
            ctxs = runtime.prepare(v, [p])
            runtime.compute(v, ctxs)
            for w, value in ctxs[0].outputs.items():
                repeats += (v, w) in previous and previous[(v, w)] == value
                previous[(v, w)] = value
            due.update(runtime.commit(v, [p], ctxs)[0][2])
    return repeats


class TestTheSuiteIsNotVacuous:
    def test_repeated_corpus_repeats_and_coalesces(self):
        repeating = both = 0
        for i in range(60):
            spec = FAMILIES["repeated"]("virtual", i)
            _, result = run_cell("virtual", spec, i)
            repeats = repeated_messages(spec) > 0
            repeating += repeats
            coalesced = result.stats["coalescing"]["pairs_coalesced"] > 0
            both += repeats and coalesced
        assert repeating >= 10, f"only {repeating}/60 runs repeated a value"
        assert both >= 5, (
            f"only {both}/60 runs repeated a value inside a coalesced schedule"
        )

    @pytest.mark.parametrize(
        "engine", ["threaded", "threaded-pooled", "simulated-cone"]
    )
    def test_deep_pipeline_forms_runs(self, engine):
        spec = PipelineSpec(depth=6, phases=40, seed=11)
        _, result = run_cell(engine, spec, 0)
        section = result.stats["coalescing"]
        assert section["pairs_coalesced"] > 0
        assert section["mean_run_length"] > 1.0
        # One claim and one commit per run, not per pair: fewer runs
        # claimed than pairs executed, and on the simulated SMP its
        # global lock taken fewer than twice per execution.
        assert section["runs_scheduled"] < result.execution_count
        if engine == "simulated-cone":
            taken = result.stats["lock"]["total_requests"]
            assert taken < 2 * result.execution_count
        # The fresh backlog is one window, swept a vertex at a time; on a
        # dear clock its first stake cuts the sweep, and the runs are
        # claimed (claim_run) and, once the vertices moved, pooled.
        if engine == "threaded":
            assert result.stats["drain"]["swept_phases"] == spec.phases
        elif engine == "threaded-pooled":
            drain = result.stats["drain"]
            assert drain["swept_phases"] == 0 and drain["pooled_runs"] > 0

    def test_process_runs_ship_run_frames(self):
        spec = PipelineSpec(depth=5, phases=30, seed=3)
        _, result = run_cell("process-remote", spec, 0)
        wire = result.stats["serialization_bytes"]
        assert wire["runs"]["messages"] > 0
        assert wire["result_batches"]["messages"] == wire["runs"]["messages"]
        assert result.stats["ipc_round_trips"] < result.execution_count
        # Every vertex was promoted, at its first pair: the coordinator
        # executed one member of each, the workers the rest.
        names = sorted(spec.build()[0].behaviors)
        assert sorted(result.stats["ipc"]["promoted"]) == names
        per_worker = result.stats["per_worker_executions"]
        assert per_worker[max(per_worker)] == len(names)

    def test_keyed_corpus_alerts_and_reorders_across_phases(self):
        alerting = crossing = 0
        for i in range(12):
            spec = FAMILIES["keyed"]("inline", i)
            serial, _ = run_cell("inline", spec, i)
            alerting += any(serial.records.values())
            bins = [
                bin_timestamp(a.event.timestamp, 1.0)
                for a in spec.workload().arrivals
            ]
            crossing += bins != sorted(bins)
        assert alerting >= 10, f"only {alerting}/12 keyed runs recorded an alert"
        assert crossing >= 3, (
            f"only {crossing}/12 keyed streams deliver a phase's event after "
            f"a later phase's"
        )

    def test_simulated_global_is_the_published_schedule(self):
        spec = PipelineSpec(depth=4, phases=12, seed=3)
        _, result = run_cell("simulated-global", spec, 0)
        assert result.stats["frontier"]["mode"] == "global"
        assert result.stats["coalescing"] == {
            "runs_scheduled": 0,
            "pairs_coalesced": 0,
            "mean_run_length": 0.0,
        }
        _, cone = run_cell("simulated-cone", spec, 0)
        assert cone.stats["frontier"]["mode"] == "cone"
