"""Schedule-exploration stress driver.

Random Δ-dataflow programs × random Δ-sparse phase streams × random
interleavings, each checked three ways:

1. **serializability** — the parallel result must equal the serial
   one-phase-at-a-time oracle (:class:`~repro.core.serial.SerialExecutor`),
   the paper's Section 2 correctness requirement;
2. **invariants** — a :class:`~repro.testing.monitor.RaceMonitor` checks
   definitions (7)-(9), x-consistency and the pair-lifecycle properties
   at every state mutation;
3. **liveness** — the cooperative scheduler detects deadlock and livelock
   exactly (no watchdog flakiness).

Everything derives from a single master seed, so any failure is a value:
``(master seed, run index)`` reproduces the workload, and
``(policy name, policy seed)`` — or the recorded step trace — reproduces
the exact interleaving.  Failures are shrunk greedily (fewer phases,
fewer vertices, fewer threads) before reporting.

The ``repro fuzz`` CLI subcommand and the ``tests/testing`` suite are thin
wrappers over :func:`fuzz`.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.serializability import check_serializable
from ..core.program import Program, RunResult
from ..core.serial import SerialExecutor
from ..core.vertex import EMIT_NOTHING, FunctionVertex, Vertex
from ..events import PhaseInput
from ..graph.generators import random_dag
from ..runtime.engine import ParallelEngine
from ..streams.generators import phase_signals
from .faults import FaultPlan
from .monitor import RaceMonitor
from .schedule import (
    POLICY_NAMES,
    ReplayPolicy,
    SchedulingPolicy,
    VirtualBackend,
    VirtualScheduler,
    make_policy,
)

__all__ = [
    "WorkloadSpec",
    "RunOutcome",
    "FuzzFailure",
    "FuzzReport",
    "SparseSource",
    "SkewedVertex",
    "run_one",
    "fuzz",
    "run_one_process",
    "fuzz_process",
    "process_config_for_run",
    "scripted_placement",
    "replay_failure",
    "shrink",
    "write_failure_artifacts",
]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible random program + stream + thread count.

    ``build()`` is a pure function of the spec, so a spec embedded in a
    failure report rebuilds the identical workload anywhere.
    """

    n_vertices: int
    edge_prob: float
    graph_seed: int
    phases: int
    delta_prob: float
    stream_seed: int
    threads: int
    skew: bool = False
    #: Repeated-values family: sources draw from a 3-value palette, so
    #: consecutive messages on an edge often carry equal values.
    repeated: bool = False
    #: Flow-control bound on started-but-incomplete phases (``None``:
    #: unthrottled).  A bound makes phase admission interleave with
    #: commits instead of one up-front burst.
    max_in_flight: Optional[int] = None

    def build(self) -> Tuple[Program, List[PhaseInput]]:
        graph = random_dag(
            self.n_vertices,
            edge_prob=self.edge_prob,
            seed=self.graph_seed,
            name=f"fuzz-{self.graph_seed}",
        )
        sources = set(graph.sources())
        behaviors = {}
        for name in graph.vertices():
            if name in sources:
                behaviors[name] = SparseSource(
                    name, self.stream_seed, self.delta_prob,
                    coarse=self.repeated,
                )
            else:
                behaviors[name] = FunctionVertex(_latched_sum)
        behaviors = self._apply_skew(graph, behaviors)
        program = Program(graph, behaviors, name=f"fuzz-{self.graph_seed}")
        return program, phase_signals(self.phases)

    def _apply_skew(self, graph, behaviors):
        """With ``skew``, wrap every behaviour so one seeded vertex per
        phase burns a deterministic spin before delegating — an
        artificially slow straggler that stresses cone independence
        (siblings outside the straggler's cone should pipeline past
        it).  Values are unchanged, so the serial
        oracle comparison is unaffected."""
        if not self.skew:
            return behaviors
        names = tuple(sorted(graph.vertices()))
        return {
            name: SkewedVertex(beh, name, self.stream_seed, names)
            for name, beh in behaviors.items()
        }

    def describe(self) -> str:
        return (
            f"N={self.n_vertices} edges~{self.edge_prob:.2f} "
            f"graph_seed={self.graph_seed} phases={self.phases} "
            f"delta~{self.delta_prob:.2f} stream_seed={self.stream_seed} "
            f"threads={self.threads}"
            + (" skew" if self.skew else "")
            + (" repeated" if self.repeated else "")
            + (
                f" in-flight<={self.max_in_flight}"
                if self.max_in_flight is not None
                else ""
            )
        )


def _latched_sum(ctx):
    """Inner vertices correlate by summing their latched inputs."""
    return sum(ctx.inputs.values())


class SparseSource(Vertex):
    """A Δ-sparse source: per phase, emit a value with prob *delta_prob*.

    The value is a pure function of ``(seed, name, phase)``
    (string-seeded ``Random`` hashes with SHA-512, stable across
    processes), so serial and parallel runs see identical streams and
    shrinking can replay any phase in isolation.  *coarse* draws values
    from a 3-element palette instead of [0, 1e6): consecutive emissions
    then repeat often, and the engines must still deliver every one.
    A module-level class, so it survives pickling under the ``spawn``
    start method, with a mutable emission counter, so every process run
    also exercises the state round trip of a promoted vertex: the
    counter must come back from the worker for final state to match the
    serial oracle.
    """

    def __init__(self, name: str, seed: int, delta_prob: float,
                 coarse: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.delta_prob = delta_prob
        self.coarse = coarse
        self.emitted = 0

    def reset(self) -> None:
        self.emitted = 0

    def on_execute(self, ctx):
        rng = random.Random(f"{self.seed}:{self.name}:{ctx.phase}")
        if rng.random() >= self.delta_prob:
            return EMIT_NOTHING
        self.emitted += 1
        return rng.randrange(3) if self.coarse else rng.randrange(1_000_000)

    def __repr__(self) -> str:
        return f"SparseSource({self.name!r}, seed={self.seed})"


class SkewedVertex(Vertex):
    """Delegating wrapper that makes one seeded vertex per phase slow.

    The straggler for phase *p* is ``Random(f"skew:{seed}:{p}")``'s choice
    over the sorted vertex names — a pure function of the spec, so serial
    and parallel runs (and replays anywhere) skew identically.  The delay
    is a deterministic spin, not a sleep, so virtual-scheduler runs stay
    step-exact.  The state methods delegate to the wrapped behaviour, so
    final-state comparison sees the inner vertex unchanged.
    Module-level, hence picklable for ``spawn``.
    """

    def __init__(
        self,
        inner: Vertex,
        name: str,
        seed: int,
        names: Tuple[str, ...],
        spin: int = 25_000,
    ) -> None:
        self.inner = inner
        self.name = name
        self.seed = seed
        self.names = tuple(names)
        self.spin = spin

    def on_execute(self, ctx):
        rng = random.Random(f"skew:{self.seed}:{ctx.phase}")
        if rng.choice(self.names) == self.name:
            acc = 0
            for i in range(self.spin):
                acc += i
        return self.inner.on_execute(ctx)

    def reset(self) -> None:
        self.inner.reset()

    def snapshot_state(self):
        return self.inner.snapshot_state()

    def restore_state(self, snapshot) -> None:
        self.inner.restore_state(snapshot)

    def __repr__(self) -> str:
        return f"SkewedVertex({self.inner!r})"


def spec_for_run(master_seed: int, index: int, max_vertices: int = 8,
                 max_phases: int = 6, threads: Optional[int] = None,
                 skew: bool = False) -> WorkloadSpec:
    """Derive run *index*'s workload from the master seed (order-free)."""
    rs = random.Random(f"fuzz:{master_seed}:{index}")
    return WorkloadSpec(
        n_vertices=rs.randint(2, max(2, max_vertices)),
        edge_prob=rs.uniform(0.2, 0.6),
        graph_seed=rs.randrange(2**31),
        phases=rs.randint(1, max(1, max_phases)),
        delta_prob=rs.uniform(0.3, 1.0),
        stream_seed=rs.randrange(2**31),
        threads=threads if threads is not None else rs.randint(2, 4),
        skew=skew,
        repeated=rs.random() < 0.5,
        max_in_flight=rs.choice([None, 1, 2]),
    )


# ---------------------------------------------------------------------------
# Single explored schedule
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    """One workload under one interleaving, fully judged."""

    spec: WorkloadSpec
    policy_desc: str
    passed: bool
    reason: str = ""
    trace_hash: str = ""
    trace_names: List[str] = field(default_factory=list)
    steps: int = 0
    checks_run: int = 0
    monitor_report: str = ""
    error: Optional[BaseException] = None
    serial: Optional[RunResult] = None
    parallel: Optional[RunResult] = None


def run_one(
    spec: WorkloadSpec,
    policy: SchedulingPolicy,
    faults: Optional[FaultPlan] = None,
    max_steps: int = 250_000,
) -> RunOutcome:
    """Run *spec* serially (oracle) and under *policy*; judge the result.

    The engine always runs its one schedule (cone frontier, adaptive
    runs); the monitor's invariant checks follow it.  The judgement is
    exact: executed pairs, message count and records must equal the
    oracle's.
    """
    program, phases = spec.build()
    serial = SerialExecutor(program).run(phases)

    scheduler = VirtualScheduler(policy=policy, max_steps=max_steps)
    monitor = RaceMonitor().attach(scheduler)
    engine = ParallelEngine(
        program,
        num_threads=spec.threads,
        checker=monitor,
        tracer=monitor,
        max_in_flight_phases=spec.max_in_flight,
        # Virtual seconds: a healthy schedule never advances the clock,
        # and a lost hand-back wedges after 20 idle polls.
        join_timeout=1.0,
        backend=VirtualBackend(scheduler),
        faults=faults,
    )
    outcome = RunOutcome(spec=spec, policy_desc=policy.describe(), passed=False)
    error: Optional[BaseException] = None
    result: Optional[RunResult] = None
    try:
        result = engine.run(phases)
    except Exception as exc:  # noqa: BLE001 - injected faults can corrupt
        # state arbitrarily, so any exception is a judged failure, not a
        # harness crash.
        error = exc
    finally:
        try:
            scheduler.shutdown()
        except Exception:  # noqa: BLE001 - diagnostics must not mask the run
            pass
    names = scheduler.trace_names()
    outcome.trace_names = names
    outcome.trace_hash = hashlib.sha1(
        "|".join(f"{s.task}@{s.point}" for s in scheduler.trace).encode()
    ).hexdigest()[:16]
    outcome.steps = scheduler.steps
    outcome.checks_run = monitor.checks_run
    outcome.monitor_report = monitor.report()
    outcome.error = error
    outcome.serial = serial
    outcome.parallel = result

    if error is not None:
        outcome.reason = f"engine raised {type(error).__name__}: {error}"
        return outcome
    if not monitor.ok:
        outcome.reason = monitor.report()
        return outcome
    report = check_serializable(serial, result)
    if not report:
        outcome.reason = f"serializability violated: {report}"
        return outcome
    outcome.passed = True
    return outcome


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------


@dataclass
class FuzzFailure:
    """A failing run, with everything needed to reproduce it.

    Reproduce the interleaving either by policy —
    ``run_one(spec, make_policy(policy_name, policy_seed))`` — or exactly
    by trace — ``run_one(spec, ReplayPolicy(trace_names))``.
    """

    run_index: int
    master_seed: int
    spec: WorkloadSpec
    policy_name: str
    policy_seed: int
    reason: str
    trace_names: List[str]
    shrunk_spec: Optional[WorkloadSpec] = None
    engine_config: Optional[Dict[str, object]] = None

    def summary(self) -> str:
        lines = [
            f"fuzz failure at run {self.run_index} (master seed "
            f"{self.master_seed}):",
            f"  workload: {self.spec.describe()}",
            f"  policy:   {self.policy_name}(seed={self.policy_seed})",
            *(
                [f"  engine:   {self.engine_config!r}"]
                if self.engine_config is not None
                else []
            ),
            f"  reason:   {self.reason}",
            f"  replay:   repro fuzz --seed {self.master_seed} "
            f"--runs {self.run_index + 1}  (or run_one(spec, "
            f"make_policy({self.policy_name!r}, {self.policy_seed})))",
            f"  trace:    {len(self.trace_names)} steps, tail "
            f"{self.trace_names[-12:]}",
        ]
        if self.shrunk_spec is not None and self.shrunk_spec != self.spec:
            lines.append(f"  shrunk:   {self.shrunk_spec.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable reproduction record (seed + trace) — what
        the CI failure-artifact upload preserves."""
        return {
            "run_index": self.run_index,
            "master_seed": self.master_seed,
            "spec": asdict(self.spec),
            "policy_name": self.policy_name,
            "policy_seed": self.policy_seed,
            "reason": self.reason,
            "trace_names": list(self.trace_names),
            "shrunk_spec": (
                asdict(self.shrunk_spec) if self.shrunk_spec is not None else None
            ),
            "engine_config": self.engine_config,
        }


@dataclass
class FuzzReport:
    """The outcome of a whole fuzz campaign."""

    runs: int
    master_seed: int
    distinct_interleavings: int
    total_steps: int
    total_checks: int
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (
            f"fuzz: {self.runs} runs (seed {self.master_seed}), "
            f"{self.distinct_interleavings} distinct interleavings, "
            f"{self.total_steps} scheduling decisions, "
            f"{self.total_checks} invariant checks"
        )
        if self.ok:
            return head + " -- all serializable, no violations"
        parts = [head, f"{len(self.failures)} failure(s):"]
        parts += [f.summary() for f in self.failures]
        return "\n".join(parts)


def _campaign(
    runs: int,
    seed: int,
    stop_on_failure: bool,
    attempt: Callable[[int], Tuple[str, int, int, Optional[Dict[str, Any]]]],
) -> FuzzReport:
    """The one campaign loop: *attempt(i)* derives run *i*'s spec from
    the master seed, runs and judges it, and returns ``(what makes the
    run distinct, steps, invariant checks, failure)`` — *failure* being
    ``None`` or the campaign-specific :class:`FuzzFailure` fields."""
    distinct: Set[str] = set()
    failures: List[FuzzFailure] = []
    total_steps = total_checks = done = 0
    for i in range(runs):
        done = i + 1
        key, steps, checks, failure = attempt(i)
        distinct.add(key)
        total_steps += steps
        total_checks += checks
        if failure is not None:
            failures.append(FuzzFailure(run_index=i, master_seed=seed, **failure))
            if stop_on_failure:
                break
    return FuzzReport(
        runs=done,
        master_seed=seed,
        distinct_interleavings=len(distinct),
        total_steps=total_steps,
        total_checks=total_checks,
        failures=failures,
    )


def fuzz(
    runs: int = 100,
    seed: int = 0,
    threads: Optional[int] = None,
    policies: Sequence[str] = POLICY_NAMES,
    faults: Optional[FaultPlan] = None,
    stop_on_failure: bool = True,
    do_shrink: bool = True,
    max_vertices: int = 8,
    max_phases: int = 6,
    max_steps: int = 250_000,
) -> FuzzReport:
    """Explore *runs* random (workload, interleaving) pairs.

    Policies rotate per run; each run's policy seed and workload —
    including its thread count, its flow-control bound and whether its
    sources repeat values — derive from ``(seed, run index)``, so the
    campaign is reproducible and any single run can be replayed in
    isolation.
    """
    if not policies:
        raise ValueError("fuzz needs at least one scheduling policy")

    def attempt(i: int):
        spec = spec_for_run(seed, i, max_vertices, max_phases, threads)
        policy_name = policies[i % len(policies)]
        policy_seed = random.Random(f"policy:{seed}:{i}").randrange(2**31)
        outcome = run_one(
            spec, make_policy(policy_name, policy_seed), faults, max_steps
        )
        failure = None
        if not outcome.passed:
            failure = dict(
                spec=spec,
                policy_name=policy_name,
                policy_seed=policy_seed,
                reason=outcome.reason,
                trace_names=outcome.trace_names,
            )
            if do_shrink:
                failure["shrunk_spec"] = shrink(
                    spec, policy_name, policy_seed, faults, max_steps
                )
        return outcome.trace_hash, outcome.steps, outcome.checks_run, failure

    return _campaign(runs, seed, stop_on_failure, attempt)


# ---------------------------------------------------------------------------
# The process-engine campaign
# ---------------------------------------------------------------------------


def process_config_for_run(master_seed: int, index: int) -> Dict[str, object]:
    """Derive run *index*'s process-engine configuration — the worker
    count, which decides the sticky vertex partition, and the placement
    regime (``remote``: under :func:`scripted_placement`, so the wire is
    exercised; else the real clock, on which these vertices stay in the
    coordinator) — from the master seed."""
    rs = random.Random(f"fuzz-process:{master_seed}:{index}")
    return {"workers": rs.randint(1, 3), "remote": rs.random() < 0.5}


@contextmanager
def scripted_placement(
    clock: Callable[[], float] = lambda: 0.0, dear_runs: int = 1
):
    """Script where :class:`~repro.runtime.mp.ProcessEngine` executes:
    swap its placement clock and the placement rule's streak
    (:data:`repro.runtime.core.DEAR_RUNS`).  The defaults — a clock that
    stands still, on which nothing reads cheap, and a streak of one —
    promote every vertex at its first pair: the wire under test."""
    from ..runtime import core
    from ..runtime.mp import engine

    saved = engine._clock, core.DEAR_RUNS
    engine._clock, core.DEAR_RUNS = clock, dear_runs
    try:
        yield
    finally:
        engine._clock, core.DEAR_RUNS = saved


def run_one_process(
    spec: WorkloadSpec,
    config: Dict[str, object],
    start_method: str = "spawn",
) -> RunOutcome:
    """Run *spec* on the process engine under *config*; judge vs serial.

    Unlike :func:`run_one` there is no virtual scheduler — real processes
    interleave freely — so the judgement is serializability plus final
    behaviour state (every worker-side mutation must be reflected
    coordinator-side after shutdown), and a :class:`RaceMonitor` as the
    coordinator's checker and tracer re-derives the scheduler's state
    after every commit, a sweep's included.
    """
    from ..runtime.mp import ProcessEngine

    program, phases = spec.build()
    serial = SerialExecutor(program).run(phases)
    serial_state = {
        name: beh.snapshot_state() for name, beh in program.behaviors.items()
    }
    desc = (
        f"process[w={config['workers']},{start_method}"
        f"{',remote' if config.get('remote') else ''}]"
    )
    outcome = RunOutcome(spec=spec, policy_desc=desc, passed=False)
    monitor = RaceMonitor()
    engine = ProcessEngine(
        program,
        num_workers=int(config["workers"]),
        checker=monitor,
        tracer=monitor,
        max_in_flight_phases=spec.max_in_flight,
        start_method=start_method,
    )
    try:
        with scripted_placement() if config.get("remote") else nullcontext():
            result = engine.run(phases)
    except Exception as exc:  # noqa: BLE001 - judged, not a harness crash
        outcome.error = exc
        outcome.serial = serial
        outcome.reason = f"engine raised {type(exc).__name__}: {exc}"
        return outcome
    outcome.serial = serial
    outcome.parallel = result
    outcome.steps = result.execution_count
    outcome.checks_run = monitor.checks_run
    outcome.monitor_report = monitor.report()
    if not monitor.ok:
        outcome.reason = outcome.monitor_report
        return outcome
    report = check_serializable(serial, result)
    if not report:
        outcome.reason = f"serializability violated: {report}"
        return outcome
    for name, expected in serial_state.items():
        got = program.behaviors[name].snapshot_state()
        if got != expected:
            outcome.reason = (
                f"final state diverged at {name!r}: "
                f"serial {expected!r} != process {got!r}"
            )
            return outcome
    outcome.passed = True
    return outcome


def fuzz_process(
    runs: int = 8,
    seed: int = 0,
    stop_on_failure: bool = True,
    max_vertices: int = 6,
    max_phases: int = 5,
    start_method: str = "spawn",
) -> FuzzReport:
    """Explore *runs* random workloads on real worker processes.

    Each run derives a workload (small graphs — every run pays real
    process spawns) and a worker count from the master seed, runs it on
    the
    :class:`~repro.runtime.mp.ProcessEngine` and judges it against the
    serial oracle — results *and* final behaviour state.  Defaults to
    the ``spawn`` start method, the strictest pickling path.
    """

    def attempt(i: int):
        spec = spec_for_run(seed, i, max_vertices, max_phases, threads=2)
        config = process_config_for_run(seed, i)
        outcome = run_one_process(spec, config, start_method=start_method)
        failure = None
        if not outcome.passed:
            failure = dict(
                spec=spec,
                policy_name="process",
                policy_seed=0,
                reason=outcome.reason,
                trace_names=[],
                engine_config=dict(config, start_method=start_method),
            )
        return outcome.policy_desc, outcome.steps, outcome.checks_run, failure

    return _campaign(runs, seed, stop_on_failure, attempt)


def shrink(
    spec: WorkloadSpec,
    policy_name: str,
    policy_seed: int,
    faults: Optional[FaultPlan] = None,
    max_steps: int = 250_000,
    budget: int = 24,
) -> WorkloadSpec:
    """Greedily minimise a failing spec while it keeps failing.

    Tries, in order: halving phases, halving vertices, dropping to two
    threads, sparsifying edges.  Each candidate re-runs under a *fresh*
    policy instance built from ``(policy_name, policy_seed)``, so the
    search stays deterministic.
    """

    def still_fails(candidate: WorkloadSpec) -> bool:
        outcome = run_one(
            candidate, make_policy(policy_name, policy_seed), faults, max_steps
        )
        return not outcome.passed

    current = spec
    tried = 0
    progress = True
    while progress and tried < budget:
        progress = False
        candidates = []
        if current.phases > 1:
            candidates.append(replace(current, phases=max(1, current.phases // 2)))
        if current.n_vertices > 2:
            candidates.append(
                replace(current, n_vertices=max(2, current.n_vertices // 2))
            )
        if current.threads > 2:
            candidates.append(replace(current, threads=2))
        if current.edge_prob > 0.25:
            candidates.append(replace(current, edge_prob=current.edge_prob / 2))
        for cand in candidates:
            tried += 1
            if still_fails(cand):
                current = cand
                progress = True
                break
            if tried >= budget:
                break
    return current


def replay_failure(
    failure: FuzzFailure,
    exact: bool = True,
    faults: Optional[FaultPlan] = None,
) -> RunOutcome:
    """Re-run a failure: by recorded step trace (*exact*) or by policy.

    Pass the same *faults* plan the original campaign used, if any —
    a fault-induced failure only reproduces with its bug still injected.
    """
    if exact:
        return run_one(failure.spec, ReplayPolicy(failure.trace_names), faults)
    spec = failure.shrunk_spec or failure.spec
    return run_one(
        spec, make_policy(failure.policy_name, failure.policy_seed), faults
    )


def write_failure_artifacts(report: FuzzReport, directory: str) -> List[str]:
    """Write one JSON reproduction file per failure into *directory*.

    Each file carries the master seed, the workload spec, the policy pair
    and the recorded step trace — everything :func:`replay_failure` needs
    — so a red CI run is reproducible straight from the uploaded
    artifacts.  Returns the written paths.
    """
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    for f in report.failures:
        path = out / f"fuzz-failure-seed{f.master_seed}-run{f.run_index}.json"
        path.write_text(json.dumps(f.to_dict(), indent=2) + "\n")
        written.append(str(path))
    return written
