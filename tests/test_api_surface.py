"""The scheduling surface is closed (ROADMAP aim 2).

The real engines run exactly one schedule — cone frontier, adaptive
runs, every emitted message delivered — and ``SimulatedEngine.frontier`` is the only scheduling
selector left in the system.  These tests pin the constructor parameter
names, the :class:`ServeConfig` fields and the CLI flags, so a re-grown
knob fails tier-1 here instead of quietly doubling the configurations the
differential suite and the benchmark must cover.  If one of them fails
because you added a scheduling option: ROADMAP aim 2 asks for a value the
code derives from what it can observe, not for a new setting.  One
engine instance per program is pinned the same way: the key-sharding
topology stays deleted.

One test pins :class:`~repro.runtime.core.ScheduleCore` the same way:
five operations and one constructor are the whole interface between the
run lifecycle and the engines that drive it.  Another keeps the two
schedulers apart: neither takes a mode, and a production entry point
never loads the specification.  The last keeps the chain-fusion plan
out: every engine schedules the program the user wrote.  The process
wire is pinned too: one frame form each way, with only the fields the
receiving side reads.  The threaded engine's executors are pinned as
its port's own, over a backend of four primitives, and the process
engine's workers as its port's own: the two ports offer the driver the
same members.  The cold-start
tests pin the import graph: a process imports what its verb and its
program run, and nothing is imported inside a timed run.
"""

import dataclasses
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.runtime.core import ScheduleCore
from repro.runtime.engine import ParallelEngine
from repro.runtime.mp import ProcessEngine
from repro.serve import ServeConfig
from repro.simulator import SimulatedEngine

AIM_2 = "scheduling surface changed — see ROADMAP aim 2 before adding a knob"

REMOVED_FLAGS = (
    "--frontier", "--suppress", "--run-length", "--batch-size",
    "--ipc-batch", "--window", "--shards", "--key-by", "--fuse",
    "--no-fuse", "--max-in-flight", "--skew", "--profile",
)


def params(cls):
    return list(inspect.signature(cls.__init__).parameters)[1:]


def test_engine_constructor_parameters_are_pinned():
    assert params(ParallelEngine) == [
        "program", "num_threads", "checker", "tracer",
        "max_in_flight_phases", "join_timeout", "backend", "faults",
    ], AIM_2
    assert params(ProcessEngine) == [
        "program", "num_workers", "checker", "tracer",
        "max_in_flight_phases", "join_timeout", "start_method",
    ], AIM_2
    assert params(SimulatedEngine) == [
        "program", "num_workers", "num_processors", "cost_model",
        "checker", "tracer", "max_in_flight_phases", "frontier",
    ], AIM_2


def test_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(ServeConfig)] == [
        "engine", "threads", "workers", "wait", "quantum",
        "max_buffered", "feed_capacity", "check_sample", "stats_every",
        "join_timeout",
    ], AIM_2
    # Flow control is each engine's ``max_in_flight_phases``; a serve
    # session sets it to the run ceiling, and there is no environment
    # config object left to grow a knob.
    assert importlib.util.find_spec("repro.runtime.environment") is None, AIM_2
    # The engines schedule the graph the user wrote: no fusion pass.
    assert importlib.util.find_spec("repro.graph.fuse") is None, AIM_2


ONE_INSTANCE = (
    "a second execution topology re-appeared — ROADMAP aim 2: one engine "
    "instance, one reorder buffer and one watermark per program; a keyed "
    "program is a graph whose components are independent, and the "
    "scheduler already runs those concurrently"
)


def test_key_sharding_topology_is_gone():
    import repro.serve

    assert "ShardedServeSession" not in repro.serve.__all__, ONE_INSTANCE
    # No spec <=> ``import repro.sharding`` raises ModuleNotFoundError.
    assert importlib.util.find_spec("repro.sharding") is None, ONE_INSTANCE


def subparser(command):
    (action,) = [
        a for a in build_parser()._actions if hasattr(a, "choices") and a.choices
    ]
    return action.choices[command]


@pytest.mark.parametrize("command", ["run", "serve", "fuzz"])
def test_help_mentions_no_removed_knob(command):
    text = subparser(command).format_help()
    for flag in REMOVED_FLAGS:
        assert flag not in text, f"{command} --help mentions {flag}: {AIM_2}"


@pytest.mark.parametrize("command", ["run", "serve", "fuzz"])
@pytest.mark.parametrize("flag", REMOVED_FLAGS)
def test_removed_flag_is_an_ordinary_argparse_error(command, flag, capsys):
    argv = [command] + ([] if command == "fuzz" else ["spec.xml"])
    value = ["cone"] if flag == "--frontier" else ["2"]
    if flag in ("--suppress", "--fuse", "--no-fuse", "--skew"):  # were switches
        value = []
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag] + value)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_verb_is_an_ordinary_argparse_error(capsys):
    # ``repro report`` is the one exhibit runner; it prints what
    # ``repro figures`` printed.
    with pytest.raises(SystemExit) as exit_info:
        main(["figures"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'figures'" in capsys.readouterr().err


def test_the_process_wire_has_one_form():
    # A single pair is a run of one: RunMsg out, ResultBatch back.  A
    # second frame type is a second fault behaviour to keep in step.
    from repro.runtime.mp import protocol

    assert "TaskMsg" not in protocol.__all__, AIM_2
    assert not hasattr(protocol, "TaskMsg"), AIM_2
    assert protocol.WireStats.CLASSES == (
        "runs", "result_batches", "final_state", "shutdown",
    ), AIM_2
    # Only a promoted vertex's run rides the wire, and a frame carries
    # only what its reader reads: no credit window, no value interning,
    # no value judgement in the worker.  A worker starts empty: the
    # behaviour rides its vertex's first frame, and its full state comes
    # home once, in the shutdown reply.
    from repro.runtime.mp import worker
    from repro.runtime.mp.lifecycle import ProcessWorkerPool

    def fields(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert fields(protocol.RunMsg) == (
        "vertex", "name", "successors", "members", "behavior",
    ), AIM_2
    assert fields(protocol.RunMember) == (
        "phase", "inputs", "changed", "phase_input",
    ), AIM_2
    assert fields(protocol.ResultBatch) == (
        "worker_id", "vertex", "results",
    ), AIM_2
    assert fields(protocol.ResultMsg) == (
        "phase", "outputs", "records", "error",
    ), AIM_2
    assert not hasattr(protocol, "Interner"), AIM_2
    assert not hasattr(worker, "_SuppressFilter"), AIM_2
    assert importlib.util.find_spec("repro.runtime.mp.frontier") is None, AIM_2
    assert fields(protocol.ShutdownMsg) == (), AIM_2
    assert fields(protocol.FinalStateMsg) == (
        "worker_id", "states", "busy_s",
    ), AIM_2
    assert params(ProcessWorkerPool) == [
        "program", "num_workers", "join_timeout", "start_method",
    ], AIM_2
    assert not hasattr(ProcessWorkerPool, "answered"), AIM_2
    assert list(inspect.signature(worker.worker_main).parameters) == [
        "worker_id", "task_queue", "result_queue",
    ], AIM_2
    from repro.core.vertex import Vertex

    assert not hasattr(Vertex, "snapshot_delta"), AIM_2
    assert not hasattr(Vertex, "apply_delta"), AIM_2


DELIVER_ALL = (
    "a change-suppression knob re-appeared — the engines deliver every "
    "message a vertex emits and are judged exactly against the oracle; a "
    "model that should stay quiet on an unchanged value emits nothing"
)


def test_no_change_suppression_knob():
    from repro.analysis.serializability import (
        assert_serializable,
        check_serializable,
    )
    from repro.core.program import PairRuntime
    from repro.core.serial import SerialExecutor
    from repro.core.vertex import FunctionVertex, StatefulFunctionVertex, Vertex
    from repro.simulator.costs import CostModel

    for flag in ("suppressible", "silent_on_unchanged"):
        assert not hasattr(Vertex, flag), DELIVER_ALL
    assert params(FunctionVertex) == ["fn"], DELIVER_ALL
    assert params(StatefulFunctionVertex) == ["fn", "initial_state"], DELIVER_ALL
    assert params(SerialExecutor) == ["program"], DELIVER_ALL
    assert params(PairRuntime) == [
        "program", "phase_inputs", "stream_records",
    ], DELIVER_ALL
    assert list(inspect.signature(check_serializable).parameters) == [
        "reference", "candidate", "max_differences",
    ], DELIVER_ALL
    assert list(inspect.signature(assert_serializable).parameters) == [
        "reference", "candidate",
    ], DELIVER_ALL
    assert [f.name for f in dataclasses.fields(CostModel) if f.init] == [
        "compute_cost", "bookkeeping_cost", "phase_start_cost", "jitter",
        "seed",
    ], AIM_2


CORE = (
    "ScheduleCore's surface changed — ROADMAP aim 2: the run lifecycle is "
    "admit / claim / commit / sweep / result, once; an engine-specific need "
    "belongs in that engine's driver, not in a sixth operation or a new "
    "parameter"
)


def test_schedule_core_surface_is_pinned():
    assert params(ScheduleCore) == [
        "program", "num_workers", "frontier", "checker", "tracer",
        "retire", "sink",
    ], CORE
    operations = {
        name: list(inspect.signature(member).parameters)[1:]
        for name, member in vars(ScheduleCore).items()
        if inspect.isfunction(member) and not name.startswith("_")
    }
    assert operations == {
        "admit": ["phase_input"],
        "claim": ["worker", "v", "p"],
        "commit": ["worker", "completed"],
        "sweep": ["worker", "compute"],
        "result": ["label", "elapsed", "engine_stats"],
    }, CORE


def test_one_driver_calls_the_schedule_core():
    # Both real engines run one coordinator loop; the simulator keeps
    # Listing 1's peers.  No second driver may grow elsewhere.
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    callers = sorted(
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if re.search(r"\bcore\.(admit|claim|commit|sweep)\(", path.read_text())
    )
    assert callers == ["runtime/driver.py", "simulator/machine.py"], CORE
    loaded = _run_python(
        "import sys, repro.runtime.driver\n"
        "print('multiprocessing' in sys.modules)"
    )
    assert loaded == "False", CORE


def _run_python(script, *argv):
    """The stdout of *script* run by a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout.strip()


OWN_EXECUTORS = (
    "a general substrate re-appeared under the threaded engine — its "
    "ThreadPort starts, feeds and joins its own executors, and a backend "
    "hands out only what the driver and the port block on (ROADMAP aim 2)"
)


def test_the_threaded_port_owns_its_executors():
    import repro.errors
    from repro.runtime.backend import ThreadingBackend
    from repro.testing.schedule import VirtualBackend

    for module in ("repro.runtime.blocking_queue", "repro.runtime.pool"):
        assert importlib.util.find_spec(module) is None, OWN_EXECUTORS
    assert not hasattr(repro.errors, "QueueClosedError"), OWN_EXECUTORS
    for backend in (ThreadingBackend, VirtualBackend):
        primitives = sorted(
            name for name, member in vars(backend).items()
            if inspect.isfunction(member) and not name.startswith("_")
        )
        assert primitives == ["clock", "condition", "lock", "thread"], (
            backend, OWN_EXECUTORS,
        )


OWN_WORKERS = (
    "a second layer re-appeared under the process engine — its "
    "ProcessWorkerPool spawns, prices, feeds and shuts down its own "
    "workers, and the driver derives a vertex's sticky worker, "
    "(v - 1) % port.workers, for both ports (ROADMAP aim 2)"
)


def test_the_process_port_owns_its_workers():
    from repro.runtime import driver
    from repro.runtime.backend import OS_BACKEND
    from repro.runtime.engine import ThreadPort
    from repro.runtime.mp import engine, lifecycle, protocol
    from repro.streams.workloads import grid_workload

    for owner, name in (
        (engine, "ProcessPort"),
        (lifecycle, "default_start_method"),
        (lifecycle.ProcessWorkerPool, "submit_to_worker"),
        (protocol, "traffic_class_of"),
    ):
        assert not hasattr(owner, name), (name, OWN_WORKERS)
    # What the driver reads of its port; each port offers all of it.
    used = set(re.findall(r"\bport\.(\w+)", inspect.getsource(driver)))
    assert used == {
        "workers", "clock", "start", "price", "trip", "send", "collect",
        "progress", "check", "close", "abort", "stats",
    }, OWN_WORKERS
    program, _ = grid_workload(2, 2, phases=1, seed=0)
    for port in (
        ThreadPort(1, OS_BACKEND),
        lifecycle.ProcessWorkerPool(program, 1, 1.0),
    ):
        assert not hasattr(port, "worker_of"), OWN_WORKERS
        assert {name for name in used if hasattr(port, name)} == used, (
            type(port).__name__, OWN_WORKERS,
        )


def test_the_two_schedulers_stay_apart():
    from repro.core.reference import ReferenceScheduler
    from repro.core.state import SchedulerState

    for scheduler in (SchedulerState, ReferenceScheduler):
        assert params(scheduler) == ["numbering", "checker"], AIM_2
    # The engines run core/state.py; core/reference.py (and the
    # LazyMinHeap only it uses) is loaded on demand, by
    # ScheduleCore(frontier="global") and the verification tools.
    loaded = _run_python(
        "import sys, repro, repro.cli, repro.serve, repro.runtime.mp\n"
        "print([m for m in ('repro.core.reference', 'repro.core.pairsets')"
        " if m in sys.modules])"
    )
    assert loaded == "[]", loaded


def test_the_engines_load_no_plan():
    # Every engine, the serve session and the CLI take the Program itself;
    # repro.core.plan is left for the end-to-end benchmark alone.
    loaded = _run_python(
        "import sys, repro, repro.cli, repro.serve, repro.runtime.mp\n"
        "print('repro.core.plan' in sys.modules)"
    )
    assert loaded == "False", AIM_2


# -- cold start: a process imports what its verb and its program run ------

ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted(str(p) for p in (ROOT / "specs").glob("*.xml"))
KEYED16 = str(ROOT / "benchmarks" / "e2e" / "specs" / "keyed16.xml")
COLD = (
    "an import crept onto a path that never runs it — numpy loads only "
    "when a vector vertex computes, and a verb imports its modules in "
    "its handler (docs/ARCHITECTURE.md §1.2)"
)


def test_the_threaded_serve_path_loads_no_unused_module():
    # What ``repro serve SPEC --engine parallel`` runs before its first
    # event: the CLI parser, the serve handler's imports, the spec, the
    # session.
    unused = ("numpy", "multiprocessing", "repro.runtime.mp",
              "repro.testing.fuzz", "repro.testing.faults",
              "repro.testing.schedule", "repro.streams", "repro.analysis")
    loaded = _run_python(
        "import sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "from repro.serve import ServeConfig, ServeServer, ServeSession\n"
        "from repro.spec import load_spec\n"
        "ServeSession(load_spec(sys.argv[1]).program,"
        " ServeConfig(engine='parallel'))\n"
        "print(sorted(m for m in sys.argv[2:] if m in sys.modules))",
        KEYED16, *unused,
    )
    assert loaded == "[]", f"{loaded}: {COLD}"


def test_the_model_library_and_every_spec_load_no_numpy():
    loaded = _run_python(
        "import sys, repro.models\n"
        "from repro.spec import load_spec\n"
        "for path in sys.argv[1:]:\n"
        "    load_spec(path)\n"
        "print('numpy' in sys.modules)",
        *SPECS,
    )
    assert loaded == "False", COLD


_TIMED = """\
import json
import sys
from repro.models.domains.keyed import build_keyed_workload
from repro.runtime.engine import ParallelEngine
from repro.runtime.mp import ProcessEngine
from repro.serve import ServeConfig, ServeSession
from repro.spec import load_spec
from repro.testing.fuzz import scripted_placement

mode, engine = sys.argv[1:3]
if mode == "batch":
    spec = load_spec(sys.argv[3])
    phases = spec.phase_inputs()
    if engine == "parallel":
        timed = ParallelEngine(spec.program, 2)
    else:
        timed = ProcessEngine(spec.program, 2)
    before = set(sys.modules)
    with scripted_placement():  # the process wire is on the path too
        assert timed.run(phases).phases_run == len(phases)
else:
    work = build_keyed_workload(num_keys=3, ticks=20, seed=29)
    session = ServeSession(work.program, ServeConfig(
        engine=engine, wait=work.wait, quantum=work.quantum))
    session.start()
    before = set(sys.modules)
    for a in work.arrivals:
        assert not session.offer_body(json.dumps({
            "timestamp": a.event.timestamp, "source": a.event.source,
            "value": a.event.value, "arrival": a.arrival,
        })).bad_line
    assert session.close(drain=True)["serve"]["phases_retired"] > 0
print(sorted(m for m in set(sys.modules) - before
             if m.split(".")[0] in ("repro", "numpy")))
"""


@pytest.mark.parametrize("mode", ["batch", "serve"])
@pytest.mark.parametrize("engine", ["parallel", "process"])
def test_nothing_is_imported_inside_a_timed_region(mode, engine):
    # A module that loads late still loads when its engine or session is
    # built, never inside run(), run_feed() or offer_body().
    loaded = _run_python(
        _TIMED, mode, engine, str(ROOT / "specs" / "plant_monitor.xml")
    )
    assert loaded == "[]", f"{loaded}: {COLD}"
