"""Command-line interface.

``python -m repro <command>`` (or the ``repro`` console script):

* ``run SPEC.xml`` — execute an XML computation spec on a chosen engine
  and print the recorded outputs;
* ``info SPEC.xml`` — show the graph, its restricted numbering and
  m-sequence without running;
* ``validate SPEC.xml`` — parse + validate, exit non-zero on problems;
* ``speedup SPEC.xml`` — simulated speedup sweep over worker counts;
* ``report`` — run the paper's five exhibits (Figures 1–3, both
  Section 4 results) and print paper-vs-measured values with the
  Figure 2 graph and Figure 3 frames rendered;
* ``serve SPEC.xml`` — continuous-operation service mode: ingest live
  NDJSON events (HTTP or file/stdin replay), stream retired-phase
  results over SSE, bounded memory throughout (see :mod:`repro.serve`);
* ``fuzz`` — deterministic schedule exploration: random workloads ×
  random interleavings, judged against the serial oracle (see
  :mod:`repro.testing`).

``run`` and ``serve`` shut down gracefully on SIGINT/SIGTERM: in-flight
phases drain, the final ``--stats-json`` document is still written, and
the exit code is 0.

The CLI is a thin veneer over the library; every command maps to a few
public API calls, shown in ``--help`` epilogs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import threading
from typing import Iterator, Optional, Sequence

from . import __version__
from .errors import ReproError
from .testing import FAULT_NAMES, POLICY_NAMES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Serializable pipelined parallel correlation of event streams "
            "(Zimmerman & Chandy, IPPS 2005)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an XML computation spec")
    run.add_argument("spec", help="path to the XML specification file")
    run.add_argument(
        "--engine",
        choices=["serial", "parallel", "process", "simulated"],
        default="parallel",
        help="which engine executes the computation (default: parallel)",
    )
    run.add_argument("--threads", type=int, default=2,
                     help="computation threads for --engine parallel")
    run.add_argument("--workers", type=int, default=2,
                     help="worker processes for --engine process; workers "
                          "for --engine simulated")
    run.add_argument("--processors", type=int, default=2,
                     help="CPUs for --engine simulated")
    run.add_argument("--start-method", default=None,
                     choices=["fork", "spawn", "forkserver"],
                     help="multiprocessing start method for --engine "
                          "process (default: fork where available)")
    run.add_argument("--check", action="store_true",
                     help="also run the serial oracle and verify "
                          "serializability (executed pairs, message count "
                          "and records must equal the oracle's)")
    run.add_argument("--stats-json", metavar="PATH", default=None,
                     help="dump the engine's RunResult stats as JSON to "
                          "PATH ('-' for stdout)")
    run.add_argument("--max-records", type=int, default=20,
                     help="records to print per vertex (default 20)")

    serve = sub.add_parser(
        "serve",
        help="continuous-operation service mode: live NDJSON ingest, "
             "bounded memory, SSE result stream",
        epilog="Event wire shape (one JSON object per line): "
               '{"timestamp": t, "source": "name", "value": v'
               ', "arrival": a}. '
               "HTTP mode exposes POST /events, POST /advance, "
               "GET /stream (SSE), GET /stats, GET /healthz.",
    )
    serve.add_argument("spec", help="path to the XML specification file")
    serve.add_argument("--engine", choices=["parallel", "process"],
                       default="parallel",
                       help="which real engine serves (default: parallel)")
    serve.add_argument("--threads", type=int, default=2,
                       help="computation threads for --engine parallel")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes for --engine process")
    serve.add_argument("--wait", type=float, default=2.0,
                       help="watermark wait before sealing a timestamp "
                            "(default 2.0)")
    serve.add_argument("--quantum", type=float, default=1.0,
                       help="timestamp binning quantum (default 1.0)")
    serve.add_argument("--max-buffered", type=int, default=64,
                       help="reorder-buffer cap in pending bins; overflow "
                            "is backpressure (429 / producer stall); "
                            "0 = unbounded (default 64)")
    serve.add_argument("--feed-capacity", type=int, default=64,
                       help="sealed-but-unstarted phase cap; a full feed "
                            "blocks the producer (default 64)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="HTTP port (default 0: ephemeral, printed at "
                            "startup)")
    serve.add_argument("--input", metavar="PATH", default=None,
                       help="replay NDJSON events from PATH ('-' for "
                            "stdin) instead of serving HTTP — the CI "
                            "smoke path; drains and exits at EOF")
    serve.add_argument("--check-sample", type=int, default=0, metavar="N",
                       help="spot-check every Nth retired phase against "
                            "a live serial oracle replica (0: off)")
    serve.add_argument("--stats-every", type=int, default=0, metavar="N",
                       help="announce a stats SSE event every N retired "
                            "phases (0: off)")
    serve.add_argument("--max-phases", type=int, default=0, metavar="N",
                       help="drain and exit after N phases retired "
                            "(0: run until signalled)")
    serve.add_argument("--stats-json", metavar="PATH", default=None,
                       help="dump final serve stats as JSON to PATH "
                            "('-' for stdout)")

    info = sub.add_parser("info", help="describe a spec without running it")
    info.add_argument("spec")

    validate = sub.add_parser("validate", help="parse and validate a spec")
    validate.add_argument("spec")

    speedup = sub.add_parser(
        "speedup", help="simulated speedup sweep for a spec"
    )
    speedup.add_argument("spec")
    speedup.add_argument("--workers", default="1,2,4",
                         help="comma-separated worker counts (default 1,2,4)")
    speedup.add_argument("--processors", type=int, default=None,
                         help="fixed CPU count (default: workers + 1)")
    speedup.add_argument("--compute-cost", type=float, default=1.0)
    speedup.add_argument("--bookkeeping-cost", type=float, default=0.05)

    report = sub.add_parser(
        "report", help="run the headline experiments, emit a Markdown report"
    )
    report.add_argument("-o", "--output", default=None,
                        help="write the report to this file (default: stdout)")
    report.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI-speed)")

    fuzz = sub.add_parser(
        "fuzz",
        help="explore random schedules of random workloads, checking "
             "serializability and the scheduling-set invariants",
        epilog="Reproduce any reported failure with the same --seed (the "
               "failing run index is printed) or via "
               "repro.testing.fuzz.replay_failure.",
    )
    fuzz.add_argument("--engine", choices=["thread", "process"],
                      default="thread",
                      help="thread: virtual-scheduler campaign over the "
                           "threaded engine (default); process: real "
                           "ProcessEngine runs over varying worker "
                           "counts against the serial oracle")
    fuzz.add_argument("--runs", type=int, default=100,
                      help="schedules to explore (default 100; the "
                           "process campaign pays real process spawns "
                           "per run, so use single digits)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; every workload and interleaving "
                           "derives from it (default 0)")
    fuzz.add_argument("--threads", type=int, default=None,
                      help="fix the computation thread count "
                           "(default: vary 2-4 per run)")
    fuzz.add_argument("--policy", choices=list(POLICY_NAMES) + ["all"],
                      default="all",
                      help="interleaving policy (default: rotate through all)")
    fuzz.add_argument("--max-vertices", type=int, default=8,
                      help="largest random DAG to generate (default 8)")
    fuzz.add_argument("--max-phases", type=int, default=6,
                      help="most phases per stream (default 6)")
    fuzz.add_argument("--inject", choices=list(FAULT_NAMES), default=None,
                      help="inject a seeded concurrency bug; exit 0 if the "
                           "harness finds it, 5 if it does not")
    fuzz.add_argument("--keep-going", action="store_true",
                      help="collect every failure instead of stopping at "
                           "the first")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip greedy minimisation of failing workloads")
    fuzz.add_argument("--failure-artifacts", metavar="DIR", default=None,
                      help="on failure, write one JSON reproduction file "
                           "(seed, spec, policy, step trace) per failure "
                           "into DIR — what CI uploads as artifacts")

    return parser


def _load(path: str):
    from .spec import load_spec

    return load_spec(path)


@contextlib.contextmanager
def _signal_stop() -> Iterator[threading.Event]:
    """Install SIGINT/SIGTERM handlers that set a stop event.

    Engines drain in-flight phases when the event is set, so a signalled
    ``repro run`` / ``repro serve`` still emits its final stats and
    exits 0 — continuous operation must be stoppable without losing the
    run's accounting.  Restores the previous handlers on exit; a no-op
    off the main thread (signal delivery goes there anyway).
    """
    stop = threading.Event()
    installed = {}
    if threading.current_thread() is threading.main_thread():
        def _handle(signum, frame):  # noqa: ANN001
            stop.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            installed[sig] = signal.signal(sig, _handle)
    try:
        yield stop
    finally:
        for sig, old in installed.items():
            signal.signal(sig, old)


def _write_stats_json(dest: str, payload: dict) -> None:
    import json

    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if dest == "-":
        print(text)
    else:
        from pathlib import Path

        Path(dest).write_text(text + "\n")
        print(f"stats written to {dest}")


def _cmd_run(args: argparse.Namespace) -> int:
    from .analysis import check_serializable
    from .core.serial import SerialExecutor

    if args.max_records < 0:
        raise ReproError(f"--max-records must be >= 0, got {args.max_records}")
    spec = _load(args.spec)
    program = spec.program
    phases = spec.phase_inputs()
    stopped = False
    if args.engine == "serial":
        result = SerialExecutor(program).run(phases)
    elif args.engine == "parallel":
        from .runtime.engine import ParallelEngine

        with _signal_stop() as stop:
            result = ParallelEngine(program, num_threads=args.threads).run(
                phases, stop_event=stop
            )
            stopped = stop.is_set()
    elif args.engine == "process":
        from .runtime.mp import ProcessEngine

        with _signal_stop() as stop:
            result = ProcessEngine(
                program,
                num_workers=args.workers,
                start_method=args.start_method,
            ).run(phases, stop_event=stop)
            stopped = stop.is_set()
    else:
        from .simulator import CostModel, SimulatedEngine

        result = SimulatedEngine(
            program,
            num_workers=args.workers,
            num_processors=args.processors,
            cost_model=CostModel(),
            frontier="cone",
        ).run(phases)
    print(f"{spec.name}: {result.engine} ran {result.phases_run} phases, "
          f"{result.execution_count} pair executions, "
          f"{result.message_count} messages, "
          f"wall/virtual time {result.wall_time:.4f}")
    if stopped:
        print(f"stopped by signal after {result.phases_run} of "
              f"{len(phases)} phases (in-flight work drained)")
    coalescing = result.stats.get("coalescing") if result.stats else None
    if coalescing and coalescing["runs_scheduled"]:
        print(f"coalescing: {coalescing['runs_scheduled']} runs scheduled, "
              f"{coalescing['pairs_coalesced']} pairs coalesced "
              f"(mean run length {coalescing['mean_run_length']:.2f})")
    drain = result.stats.get("drain") if result.stats else None
    if drain:
        line = (f"drain: {drain['inline_runs']} inline runs, "
                f"{drain['pooled_runs']} pooled runs, "
                f"{drain['handovers']} handovers, "
                f"{drain['swept_phases']} swept phases")
        moved = result.stats["moved"]
        line += f", {len(moved)} moved" + (f" ({', '.join(moved)})" if moved else "")
        print(line)
    budget = result.stats.get("budget") if result.stats else None
    if budget:
        print("budget: " + ", ".join(
            f"{layer} {ns / 1e6:.3f} ms" for layer, ns in budget.items()
            if layer != "compute_per_worker"
        ))

    if args.stats_json is not None:
        _write_stats_json(args.stats_json, {
            "spec": spec.name,
            "engine": result.engine,
            "phases_run": result.phases_run,
            "execution_count": result.execution_count,
            "message_count": result.message_count,
            "wall_time": result.wall_time,
            "stats": result.stats,
        })
    for vertex in sorted(result.records):
        log = result.records[vertex]
        print(f"\n{vertex} ({len(log)} records):")
        for phase, value in log[: args.max_records]:
            print(f"  phase {phase:5d}  {value!r}")
        if len(log) > args.max_records:
            print(f"  ... {len(log) - args.max_records} more")

    if args.check and args.engine != "serial" and not stopped:
        oracle = SerialExecutor(program).run(phases)
        report = check_serializable(oracle, result)
        print(f"\nserializability: {report}")
        if not report:
            return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, ServeServer, ServeSession

    # Neither reaches ServeConfig, and a bad one must start nothing.
    if args.max_phases < 0:
        raise ReproError(f"--max-phases must be >= 0, got {args.max_phases}")
    if not 0 <= args.port <= 65535:
        raise ReproError(f"--port must be in 0..65535, got {args.port}")
    spec = _load(args.spec)
    cfg = ServeConfig(
        engine=args.engine,
        threads=args.threads,
        workers=args.workers,
        wait=args.wait,
        quantum=args.quantum,
        max_buffered=args.max_buffered or None,
        feed_capacity=args.feed_capacity,
        check_sample=args.check_sample,
        stats_every=args.stats_every,
    )
    session = ServeSession(spec.program, cfg)
    # Opened before the session starts, so a bad path starts nothing.
    replay = None
    if args.input == "-":
        replay = sys.stdin.buffer
    elif args.input is not None:
        replay = open(args.input, "rb")
    session.start()
    input_ok = True
    with _signal_stop() as stop:
        if replay is not None:
            # A bad line ends the replay, not the session: what was
            # ingested before it still drains, reports and exits 1.
            input_ok = _serve_replay(session, args, replay, stop)
        else:
            server = ServeServer(session, host=args.host, port=args.port)
            server.start()
            try:
                print(f"serving {spec.name} on {server.url} "
                      f"(POST /events, SSE at /stream; signal to drain "
                      f"and exit)", flush=True)
                while not stop.is_set():
                    if args.max_phases and (
                        session.stats()["serve"]["phases_retired"]
                        >= args.max_phases
                    ):
                        break
                    stop.wait(0.25)
            finally:
                server.stop()
        stopped = stop.is_set()
    stats = session.close(drain=True)
    serve = stats["serve"]
    print(f"{spec.name}: serve[{args.engine}] ingested "
          f"{serve['phases_ingested']} phases, retired "
          f"{serve['phases_retired']}, {serve['late_events']} late, "
          f"{serve['backpressure_stalls']} backpressure stalls, "
          f"rss high-water {serve['rss_high_water_bytes'] / 1e6:.1f} MB"
          + (" (stopped by signal; drained)" if stopped else ""))
    if args.check_sample:
        print(f"oracle spot-checks: {serve['spot_checks_passed']} passed, "
              f"{serve['spot_checks_failed']} failed")
    if args.stats_json is not None:
        _write_stats_json(
            args.stats_json, {"spec": spec.name, **stats}
        )
    if serve["spot_checks_failed"]:
        return 2
    return 0 if input_ok else 1


#: Bytes one ``repro serve --input`` read takes: its whole lines are a body.
_REPLAY_READ = 1 << 16


def _serve_replay(session, args: argparse.Namespace, fh, stop) -> bool:
    """The ``--input`` path: feed the opened NDJSON file *fh* to the
    session one read at a time — each read's whole lines are one body,
    ingested like one ``POST /events`` — honouring backpressure by
    resending from the refused line (the in-process analogue of an HTTP
    producer seeing 429 and backing off).  Returns False, after
    reporting the file's line number, at the first line that is not an
    event."""
    import time

    done = 0  # lines of the input before the current body
    tail = b""
    try:
        while not stop.is_set():
            chunk = fh.read1(_REPLAY_READ)
            data, tail = tail + chunk, b""
            if chunk:
                cut = data.rfind(b"\n") + 1
                data, tail = data[:cut], data[cut:]
            body = data.decode("utf-8", errors="replace")
            while body:
                out = session.offer_body(body)
                if out.bad_line:
                    name = "<stdin>" if args.input == "-" else args.input
                    print(f"error: {name}:{done + out.bad_line}: {out.error}",
                          file=sys.stderr)
                    return False
                # NDJSON lines end at "\n" alone: U+2028 and its kin may
                # stand raw inside a JSON string.
                lines = body.split("\n")
                if not out.rejected_line:
                    done += len(lines) - (lines[-1] == "")
                    break
                if stop.is_set():
                    return True
                time.sleep(0.005)
                done += out.rejected_line - 1
                body = "\n".join(lines[out.rejected_line - 1:])
            if not chunk or args.max_phases and (
                session.stats()["serve"]["phases_ingested"]
                >= args.max_phases
            ):
                break
    finally:
        if fh is not sys.stdin.buffer:
            fh.close()
    return True


def _cmd_info(args: argparse.Namespace) -> int:
    from .analysis.ascii_viz import render_graph
    from .graph.analysis import depth, width

    spec = _load(args.spec)
    prog = spec.program
    print(f"computation {spec.name!r}")
    print(f"  timesteps: {spec.timesteps}  interval: {spec.interval}  "
          f"seed: {spec.seed}")
    print(f"  depth: {depth(prog.graph)}  width: {width(prog.graph)}  "
          f"max pipelining: {depth(prog.graph)} phases")
    print(render_graph(prog.graph, prog.numbering))
    print(f"  m-sequence: {prog.numbering.m_sequence()}")
    print("  vertex classes:")
    for vid in prog.graph.vertices():
        cls = spec.vertex_classes.get(vid, "?")
        params = spec.vertex_params.get(vid, {})
        print(f"    {vid}: {cls} {params if params else ''}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    spec.program.graph.validate()
    from .graph.numbering import verify_numbering

    verify_numbering(spec.program.graph, spec.program.numbering.index_of)
    print(f"{args.spec}: OK ({spec.program.graph.num_vertices} vertices, "
          f"{spec.program.graph.num_edges} edges, "
          f"{spec.timesteps} timesteps)")
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    from .simulator import CostModel, SpeedupPoint, speedup_curve

    spec = _load(args.spec)
    try:
        workers = [int(w) for w in args.workers.split(",") if w.strip()]
    except ValueError:
        print(f"error: --workers must be comma-separated integers, "
              f"got {args.workers!r}", file=sys.stderr)
        return 2
    if not workers:
        print("error: --workers is empty", file=sys.stderr)
        return 2
    cm = CostModel(
        compute_cost=args.compute_cost, bookkeeping_cost=args.bookkeeping_cost
    )
    points = speedup_curve(
        spec.program,
        spec.phase_inputs(),
        cm,
        workers,
        processors=args.processors,
    )
    print(SpeedupPoint.header())
    for p in points:
        print(p.row())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import generate_report

    text = generate_report(quick=args.quick)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0 if "DIVERGED" not in text else 3


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .testing.faults import FaultPlan
    from .testing.fuzz import fuzz, fuzz_process, write_failure_artifacts

    for flag, value, least in (("--runs", args.runs, 1),
                               ("--max-vertices", args.max_vertices, 2),
                               ("--max-phases", args.max_phases, 1)):
        if value < least:
            raise ReproError(f"{flag} must be >= {least}, got {value}")
    policies = POLICY_NAMES if args.policy == "all" else (args.policy,)
    faults = FaultPlan.named(args.inject) if args.inject else None
    if faults is not None and args.engine == "process":
        print("error: --inject requires the thread campaign "
              "(virtual scheduler)", file=sys.stderr)
        return 2
    if args.engine == "process":
        report = fuzz_process(
            runs=args.runs,
            seed=args.seed,
            stop_on_failure=not args.keep_going,
            max_vertices=args.max_vertices,
            max_phases=args.max_phases,
        )
    else:
        report = fuzz(
            runs=args.runs,
            seed=args.seed,
            threads=args.threads,
            policies=policies,
            faults=faults,
            stop_on_failure=not args.keep_going,
            do_shrink=not args.no_shrink,
            max_vertices=args.max_vertices,
            max_phases=args.max_phases,
        )
    print(report.summary())
    if args.failure_artifacts and report.failures:
        for path in write_failure_artifacts(report, args.failure_artifacts):
            print(f"failure artifact written: {path}")
    if faults is not None:
        # Inverted verdict: a fault campaign *must* find its seeded bug.
        if report.ok:
            print(f"injected fault {args.inject!r} was NOT detected in "
                  f"{report.runs} schedules", file=sys.stderr)
            return 5
        print(f"injected fault {args.inject!r} detected at run "
              f"{report.failures[0].run_index}")
        return 0
    return 0 if report.ok else 4


_COMMANDS = {
    "run": _cmd_run,
    "serve": _cmd_serve,
    "info": _cmd_info,
    "validate": _cmd_validate,
    "speedup": _cmd_speedup,
    "report": _cmd_report,
    "fuzz": _cmd_fuzz,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # meet a closed pipe here, not at interpreter exit
        return code
    except BrokenPipeError:
        # ``repro run SPEC | head -1``: devnull absorbs the exit-time flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
