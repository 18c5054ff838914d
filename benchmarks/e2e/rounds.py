"""One measured round of one workload, and the processes it runs in.

A round is: set up a fresh engine/session (timed: ``setup_s``), push the
closed-loop stage through it (``events_per_s``), then — serve workloads —
the open-loop stage at the frozen rate (latency samples), drain, and hand
back everything the sink received so the caller can hold it against the
serial oracle.  The process that hosts the engine is always fresh: the
in-process workloads run in a child of the benchmark (this module used as
a script), the HTTP workload in a ``repro serve`` subprocess driven from
the benchmark's own process.

Process hygiene: every child is started through :class:`Children` in its
own process group with a hard timeout, and the group is killed on every
exit path, so no worker or server outlives the benchmark.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core import plan as plan_mod  # attribute lookup: the tracer patches it
from repro.errors import BackpressureError
from repro.runtime.engine import ParallelEngine
from repro.runtime.mp.engine import ProcessEngine
from repro.serve.session import ServeConfig, ServeSession

from benchmarks.e2e import workloads as W
from benchmarks.e2e.loadgen import (
    LATE_SEND_S,
    HttpProducer,
    SseReader,
    open_loop,
    phase_latencies_ms,
)
from benchmarks.e2e.trace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ROUND_TIMEOUT_S = 90.0  # hard cap on one child, far above any honest round
RESULT_TAG = "ROUND "
TRACE_TAG = "TRACE "


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


# -- child processes ----------------------------------------------------------


class Children:
    """Every process the benchmark starts, so all of them can be stopped."""

    def __init__(self) -> None:
        self._live: List[subprocess.Popen] = []

    def spawn(self, cmd: List[str]) -> subprocess.Popen:
        env = dict(os.environ)
        path = [str(ROOT / "src"), str(ROOT)]
        if env.get("PYTHONPATH"):
            path.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(path)
        proc = subprocess.Popen(
            cmd,
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            start_new_session=True,  # own process group: workers die with it
        )
        self._live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen) -> None:
        """Kill *proc*'s whole group and wait for it."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self._live:
            self._live.remove(proc)

    def reap_all(self) -> None:
        for proc in list(self._live):
            self.reap(proc)


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB.  ``VmHWM`` belongs to the
    address space, so unlike ``ru_maxrss`` it does not inherit the
    parent's peak across exec."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- in-process rounds (run inside the child) ------------------------------------


def _engine_stats(result: Any) -> Dict[str, Any]:
    return json.loads(json.dumps(result.stats, default=str)) if result else {}


def _lag_summary(lag: List[float]) -> Dict[str, float]:
    if not lag:
        return {"gen_late_share": 0.0, "gen_max_lag_ms": 0.0}
    return {
        "gen_late_share": sum(1 for x in lag if x > LATE_SEND_S) / len(lag),
        "gen_max_lag_ms": max(lag) * 1e3,
    }


def serve_round(workload: Any, stream: Any) -> Dict[str, Any]:
    """``ServeSession(engine="process", workers=2, wait=0)`` fed
    ``ArrivingEvent`` objects; the sink is ``on_retired``."""
    receipt: Dict[int, float] = {}
    sink: List[Any] = []
    closed_done = threading.Event()
    closed_last = stream.closed_last_phase

    def on_retired(phase: int, ts: float, entries: List[Tuple[str, Any]]) -> None:
        receipt[phase] = time.perf_counter()
        sink.append([ts, [[name, W.canonical(value)] for name, value in entries]])
        if phase == closed_last:
            closed_done.set()

    setup_started = time.monotonic()
    program = W.build_program(workload)
    session = ServeSession(
        program,
        ServeConfig(engine="process", workers=2, wait=stream.wait),
        on_retired=on_retired,
    )
    session.start()
    setup_s = time.monotonic() - setup_started

    refused = 0

    def send(group: List[Any]) -> None:
        nonlocal refused
        for ev in group:
            for _ in range(200):
                try:
                    session.offer(ev)
                    break
                except BackpressureError:
                    time.sleep(0.005)
            else:
                refused += 1

    try:
        started = time.perf_counter()
        for group in stream.groups[: stream.closed_groups]:
            send(group)
        if not closed_done.wait(60.0):
            raise BenchError("closed-loop stage did not retire within 60 s")
        closed_wall = receipt[closed_last] - started
        due: List[float] = []
        lag: List[float] = []
        if len(stream.groups) > stream.closed_groups:
            due, lag = open_loop(
                stream.groups[stream.closed_groups :],
                1.0 / workload.open_rate,
                send,
            )
        generator_wall = time.perf_counter() - started
    finally:
        stats = session.close(drain=True)
    latencies, missing = phase_latencies_ms(
        stream.sealed_by, stream.closed_groups, due, receipt
    )
    result = session.result
    return {
        "setup_s": setup_s,
        "closed_events": stream.closed_events,
        "closed_wall_s": closed_wall,
        "latencies_ms": latencies,
        "open_missing": missing,
        "refused_events": refused,
        "late_events": stats["serve"]["late_events"],
        "sink": sink,
        "serve_stats": stats["serve"],
        "engine_stats": _engine_stats(result),
        "engine_wall_s": result.wall_time if result else None,
        "generator_wall_s": generator_wall,
        "phases": len(stream.phases),
        **_lag_summary(lag),
    }


def batch_round(workload: Any, stream: Any) -> Dict[str, Any]:
    """Pre-sealed phases through ``engine.run``; the sink is
    ``RunResult.records``."""
    setup_started = time.monotonic()
    program = W.build_program(workload)
    plan = plan_mod.compile_plan(program, fuse=True)
    if workload.engine == "process":
        engine: Any = ProcessEngine(plan, num_workers=2)
    else:
        engine = ParallelEngine(plan, num_threads=2)
    setup_s = time.monotonic() - setup_started

    started = time.perf_counter()
    result = engine.run(stream.phases)
    wall = time.perf_counter() - started
    sink = W.entries_by_timestamp(program, result.records, stream.phases)
    return {
        "setup_s": setup_s,
        "closed_events": stream.closed_events,
        "closed_wall_s": wall,
        # A batch job's latency is input to complete result: the job.
        "latencies_ms": [wall * 1e3],
        "open_missing": 0,
        "refused_events": 0,
        "late_events": 0,
        "sink": [[ts, entries] for ts, entries in sink.items()],
        "engine_stats": _engine_stats(result),
        "engine_wall_s": result.wall_time,
        "phases": len(stream.phases),
        **_lag_summary([]),
    }


def child_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the per-round child process."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args(argv)

    # What a user's process pays before its first line of work: the
    # interpreter and importing the package (this module's imports).
    boot_s = time.monotonic() - args.launched
    workload = W.WORKLOADS[args.workload]
    stream = W.build_stream(workload, args.seed, quick=bool(args.quick))
    tracer = None
    if args.traced:
        # After the stream is built: its private ReorderBuffer is the
        # benchmark's, not the system's.
        tracer = Tracer()
        tracer.install()
    run = serve_round if workload.kind == "serve" else batch_round
    out = run(workload, stream)
    out["setup_s"] += boot_s
    out["boot_s"] = boot_s
    out["rss_mb"] = peak_rss_mb()
    out["trace"] = tracer.report() if tracer is not None else None
    sys.stdout.write(RESULT_TAG + json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


def run_child_round(
    children: Children, workload: Any, seed: int, quick: bool, traced: bool
) -> Dict[str, Any]:
    """Run one in-process round in a fresh child and return its report."""
    proc = children.spawn(
        [
            sys.executable,
            str(HERE / "rounds.py"),
            "--workload", workload.name,
            "--seed", str(seed),
            "--quick", str(int(quick)),
            "--traced", str(int(traced)),
            "--launched", repr(time.monotonic()),
        ]
    )
    try:
        try:
            out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"{workload.name}: round exceeded {ROUND_TIMEOUT_S:.0f} s"
            ) from None
    finally:
        children.reap(proc)
    for line in out.decode("utf-8", "replace").splitlines():
        if line.startswith(RESULT_TAG):
            return json.loads(line[len(RESULT_TAG) :])
    raise BenchError(
        f"{workload.name}: child exited {proc.returncode} without a result"
    )


# -- the HTTP round (driven from the benchmark's process) -------------------------


def _read_until(proc: subprocess.Popen, marker: bytes, timeout: float) -> bytes:
    """Bounded wait for a stdout line containing *marker*."""
    assert proc.stdout is not None
    fd = proc.stdout.fileno()
    buf = b""
    deadline = time.monotonic() + timeout
    while True:
        for line in buf.split(b"\n")[:-1]:
            if marker in line:
                return line
        remaining = deadline - time.monotonic()
        if remaining <= 0 or proc.poll() is not None:
            raise BenchError(
                f"server did not announce itself (exit {proc.poll()}): {buf!r}"
            )
        if select.select([fd], [], [], min(remaining, 0.5))[0]:
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(f"server closed stdout early: {buf!r}")
            buf += chunk


def _await_healthz(host: str, port: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=2)
            try:
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                if resp.status == 200:
                    return
            finally:
                conn.close()
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise BenchError("server never answered /healthz")
        time.sleep(0.01)


def _stop_server(proc: subprocess.Popen) -> str:
    """SIGINT (graceful drain), bounded wait, and whatever it printed."""
    try:
        os.kill(proc.pid, signal.SIGINT)
        out, _ = proc.communicate(timeout=20.0)
        return out.decode("utf-8", "replace")
    except (subprocess.TimeoutExpired, ProcessLookupError):
        return ""


def _stats_json_from(text: str) -> Dict[str, Any]:
    """The ``--stats-json -`` document inside the server's stdout."""
    lines = text.splitlines()
    try:
        start = lines.index("{")
        end = lines.index("}", start)
        return json.loads("\n".join(lines[start : end + 1]))
    except ValueError:
        return {}


def http_round(
    children: Children, workload: Any, stream: Any, traced: bool
) -> Dict[str, Any]:
    """``python -m repro serve keyed16.xml --engine parallel --threads 2
    --wait 2`` as a subprocess; one connection POSTs NDJSON, one reads
    ``/stream``; the sink is the SSE frames."""
    bodies = [W.ndjson(group) for group in stream.groups]
    spec = str(W.KEYED_SPEC.relative_to(ROOT))
    serve = ["serve", spec, "--engine", "parallel", "--threads", "2",
             "--wait", str(int(stream.wait))]
    if traced:
        # Same CLI under the probes; final engine stats ride on stdout.
        cmd = [sys.executable, str(HERE / "trace.py"), *serve, "--stats-json", "-"]
    else:
        cmd = [sys.executable, "-m", "repro", *serve]
    launched = time.monotonic()
    proc = children.spawn(cmd)
    producer = reader = None
    try:
        line = _read_until(proc, b"http://", 60.0).decode("ascii", "replace")
        address = line.split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        _await_healthz(host, int(port), 15.0)
        setup_s = time.monotonic() - launched

        reader = SseReader(host, int(port))
        reader.start()
        producer = HttpProducer(host, int(port))
        started = time.perf_counter()
        for body in bodies[: stream.closed_groups]:
            producer.post_events(body)
        closed_last = stream.closed_last_phase
        if not reader.wait_for(closed_last, 30.0):
            raise BenchError("closed-loop stage: SSE frames did not arrive")
        closed_wall = reader.frames[closed_last - 1][0] - started
        closed_posts = len(producer.post_s)
        due, lag = open_loop(
            bodies[stream.closed_groups :],
            W.TICKS_PER_POST / workload.open_rate,
            producer.post_events,
        )
        generator_wall = time.perf_counter() - started
        # Seal the tail (the generator's end-of-stream watermark), then
        # wait for every expected frame before asking the server to stop.
        producer.request(
            "POST", "/advance", json.dumps({"watermark": 1e18}).encode("ascii")
        )
        reader.wait_for(len(stream.phases), 15.0)
        _, stats = producer.request("GET", "/stats")
        tail = _stop_server(proc)
    finally:
        if producer is not None:
            producer.close()
        if reader is not None:
            reader.close()
        children.reap(proc)

    frames = reader.parsed()
    receipt = {payload["phase"]: stamp for stamp, payload in frames}
    latencies, missing = phase_latencies_ms(
        stream.sealed_by, stream.closed_groups, due, receipt
    )
    trace = None
    final = {}
    if traced:
        final = _stats_json_from(tail)
        for out_line in tail.splitlines():
            if out_line.startswith(TRACE_TAG):
                trace = json.loads(out_line[len(TRACE_TAG) :])
    serve_stats = stats["serve"]
    return {
        "setup_s": setup_s,
        "closed_events": stream.closed_events,
        "closed_wall_s": closed_wall,
        "latencies_ms": latencies,
        "open_missing": missing,
        "refused_events": producer.refused_events,
        "late_events": serve_stats["late_events"],
        "sink": [[p["timestamp"], p["records"]] for _, p in frames],
        "rss_mb": serve_stats["rss_high_water_bytes"] / (1024.0 * 1024.0),
        "serve_stats": serve_stats,
        "engine_stats": (final.get("engine") or {}).get("stats") or {},
        "engine_wall_s": None,
        "generator_wall_s": generator_wall,
        "post_ms": [s * 1e3 for s in producer.post_s[:closed_posts]],
        "post_open_ms": [s * 1e3 for s in producer.post_s[closed_posts:]],
        "http_429": producer.http_429,
        "phases": len(stream.phases),
        "trace": trace,
        **_lag_summary(lag),
    }


if __name__ == "__main__":
    sys.exit(child_main())
