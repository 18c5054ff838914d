"""Timing wrappers around the layers' public functions, installed from outside.

The traced pass of the benchmark answers "where does the time go" without
touching ``src/``: :meth:`Tracer.install` replaces each probed function
(a class method, or a by-name import inside the module that calls it) with
a wrapper that records a span.  Spans nest on a per-thread stack, so a
layer's **self time** is its span's duration minus the part its child
spans cover.  Aggregates are kept per span name and per thread; one in
``sample_every`` root spans is additionally kept whole (with every
descendant, the parent link and the phase id where the arguments carry
one) for the span dump.  Everything stays in memory until the round ends.

End-to-end numbers never come from a traced round: the wrappers cost a
few hundred nanoseconds per call, which ``bench.trace_overhead_share``
reports.

Used as a script, this module is the traced stand-in for
``python -m repro``: it installs the probes, runs the repro CLI with the
remaining arguments, and prints the trace as one JSON line on exit::

    python3 benchmarks/e2e/trace.py serve SPEC.xml --engine parallel
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# (span name, module that holds the attribute, dotted attribute path)
# A function another module imports by name is probed at that import site.
PROBES: List[Tuple[str, str, str]] = [
    ("serve.session.offer", "repro.serve.session", "ServeSession.offer"),
    ("serve.session.offer_line", "repro.serve.session", "ServeSession.offer_line"),
    ("serve.sse.format", "repro.serve.session", "format_sse"),
    ("serve.sse.announce", "repro.serve.sse", "MessageAnnouncer.announce"),
    ("ingest.offer", "repro.ingest", "ReorderBuffer.offer"),
    ("runtime.feed.put", "repro.runtime.feed", "PhaseFeed.put"),
    ("runtime.feed.get", "repro.runtime.feed", "PhaseFeed.get"),
    ("core.plan.compile", "repro.core.plan", "compile_plan"),
    ("core.plan.compile", "repro.serve.session", "compile_plan"),
    ("core.state.start_phase", "repro.core.state", "SchedulerState.start_phase"),
    ("core.state.claim", "repro.core.state", "SchedulerState.claim_run"),
    ("core.state.complete", "repro.core.state", "SchedulerState.complete_executions"),
    ("core.state.retire", "repro.core.state", "SchedulerState.retire_phases_upto"),
    ("core.program.prepare", "repro.core.program", "PairRuntime.prepare"),
    ("core.program.compute", "repro.core.program", "PairRuntime.compute"),
    ("core.program.commit", "repro.core.program", "PairRuntime.commit"),
    ("runtime.mp.commit_remote", "repro.core.program", "PairRuntime.commit_remote"),
    ("core.program.retire", "repro.core.program", "PairRuntime.retire_phase"),
    ("runtime.engine.run", "repro.runtime.engine", "ParallelEngine.run"),
    ("runtime.engine.run", "repro.runtime.engine", "ParallelEngine.run_feed"),
    ("runtime.mp.run", "repro.runtime.mp.engine", "ProcessEngine.run"),
    ("runtime.mp.run", "repro.runtime.mp.engine", "ProcessEngine.run_feed"),
    ("runtime.mp.encode", "repro.runtime.mp.engine", "encode"),
    ("runtime.mp.encode", "repro.runtime.mp.lifecycle", "encode"),
    ("runtime.mp.decode", "repro.runtime.mp.lifecycle", "decode"),
    ("runtime.mp.spawn", "repro.runtime.mp.lifecycle", "ProcessWorkerPool.start"),
    ("runtime.mp.collect", "repro.runtime.mp.lifecycle", "ProcessWorkerPool.collect"),
]

# Where a call's arguments name the phase it works on (index into *args,
# self included): spans of one phase share that id in the dump.
_PHASE_ARG: Dict[str, Callable[[tuple], Any]] = {
    "core.program.prepare": lambda a: a[2],
    "core.program.commit": lambda a: a[2],
    "runtime.mp.commit_remote": lambda a: a[2],
    "core.program.retire": lambda a: a[1],
    "core.state.claim": lambda a: a[2],
    "core.state.retire": lambda a: a[1],
    "runtime.feed.put": lambda a: a[1].phase,
}


class _ThreadState:
    __slots__ = ("name", "stack", "agg", "root_ns", "roots", "sampling")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: List[List[int]] = []  # [child_ns, span_id] per open span
        self.agg: Dict[str, List[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.root_ns = 0
        self.roots = 0
        self.sampling = False


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(
        self,
        sample_every: int = 200,
        max_spans: int = 5000,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.sample_every = sample_every
        self.max_spans = max_spans
        self.clock = clock
        self.enabled = True
        self.missing: Dict[str, str] = {}  # span name -> why it is not probed
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._register = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        self._next_id = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._register:
                self._threads.append(state)
            return state

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* recorded as span *name* on every call."""
        phase_of = _PHASE_ARG.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            state = self._state()
            stack = state.stack
            if not stack:
                state.roots += 1
                state.sampling = (
                    state.roots % self.sample_every == 0
                    and len(self._spans) < self.max_spans
                )
            frame = [0, 0]
            if state.sampling:
                self._next_id += 1  # racy across threads: ids only label
                frame[1] = self._next_id
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                entry = state.agg.get(name)
                if entry is None:
                    entry = state.agg[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    state.root_ns += duration
                if state.sampling:
                    phase = None
                    if phase_of is not None:
                        try:
                            phase = phase_of(args)
                        except (IndexError, AttributeError):
                            pass
                    self._spans.append(
                        {
                            "id": frame[1],
                            "parent": parent,
                            "name": name,
                            "thread": state.name,
                            "start_ns": started,
                            "end_ns": started + duration,
                            "phase": phase,
                        }
                    )

        return traced

    # -- installation -------------------------------------------------------

    def install(self, probes: List[Tuple[str, str, str]] = PROBES) -> None:
        """Patch every probe that resolves; note the rest in ``missing``
        (a renamed internal yields a null metric, never a failed run)."""
        found = set()
        for name, module_name, path in probes:
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing.setdefault(name, f"{module_name}:{path}: {exc!r}")
                continue
            setattr(owner, attr, self.wrap(name, original))
            self._installed.append((owner, attr, original))
            found.add(name)
        for name in found:
            self.missing.pop(name, None)
        # A forked worker inherits the patched functions; it must not pay
        # for (or corrupt) the coordinator's trace.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Aggregates per span name, per-thread root time, the sampled
        spans, and the probes that did not resolve."""
        spans: Dict[str, Dict[str, float]] = {}
        threads: Dict[str, Dict[str, float]] = {}
        with self._register:
            states = list(self._threads)
        for state in states:
            row = threads.setdefault(state.name, {"root_us": 0.0, "spans": 0})
            row["root_us"] += state.root_ns / 1e3
            for name, (calls, total_ns, self_ns) in state.agg.items():
                row["spans"] += calls
                agg = spans.setdefault(
                    name, {"calls": 0, "total_us": 0.0, "self_us": 0.0}
                )
                agg["calls"] += calls
                agg["total_us"] += total_ns / 1e3
                agg["self_us"] += self_ns / 1e3
        return {
            "spans": spans,
            "threads": threads,
            "sampled": list(self._spans),
            "missing": dict(self.missing),
        }


def main(argv: Optional[List[str]] = None) -> int:
    """Run the repro CLI under the tracer (the traced ``repro serve``)."""
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        code = repro_main(list(sys.argv[1:] if argv is None else argv))
    finally:
        report = tracer.report()
        report["sampled"] = report["sampled"][:500]
        sys.stdout.write("TRACE " + json.dumps(report) + "\n")
        sys.stdout.flush()
    return int(code or 0)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.exit(main())
