"""The serving pipeline: ingest -> feed -> engine -> retire -> stream.

:class:`ServeSession` is the continuous-operation composition the batch
engines cannot express: a bounded :class:`~repro.ingest.ReorderBuffer`
seals arriving events into phases, a :class:`~repro.runtime.feed.PhaseFeed`
hands them to an engine running in feed+retire mode, and every retired
phase's records are announced to SSE listeners and then forgotten.  The
memory bound is the sum of the stage capacities:

* reorder buffer — at most ``max_buffered`` pending bins (overflow raises
  :class:`~repro.errors.BackpressureError` back to the producer);
* phase feed — at most ``feed_capacity`` sealed-but-unstarted phases
  (overflow *blocks* the producer: credit-style throttling);
* engine — at most ``ADAPTIVE_RUN_CEILING`` (64) started-but-incomplete
  phases (the engines' ``max_in_flight_phases``).  The bound is the run
  ceiling because a backlog of started phases is what coalesces into runs
  (docs/ARCHITECTURE.md §5.7): admitting more cannot lengthen a run past
  the ceiling, and admitting fewer shortens it, so a backlogged session
  would pay per phase the claim, prepare and commit a batch pays once
  per run;
* SSE egress — per-listener queues of ``_ANNOUNCE_QUEUE`` frames that
  *drop* when a consumer stalls (egress must never backpressure the
  engine).

Everything behind those stages is retired: per-phase pairsets, trace
segments, edge entries and completion-log entries are released as the
complete prefix advances, so RSS stays flat over millions of phases.

Delivery: the thread that retires a phase delivers it — sorts its
record entries, spot-checks it, calls ``on_retired`` and announces it —
inside the engine's critical section, before the next phase can retire.
So a retired phase is a delivered one.  A served phase costs one thread
hand-off (feed to engine), except that a lone phase sealed into an idle
process coordinator is run, and so delivered, by the producer's own
thread inside its ``PhaseFeed.put`` (docs/ARCHITECTURE.md §5.8), with the
ingest lock held.  ``on_retired`` must be cheap and must not call back
into the session's ingest (``offer``, ``offer_body``,
``advance_watermark``); an exception from it, or from the spot checker,
fails the engine run like any other engine failure, on whichever thread
it was raised.

:class:`OracleSpotChecker` keeps a *persistent* serial replica of the
program (Section 2's one-phase-at-a-time specification) fed with every
admitted phase — vertex state is cumulative, so a window cannot be
replayed from scratch — and compares the engine's retired records against
the replica's on every ``sample_every``-th phase.
"""

from __future__ import annotations

import copy
import json
import json.scanner
import math
import sys
import threading
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Tuple

from ..core.program import PairRuntime, Program
from ..core.serial import run_phase
from ..core.state import ADAPTIVE_RUN_CEILING
from ..errors import BackpressureError, ServeError
from ..events import PhaseInput
from ..ingest import ArrivingEvent, ReorderBuffer, Row
from ..runtime.engine import ParallelEngine
from ..runtime.feed import PhaseFeed
from .sse import MessageAnnouncer, format_sse

__all__ = [
    "Ingested",
    "OracleSpotChecker",
    "ServeConfig",
    "ServeSession",
    "current_rss_bytes",
]

_ENGINES = ("parallel", "process")
#: Late events the reorder buffer keeps for inspection (all are counted).
_MAX_LATE_KEPT = 32
#: Frames one SSE listener may fall behind before it starts dropping.
_ANNOUNCE_QUEUE = 256
#: Retired phases between two RSS samples of the high-water mark.
_RSS_SAMPLE_EVERY = 100
#: ``json.loads``' own scanner: ``_scan(text, 0) -> (value, end)``.
_scan = json.scanner.make_scanner(json.JSONDecoder())


def _not_a_source(source: str) -> str:
    return f"{source!r} is not a source vertex of this program"


def _number(value: Any) -> float:
    """*value* as a float if JSON gave a number (a bool is not one)."""
    if value.__class__ is not float and value.__class__ is not int:
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _line_error(text: str, sources: AbstractSet[str]) -> str:
    """Why the stripped NDJSON line *text* is not an event for one of
    *sources*: the first rule it breaks, in the order they are checked."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return f"bad NDJSON event: {exc}"
    if not isinstance(obj, dict):
        return f"NDJSON event must be an object, got {type(obj).__name__}"
    try:
        ts = _number(obj["timestamp"])
        source = obj["source"]
    except (KeyError, TypeError, OverflowError) as exc:
        return f"NDJSON event needs numeric 'timestamp' and 'source': {exc}"
    try:
        arrival = _number(obj.get("arrival", ts))
    except (TypeError, OverflowError) as exc:
        return f"bad 'arrival': {exc}"
    if not math.isfinite(arrival):  # it would hold the watermark there
        field = "arrival" if "arrival" in obj else "timestamp"
        return f"bad {field!r}: {arrival} is not finite"
    if not isinstance(source, str) or not source:
        return "Event.source must be a non-empty string"
    return _not_a_source(source)


@dataclass(frozen=True)
class Ingested:
    """What one :meth:`ServeSession.offer_body` call did.

    ``accepted`` / ``late`` / ``sealed`` count the events and phases of
    the lines ingested.  At most one of ``bad_line`` (the 1-based body
    line that is not an event; ``error`` says why) and ``rejected_line``
    (the line the full reorder buffer refused; resend from it after a
    backoff) is set; 0 means the whole body was ingested.
    """

    accepted: int
    late: int
    sealed: int
    bad_line: int = 0
    rejected_line: int = 0
    error: str = ""


def current_rss_bytes() -> int:
    """This process's resident set size in bytes (0 if unreadable).

    Prefers ``/proc/self/status`` (current RSS); falls back to
    ``resource.getrusage`` (peak RSS — still a valid high-water source),
    whose ``ru_maxrss`` is in KiB on Linux but in bytes on macOS.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        unit = 1 if sys.platform == "darwin" else 1024
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * unit
    except Exception:
        return 0


def _jsonable(value: Any) -> Any:
    """*value* if JSON-encodable, else its ``repr``."""
    try:
        json.dumps(value, sort_keys=True)
        return value
    except (TypeError, ValueError):
        return repr(value)


def phase_frame(
    phase: int,
    timestamp: float,
    entries: List[Tuple[str, Any]],
    spot_check: Optional[bool] = None,
) -> str:
    """The SSE ``phase`` message for one retired phase.

    Serialised in a single pass; only when a record value turns out not
    to be JSON-encodable is that value replaced by its ``repr`` and the
    frame redone, so an exotic payload can never fail the engine run.
    """
    payload: Dict[str, Any] = {
        "phase": phase,
        "timestamp": timestamp,
        "records": entries,
    }
    if spot_check is not None:
        payload["spot_check"] = "pass" if spot_check else "fail"
    try:
        return format_sse(payload, event="phase", id=str(phase))
    except (TypeError, ValueError):
        payload["records"] = [[name, _jsonable(v)] for name, v in entries]
        return format_sse(payload, event="phase", id=str(phase))


class OracleSpotChecker:
    """Compare sampled retired phases against a live serial replica.

    The replica executes **every** admitted phase (its vertex state is
    cumulative; sampling only the comparison keeps the check O(phases)
    while retiring the replica's own per-phase state immediately), and
    every ``sample_every``-th phase's records are compared entry-for-entry
    with what the engine streamed out.
    """

    def __init__(
        self,
        program: Program,
        sample_every: int = 100,
        max_mismatches_kept: int = 8,
    ) -> None:
        if sample_every < 1:
            raise ServeError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = sample_every
        replica = copy.deepcopy(program)
        replica.reset()
        self._runtime = PairRuntime(replica, [], stream_records=True)
        self._order = replica.numbering.index_of
        self._max_mismatches_kept = max_mismatches_kept
        self.checked = 0
        self.passed = 0
        self.failed = 0
        self.mismatches: List[Dict[str, Any]] = []

    def _canonical(
        self, entries: List[Tuple[str, Any]]
    ) -> List[Tuple[str, Any]]:
        # Stable sort by vertex index: engine commit order is
        # nondeterministic across vertices but per-vertex record order is
        # preserved, which is exactly what a stable index sort compares.
        return sorted(entries, key=lambda e: self._order[e[0]])

    def observe(
        self, pi: PhaseInput, entries: List[Tuple[str, Any]]
    ) -> Optional[bool]:
        """Feed phase *pi* to the replica; compare when sampled.

        Returns ``None`` when the phase was executed but not sampled,
        else the comparison verdict.
        """
        self._runtime.register_phase(pi)
        p = pi.phase
        run_phase(self._runtime, p)
        _, expected = self._runtime.retire_phase(p)
        if p % self.sample_every != 0:
            return None
        self.checked += 1
        want = self._canonical(expected)
        got = self._canonical(entries)
        if got == want:
            self.passed += 1
            return True
        self.failed += 1
        if len(self.mismatches) < self._max_mismatches_kept:
            self.mismatches.append(
                {"phase": p, "expected": want, "got": got}
            )
        return False


@dataclass
class ServeConfig:
    """Knobs for one :class:`ServeSession` (all stages bounded)."""

    engine: str = "parallel"
    threads: int = 2
    workers: int = 2
    wait: float = 2.0
    quantum: float = 1.0
    max_buffered: Optional[int] = 64
    feed_capacity: int = 64
    check_sample: int = 0  # compare every Nth retired phase (0 = off)
    stats_every: int = 0  # announce a stats SSE event every N phases
    join_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ServeError(
                f"engine must be one of {_ENGINES}, got {self.engine!r}"
            )
        for name in ("check_sample", "stats_every"):
            if getattr(self, name) < 0:
                raise ServeError(f"{name} must be >= 0")
        if self.feed_capacity < 1:
            raise ServeError("feed_capacity must be >= 1")
        if self.join_timeout <= 0:
            raise ServeError("join_timeout must be > 0")


class ServeSession:
    """One continuously operating engine behind an ingest doorstep.

    Lifecycle: construct, :meth:`start`, then any number of
    :meth:`offer` / :meth:`offer_body` / :meth:`advance_watermark`
    calls (one producer thread at a time holds the ingest lock), then
    :meth:`close`.  Usable as a context manager.  *on_retired(phase,
    timestamp, entries)* sees each retired phase once, in phase order, on
    the thread that retired it (the module docstring's contract).
    """

    def __init__(
        self,
        program: Program,
        config: Optional[ServeConfig] = None,
        on_retired: Optional[
            Callable[[int, float, List[Tuple[str, Any]]], None]
        ] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self._on_retired = on_retired
        cfg = self.config
        self.program = program
        self.buffer = ReorderBuffer(
            wait=cfg.wait,
            quantum=cfg.quantum,
            max_buffered=cfg.max_buffered,
            max_late_kept=_MAX_LATE_KEPT,
        )
        self.feed = PhaseFeed(capacity=cfg.feed_capacity)
        self.announcer = MessageAnnouncer(max_queue=_ANNOUNCE_QUEUE)
        self.checker: Optional[OracleSpotChecker] = (
            OracleSpotChecker(program, sample_every=cfg.check_sample)
            if cfg.check_sample
            else None
        )
        self._engine = self._build_engine()
        self._order = program.numbering.index_of
        # An event for any other name would be counted, could seal a
        # phase of its own, and then be read by no vertex.
        self._sources = frozenset(program.source_names())
        self._stop = threading.Event()
        self._ingest_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending_inputs: Dict[int, PhaseInput] = {}
        self._engine_thread: Optional[threading.Thread] = None
        self._engine_error: Optional[BaseException] = None
        self.result = None  # RunResult once closed
        self._started = False
        self._closed = False
        self.phases_ingested = 0
        self.phases_retired = 0
        self.results_streamed = 0
        self.backpressure_rejects = 0
        self.rss_high_water = current_rss_bytes()

    # -- wiring ------------------------------------------------------------

    def _build_engine(self):
        cfg = self.config
        if cfg.engine == "parallel":
            return ParallelEngine(
                self.program,
                num_threads=cfg.threads,
                max_in_flight_phases=ADAPTIVE_RUN_CEILING,
                join_timeout=cfg.join_timeout,
            )
        from ..runtime.mp.engine import ProcessEngine

        return ProcessEngine(
            self.program,
            num_workers=cfg.workers,
            max_in_flight_phases=ADAPTIVE_RUN_CEILING,
            join_timeout=cfg.join_timeout,
        )

    def start(self) -> "ServeSession":
        if self._started:
            raise ServeError("session already started")
        self._started = True
        self._engine_thread = threading.Thread(
            target=self._engine_main, name="serve-engine", daemon=True
        )
        self._engine_thread.start()
        return self

    def __enter__(self) -> "ServeSession":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close(drain=True)
        else:
            try:
                self.close(drain=False)
            except Exception:
                pass  # the original exception matters more

    def _engine_main(self) -> None:
        try:
            self.result = self._engine.run_feed(
                self.feed,
                sink=self._sink,
                retire=True,
                stop_event=self._stop,
            )
        except BaseException as exc:  # surface at close()
            self._engine_error = exc
        finally:
            self.feed.close()  # unblock any producer parked in feed.put

    # -- retire path (engine -> SSE) ----------------------------------------

    def _sink(
        self, phase: int, ts: float, entries: List[Tuple[str, Any]]
    ) -> None:
        # Called by the retiring engine thread, inside its critical
        # section (the module docstring's delivery contract).
        cfg = self.config
        entries.sort(key=lambda e: self._order[e[0]])
        self.phases_retired += 1
        verdict: Optional[bool] = None
        if self.checker is not None:
            with self._pending_lock:
                pi = self._pending_inputs.pop(phase, None)
            if pi is None:
                pi = PhaseInput(phase, ts, {})
            verdict = self.checker.observe(pi, entries)
        if self._on_retired is not None:
            self._on_retired(phase, ts, entries)
        self.announcer.announce(lambda: phase_frame(phase, ts, entries, verdict))
        self.results_streamed += 1
        if self.phases_retired % _RSS_SAMPLE_EVERY == 0:
            rss = current_rss_bytes()
            if rss > self.rss_high_water:
                self.rss_high_water = rss
        if cfg.stats_every and self.phases_retired % cfg.stats_every == 0:
            self.announcer.announce(lambda: format_sse(self.stats(), event="stats"))

    # -- ingest path -------------------------------------------------------

    def _require_open(self) -> None:
        if not self._started:
            raise ServeError("session not started")
        if self._closed:
            raise ServeError("session closed")
        if self._engine_error is not None:
            raise ServeError(
                f"engine failed: {self._engine_error!r}"
            ) from self._engine_error

    def _admit(self, sealed: List[PhaseInput]) -> None:
        if not sealed:
            return
        if self.checker is not None:
            with self._pending_lock:
                for pi in sealed:
                    self._pending_inputs[pi.phase] = pi
        # Counted first: a lone phase may retire inside the put.
        self.phases_ingested += len(sealed)
        try:
            self.feed.put(sealed)  # blocks when the engine is behind
        except BaseException:
            self.phases_ingested -= len(sealed)
            raise

    def _ingest(
        self, rows: List[Row]
    ) -> Tuple[int, int, int, int, Optional[Exception]]:
        """Bin *rows* and admit what they seal, under one ingest-lock
        hold: ``(accepted, late, sealed, taken, refusal)`` as
        :meth:`ReorderBuffer.offer_rows` counts them."""
        self._require_open()
        buffer = self.buffer
        with self._ingest_lock:
            accepted, late = buffer.accepted, buffer.late_count
            sealed, taken, refusal = buffer.offer_rows(rows)
            if isinstance(refusal, BackpressureError):
                self.backpressure_rejects += 1
            self._admit(sealed)
            accepted, late = buffer.accepted - accepted, buffer.late_count - late
        return accepted, late, len(sealed), taken, refusal

    def offer(self, arriving: ArrivingEvent) -> Dict[str, Any]:
        """Ingest one arrival.

        Returns ``{"accepted", "late", "sealed"}``.  Raises
        :class:`~repro.errors.BackpressureError` (counted) when the
        bounded reorder buffer is full — producers should retry after
        a backoff — and :class:`~repro.errors.ServeError` for an event
        addressed to a name that is not one of the program's source
        vertices.
        """
        event = arriving.event
        if event.source not in self._sources:
            raise ServeError(_not_a_source(event.source))
        accepted, late, sealed, _, refusal = self._ingest(
            [(event.timestamp, event.source, event.value, arriving.arrival)]
        )
        if refusal is not None:
            raise refusal
        return {"accepted": bool(accepted), "late": bool(late), "sealed": sealed}

    def offer_body(self, body: str) -> Ingested:
        """Ingest one NDJSON body — one ``POST /events``, or one read of
        a replayed file — as one admission.

        Wire shape, one event per line: ``{"timestamp": t, "source":
        name, "value": v}``, *t* a JSON number, with optional ``"arrival"``
        (a finite JSON number; defaults to *t*; clamped to be no earlier);
        blank lines are skipped.  Lines are taken in order until the first
        one that is not an event addressed to a source vertex (``bad_line``)
        or that the full reorder buffer refuses (``rejected_line``, counted as
        :meth:`offer` counts a :class:`~repro.errors.BackpressureError`);
        everything before it is ingested exactly as one :meth:`offer`
        per line would have, and every phase the body sealed reaches the
        engine in one :meth:`PhaseFeed.put`.  Raises
        :class:`~repro.errors.ServeError` when the session is not open
        (not started, closed, or its engine failed).
        """
        rows: List[Row] = []
        line_of: List[int] = []  # the body line of each row
        bad_line, bad_text = 0, ""
        sources = self._sources
        # Lines end at "\n" alone (strip() drops a "\r"): U+2028, U+2029
        # and U+0085 may stand raw inside a JSON string.
        for lineno, line in enumerate(body.split("\n"), start=1):
            text = line.strip()
            if not text:
                continue
            # The C scanner json.loads itself runs, minus its wrapper; any
            # line it does not read as exactly one event goes to
            # _line_error for the message.
            try:
                obj, end = _scan(text, 0)
                ts = _number(obj["timestamp"])
                source = obj["source"]
                arrival = _number(obj.get("arrival", ts))
                # Finite, in one comparison: inf - inf and NaN - NaN are NaN.
                known = (
                    end == len(text) and source in sources
                    and arrival - arrival == 0.0
                )
            except (StopIteration, KeyError, TypeError, ValueError, OverflowError):
                known = False
            if not known:
                bad_line, bad_text = lineno, text
                break
            rows.append(
                (ts, source, obj.get("value"), ts if ts > arrival else arrival)
            )
            line_of.append(lineno)
        accepted = late = sealed = taken = 0
        refusal: Optional[Exception] = None
        if rows:
            accepted, late, sealed, taken, refusal = self._ingest(rows)
        if isinstance(refusal, BackpressureError):
            return Ingested(accepted, late, sealed, rejected_line=line_of[taken])
        if refusal is not None:
            return Ingested(
                accepted, late, sealed, bad_line=line_of[taken],
                error=f"bad 'timestamp': {refusal}",
            )
        if bad_line:
            return Ingested(
                accepted, late, sealed, bad_line=bad_line,
                error=_line_error(bad_text, sources),
            )
        return Ingested(accepted, late, sealed)

    def advance_watermark(self, to: float) -> int:
        """Force the ingest watermark to *to* (wall-clock sealing); the
        way a quiet stream keeps draining and a full bounded buffer
        frees capacity without a producer.  Returns phases sealed."""
        self._require_open()
        with self._ingest_lock:
            sealed = self.buffer.advance_watermark(to)
            self._admit(sealed)
        return len(sealed)

    # -- shutdown ----------------------------------------------------------

    def close(self, drain: bool = True) -> Dict[str, Any]:
        """End the stream and stop the pipeline.

        With ``drain=True`` everything still buffered is flushed, fed,
        executed and announced before the engine exits; with ``drain=False``
        the stop event is set and only in-flight phases complete.
        Returns the final :meth:`stats`; re-raises an engine failure,
        else a refusal of the flushed phases other than a closed feed's
        (which only a failed engine closes first).
        """
        if not self._started:
            raise ServeError("session never started")
        if self._closed:
            return self.stats()
        self._closed = True
        refused: Optional[ServeError] = None
        if drain and self._engine_error is None:
            with self._ingest_lock:
                try:
                    self._admit(self.buffer.flush())
                except ServeError as exc:
                    if not self.feed.closed:
                        refused = exc  # raised once the engine has stopped
        else:
            self._stop.set()
        self.feed.close()
        assert self._engine_thread is not None
        self._engine_thread.join(timeout=self.config.join_timeout)
        if self._engine_thread.is_alive():
            raise ServeError("serve pipeline failed to stop in time")
        if self._engine_error is not None:
            raise self._engine_error
        if refused is not None:
            raise refused
        rss = current_rss_bytes()
        if rss > self.rss_high_water:
            self.rss_high_water = rss
        return self.stats()

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The serve-layer counters plus the inner engine result (once
        finished).  ``stats["serve"]`` is the schema-validated section."""
        serve: Dict[str, Any] = {
            "engine": self.config.engine,
            "phases_ingested": self.phases_ingested,
            "phases_retired": self.phases_retired,
            "results_streamed": self.results_streamed,
            "events_accepted": self.buffer.accepted,
            "late_events": self.buffer.late_count,
            "buffer_rejects": self.backpressure_rejects,
            "feed_stalls": self.feed.put_stalls,
            "backpressure_stalls": (
                self.backpressure_rejects + self.feed.put_stalls
            ),
            "buffer_high_water": self.buffer.pending_high_water,
            "feed_high_water": self.feed.high_water,
            "rss_high_water_bytes": self.rss_high_water,
            "sse_dropped": self.announcer.dropped,
            "spot_checks_passed": (
                self.checker.passed if self.checker is not None else 0
            ),
            "spot_checks_failed": (
                self.checker.failed if self.checker is not None else 0
            ),
        }
        out: Dict[str, Any] = {"serve": serve}
        if self.result is not None:
            out["engine"] = {
                "label": self.result.engine,
                "stats": self.result.stats,
            }
        return out
