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
* engine — at most ``max_in_flight`` started-but-incomplete phases
  (the environment's flow-control semaphore);
* emit queue — at most ``_EMIT_CAPACITY`` retired-but-unannounced phases
  (overflow blocks the retiring worker briefly; the emit thread never
  takes an engine lock, so this cannot deadlock);
* SSE egress — per-listener queues of ``_ANNOUNCE_QUEUE`` frames that
  *drop* when a consumer stalls (egress must never backpressure the
  engine).

Everything behind those stages is retired: per-phase pairsets, trace
segments, edge entries and completion-log entries are released as the
complete prefix advances, so RSS stays flat over millions of phases.

:class:`OracleSpotChecker` keeps a *persistent* serial replica of the
program (Section 2's one-phase-at-a-time specification) fed with every
admitted phase — vertex state is cumulative, so a window cannot be
replayed from scratch — and compares the engine's retired records against
the replica's on every ``sample_every``-th phase.
"""

from __future__ import annotations

import copy
import json
import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.program import PairRuntime, Program
from ..errors import BackpressureError, ServeError
from ..events import Event, PhaseInput
from ..ingest import ArrivingEvent, ReorderBuffer
from ..runtime.engine import ParallelEngine
from ..runtime.feed import PhaseFeed
from .sse import MessageAnnouncer, format_sse

__all__ = [
    "OracleSpotChecker",
    "ServeConfig",
    "ServeSession",
    "current_rss_bytes",
]

_ENGINES = ("parallel", "process")
#: Late events the reorder buffer keeps for inspection (all are counted).
_MAX_LATE_KEPT = 32
#: Retired-but-unannounced phases between the engine and the emit thread.
_EMIT_CAPACITY = 256
#: Frames one SSE listener may fall behind before it starts dropping.
_ANNOUNCE_QUEUE = 256
#: Retired phases between two RSS samples of the high-water mark.
_RSS_SAMPLE_EVERY = 100


def current_rss_bytes() -> int:
    """This process's resident set size in bytes (0 if unreadable).

    Prefers ``/proc/self/status`` (current RSS); falls back to
    ``resource.getrusage`` (peak RSS — still a valid high-water source).
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

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
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
    frame redone, so an exotic payload can never crash the emit thread.
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
        self._n = replica.n
        self._source_indices = set(replica.numbering.source_indices())
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
        has_message = set(self._source_indices)
        for v in range(1, self._n + 1):
            if v in has_message:
                has_message.update(self._runtime.execute(v, p))
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
    max_in_flight: Optional[int] = 8
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
    :meth:`offer` / :meth:`offer_line` / :meth:`advance_watermark`
    calls (one producer thread at a time holds the ingest lock), then
    :meth:`close`.  Usable as a context manager.
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
        self._stop = threading.Event()
        self._ingest_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending_inputs: Dict[int, PhaseInput] = {}
        self._emit_q: "queue.Queue[Optional[Tuple[int, float, List[Tuple[str, Any]]]]]" = queue.Queue(
            maxsize=_EMIT_CAPACITY
        )
        self._engine_thread: Optional[threading.Thread] = None
        self._emit_thread: Optional[threading.Thread] = None
        self._engine_error: Optional[BaseException] = None
        self._emit_error: Optional[BaseException] = None
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
                max_in_flight_phases=cfg.max_in_flight,
                join_timeout=cfg.join_timeout,
            )
        from ..runtime.mp.engine import ProcessEngine

        return ProcessEngine(
            self.program,
            num_workers=cfg.workers,
            max_in_flight_phases=cfg.max_in_flight,
            join_timeout=cfg.join_timeout,
        )

    def start(self) -> "ServeSession":
        if self._started:
            raise ServeError("session already started")
        self._started = True
        self._emit_thread = threading.Thread(
            target=self._emit_main, name="serve-emit", daemon=True
        )
        self._emit_thread.start()
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
            # Unblock any producer parked in feed.put, then stop the
            # emit thread once everything retired so far is announced.
            self.feed.close()
            self._emit_q.put(None)

    # -- retire path (engine -> emit thread -> SSE) ------------------------

    def _sink(
        self, phase: int, ts: float, entries: List[Tuple[str, Any]]
    ) -> None:
        # Called inside the engine's commit critical section: only a
        # bounded blocking handoff, never real work.  The emit thread
        # takes no engine lock, so a full queue stalls the worker
        # briefly but cannot deadlock.
        self._emit_q.put((phase, ts, entries))

    def _emit_main(self) -> None:
        try:
            while True:
                item = self._emit_q.get()
                if item is None:
                    break
                self._emit_one(*item)
        except BaseException as exc:
            self._emit_error = exc
            self._stop.set()  # a dead emitter must stop the engine too

    def _emit_one(
        self, phase: int, ts: float, entries: List[Tuple[str, Any]]
    ) -> None:
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
            # The in-process sink hook; an exception here is an emitter
            # failure (it propagates to _emit_main's handler).
            self._on_retired(phase, ts, entries)
        self.announcer.announce(phase_frame(phase, ts, entries, verdict))
        self.results_streamed += 1
        if self.phases_retired % _RSS_SAMPLE_EVERY == 0:
            rss = current_rss_bytes()
            if rss > self.rss_high_water:
                self.rss_high_water = rss
        if cfg.stats_every and self.phases_retired % cfg.stats_every == 0:
            self.announcer.announce(format_sse(self.stats(), event="stats"))

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
        if self._emit_error is not None:
            raise ServeError(
                f"result emitter failed: {self._emit_error!r}"
            ) from self._emit_error

    def _admit(self, sealed: List[PhaseInput]) -> None:
        for pi in sealed:
            if self.checker is not None:
                with self._pending_lock:
                    self._pending_inputs[pi.phase] = pi
            self.feed.put(pi)  # blocks when the engine is behind
            self.phases_ingested += 1

    def offer(self, arriving: ArrivingEvent) -> Dict[str, Any]:
        """Ingest one arrival.

        Returns ``{"accepted", "late", "sealed"}``.  Raises
        :class:`~repro.errors.BackpressureError` (counted) when the
        bounded reorder buffer is full — producers should retry after
        a backoff, or the HTTP front end turns it into a 429.
        """
        self._require_open()
        with self._ingest_lock:
            late_before = self.buffer.late_count
            try:
                sealed = self.buffer.offer(arriving)
            except BackpressureError:
                self.backpressure_rejects += 1
                raise
            late = self.buffer.late_count > late_before
            self._admit(sealed)
        return {"accepted": not late, "late": late, "sealed": len(sealed)}

    def offer_line(self, line: str) -> Dict[str, Any]:
        """Ingest one NDJSON event line.

        Wire shape: ``{"timestamp": t, "source": name, "value": v}`` with
        optional ``"arrival"`` (defaults to the timestamp; clamped to be
        no earlier than it).
        """
        text = line.strip()
        if not text:
            raise ServeError("empty event line")
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise ServeError(f"bad NDJSON event: {exc}") from exc
        if not isinstance(obj, dict):
            raise ServeError(
                f"NDJSON event must be an object, got {type(obj).__name__}"
            )
        try:
            ts = float(obj["timestamp"])
            source = obj["source"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(
                f"NDJSON event needs numeric 'timestamp' and 'source': {exc}"
            ) from exc
        try:
            arrival = float(obj.get("arrival", ts))
        except (TypeError, ValueError) as exc:
            raise ServeError(f"bad 'arrival': {exc}") from exc
        try:
            event = Event(ts, source, obj.get("value"))
        except ValueError as exc:
            raise ServeError(str(exc)) from exc
        return self.offer(ArrivingEvent(event, arrival=max(arrival, ts)))

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
        Returns the final :meth:`stats`; re-raises an engine failure.
        """
        if not self._started:
            raise ServeError("session never started")
        if self._closed:
            return self.stats()
        self._closed = True
        if drain and self._engine_error is None:
            with self._ingest_lock:
                try:
                    self._admit(self.buffer.flush())
                except ServeError:
                    pass  # feed already closed by a dying engine
        else:
            self._stop.set()
        self.feed.close()
        timeout = self.config.join_timeout
        assert self._engine_thread is not None
        assert self._emit_thread is not None
        self._engine_thread.join(timeout=timeout)
        self._emit_thread.join(timeout=timeout)
        if self._engine_thread.is_alive() or self._emit_thread.is_alive():
            raise ServeError("serve pipeline failed to stop in time")
        if self._engine_error is not None:
            raise self._engine_error
        if self._emit_error is not None:
            raise self._emit_error
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
