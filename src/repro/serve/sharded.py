"""Continuous operation across key shards.

:class:`ShardedServeSession` composes PR 7's keyed sharding with the
serve pipeline: the program is :func:`~repro.sharding.plan.split_by_key`
into per-shard replicas, each replica runs inside its **own**
:class:`~repro.serve.session.ServeSession` (own reorder buffer, own
watermark, own engine, own retirement), and retired phases meet again in
a :class:`~repro.sharding.merge.WatermarkMerger` that emits globally
phase-ordered output exactly as the single instance would.

Memory stays bounded per shard (each stage of each shard pipeline has a
cap) and in the merge (a timestamp buffers only until every shard's
retired watermark passes it).  A shard that owns no recent traffic holds
the merge back until its watermark advances — the same alignment rule as
batch-mode sharding; :meth:`close` finishes the merge.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..errors import ServeError
from ..ingest import ArrivingEvent
from ..core.program import Program
from ..sharding.merge import MergedPhase, WatermarkMerger
from ..sharding.plan import ShardPlan, split_by_key
from .session import ServeConfig, ServeSession, phase_frame
from .sse import MessageAnnouncer

__all__ = ["ShardedServeSession"]


class ShardedServeSession:
    """One serve pipeline per key shard plus a watermark-aligned merge.

    *key_of* maps a **source vertex name** to its key (the same function
    handed to :func:`split_by_key`); events route by their target source.
    Shards that own no keys are skipped entirely.
    """

    def __init__(
        self,
        program: Program,
        key_of: Callable[[str], Hashable],
        num_shards: int,
        config: Optional[ServeConfig] = None,
    ) -> None:
        if num_shards < 1:
            raise ServeError(f"num_shards must be >= 1, got {num_shards}")
        self.config = config or ServeConfig()
        self.plan: ShardPlan = split_by_key(program, key_of, num_shards)
        self._key_of = key_of
        self._shard_of_source: Dict[str, int] = {
            s: self.plan.assignment[k]
            for s, k in self.plan.key_of_source.items()
        }
        self.sessions: List[Optional[ServeSession]] = []
        self._active: List[int] = []
        for i, sub in enumerate(self.plan.programs):
            if sub is None:
                self.sessions.append(None)
                continue
            self._active.append(i)
            self.sessions.append(
                ServeSession(
                    sub,
                    replace(self.config),
                    on_retired=self._make_merge_hook(i),
                )
            )
        if not self._active:
            raise ServeError("no shard owns any key")
        self.merger = WatermarkMerger(len(self._active))
        self._merge_index = {shard: j for j, shard in enumerate(self._active)}
        self._merge_lock = threading.Lock()
        self.announcer = MessageAnnouncer(max_queue=self.config.announce_queue)
        self.merged: int = 0
        self._started = False
        self._closed = False

    # -- merge path --------------------------------------------------------

    def _make_merge_hook(self, shard: int):
        slot = None  # resolved lazily: _merge_index exists after __init__

        def hook(
            phase: int, ts: float, entries: List[Tuple[str, Any]]
        ) -> None:
            nonlocal slot
            if slot is None:
                slot = self._merge_index[shard]
            with self._merge_lock:
                released = self.merger.offer(slot, ts, list(entries))
                self._announce(released)

        return hook

    def _announce(self, released: List[MergedPhase]) -> None:
        # Called with the merge lock held: merged phase order is the
        # announcement order.
        for mp in released:
            self.merged += 1
            self.announcer.announce(
                phase_frame(mp.phase, mp.timestamp, mp.entries)
            )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardedServeSession":
        if self._started:
            raise ServeError("session already started")
        self._started = True
        for i in self._active:
            self.sessions[i].start()
        return self

    def __enter__(self) -> "ShardedServeSession":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close(drain=True)
        else:
            try:
                self.close(drain=False)
            except Exception:
                pass

    def _route(self, source: str) -> int:
        shard = self._shard_of_source.get(source)
        if shard is None:
            raise ServeError(
                f"event for unknown source {source!r} "
                f"(known: {sorted(self._shard_of_source)[:5]}...)"
            )
        return shard

    def offer(self, arriving: ArrivingEvent) -> Dict[str, Any]:
        """Route one arrival to its key's shard; same reply shape as
        :meth:`ServeSession.offer` plus the shard index."""
        if not self._started or self._closed:
            raise ServeError("session not running")
        shard = self._route(arriving.event.source)
        out = self.sessions[shard].offer(arriving)
        out["shard"] = shard
        return out

    def offer_line(self, line: str) -> Dict[str, Any]:
        """NDJSON ingest (same wire shape as the single instance)."""
        text = line.strip()
        if not text:
            raise ServeError("empty event line")
        try:
            obj = json.loads(text)
            source = obj["source"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ServeError(f"bad NDJSON event: {exc}") from exc
        if not isinstance(source, str):
            raise ServeError("NDJSON 'source' must be a string")
        shard = self._route(source)
        out = self.sessions[shard].offer_line(line)
        out["shard"] = shard
        return out

    def advance_watermark(self, to: float) -> int:
        """Advance every shard's ingest watermark (wall-clock sealing)."""
        if not self._started or self._closed:
            raise ServeError("session not running")
        return sum(
            self.sessions[i].advance_watermark(to) for i in self._active
        )

    def close(self, drain: bool = True) -> Dict[str, Any]:
        """Close every shard pipeline, finish the merge, return stats."""
        if not self._started:
            raise ServeError("session never started")
        if self._closed:
            return self.stats()
        self._closed = True
        first_error: Optional[BaseException] = None
        for i in self._active:
            try:
                # close() joins the shard's emit thread, so every retired
                # phase has passed through the merge hook after this.
                self.sessions[i].close(drain=drain)
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        with self._merge_lock:
            self._announce(self.merger.finish())
        if first_error is not None:
            raise first_error
        return self.stats()

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Aggregated serve counters, per-shard sections, merge stats."""
        shard_stats = {
            i: self.sessions[i].stats()["serve"] for i in self._active
        }
        summed = (
            "phases_ingested",
            "phases_retired",
            "results_streamed",
            "events_accepted",
            "late_events",
            "buffer_rejects",
            "feed_stalls",
            "backpressure_stalls",
            "spot_checks_passed",
            "spot_checks_failed",
        )
        serve: Dict[str, Any] = {
            "engine": self.config.engine,
            **{k: sum(s[k] for s in shard_stats.values()) for k in summed},
            "buffer_high_water": max(
                s["buffer_high_water"] for s in shard_stats.values()
            ),
            "feed_high_water": max(
                s["feed_high_water"] for s in shard_stats.values()
            ),
            "rss_high_water_bytes": max(
                s["rss_high_water_bytes"] for s in shard_stats.values()
            ),
            "sse_dropped": self.announcer.dropped,
        }
        return {
            "serve": serve,
            "sharding": {
                "num_shards": self.plan.num_shards,
                "active_shards": list(self._active),
                "phases_merged": self.merged,
                **self.merger.stats(),
                "per_shard": shard_stats,
            },
        }
