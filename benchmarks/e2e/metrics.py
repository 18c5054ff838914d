"""Metric names, units and directions — the same lists BENCHMARK.json carries
(``--quick`` asserts the two agree), plus the derivation of every per-layer
metric from one traced round.

A per-layer value is ``None`` when it cannot be measured: the layer's probe
no longer resolves (``Tracer.missing`` says why) or the layer does not run
on that workload.  ``None`` is printed as ``n/a`` with its reason and sent
to the driver as 0.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, List, Optional, Tuple

# name, unit, better
END_TO_END: List[Tuple[str, str, str]] = [
    ("events_per_s", "events/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]

PER_LAYER: List[Tuple[str, str, str]] = [
    ("serve.server.post_ms", "ms", "lower"),
    ("serve.server.post_open_ms", "ms", "lower"),
    ("serve.server.overhead_ms", "ms", "lower"),
    ("serve.server.http_429", "count", "lower"),
    ("serve.session.offer_line_us", "us", "lower"),
    ("serve.session.feed_stalls", "count", "lower"),
    ("serve.session.buffer_rejects", "count", "lower"),
    # The tail of the end-to-end latency samples.  Demoted from the
    # end-to-end list by the A/A calibration (spread 36-217 %, see README).
    ("serve.session.latency_p99_ms", "ms", "lower"),
    ("serve.session.self_share", "share", "lower"),
    ("serve.sse.format_us", "us", "lower"),
    ("serve.sse.announce_us", "us", "lower"),
    ("serve.sse.dropped", "count", "lower"),
    ("serve.sse.self_share", "share", "lower"),
    ("ingest.offer_us", "us", "lower"),
    ("ingest.late_share", "share", "lower"),
    ("ingest.pending_high_water", "count", "lower"),
    ("ingest.self_share", "share", "lower"),
    ("runtime.feed.put_blocked_share", "share", "lower"),
    ("runtime.feed.high_water", "count", "lower"),
    ("core.plan.compile_ms", "ms", "lower"),
    ("core.plan.stages", "count", "lower"),
    ("core.state.lock_acq_per_phase", "1/phase", "lower"),
    ("core.state.lock_wait_share", "share", "lower"),
    ("core.state.lock_hold_share", "share", "lower"),
    ("core.state.claim_us", "us", "lower"),
    ("core.state.complete_us", "us", "lower"),
    ("core.state.mean_run_length", "count", "higher"),
    ("core.state.elided_share", "share", "higher"),
    ("core.state.max_phase_skew", "count", "higher"),
    ("core.state.self_share", "share", "lower"),
    ("core.program.prepare_us", "us", "lower"),
    ("core.program.compute_us", "us", "lower"),
    ("core.program.commit_us", "us", "lower"),
    ("core.program.retire_us", "us", "lower"),
    ("core.program.self_share", "share", "lower"),
    ("runtime.engine.glue_share", "share", "lower"),
    ("runtime.engine.blocked_gets_per_phase", "1/phase", "lower"),
    ("runtime.engine.worker_balance", "share", "higher"),
    ("runtime.mp.round_trips_per_phase", "1/phase", "lower"),
    ("runtime.mp.wire_bytes_per_phase", "B/phase", "lower"),
    ("runtime.mp.encode_us", "us", "lower"),
    ("runtime.mp.decode_us", "us", "lower"),
    ("runtime.mp.commit_remote_us", "us", "lower"),
    ("runtime.mp.worker_utilization", "share", "higher"),
    ("runtime.mp.interner_hit_share", "share", "higher"),
    ("runtime.mp.spawn_ms", "ms", "lower"),
    ("runtime.mp.self_share", "share", "lower"),
    ("core.serial.events_per_s", "events/s", "higher"),
    ("speedup_vs_serial", "x", "higher"),
    ("bench.gen_late_share", "share", "lower"),
    ("bench.gen_max_lag_ms", "ms", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.steal_share", "share", "lower"),
]

# Spans whose self time is waiting (a blocked join, an idle poll, a full
# feed), not work: reported, but kept out of the busy-time shares.
WAIT_SPANS = {
    "runtime.engine.run",
    "runtime.feed.get",
    "runtime.feed.put",
    "runtime.mp.collect",
}
SHARE_LAYERS = [
    "serve.session",
    "serve.sse",
    "ingest",
    "core.state",
    "core.program",
    "runtime.mp",
]


def _get(doc: Any, *path: str) -> Any:
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or not den:
        return None
    return num / den


def busy_self_us(spans: Dict[str, Dict[str, float]], worker_busy_us: float) -> Dict[str, float]:
    """Busy self time per layer: span self times (waits excluded) plus the
    workers' compute seconds, which only the engine's own counter sees."""
    out = {layer: 0.0 for layer in SHARE_LAYERS}
    for name, agg in spans.items():
        layer = name.rsplit(".", 1)[0]
        if name not in WAIT_SPANS and layer in out:
            out[layer] += agg["self_us"]
    out["core.program"] += worker_busy_us
    return out


def per_layer(round_: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Every trace- and counter-derived PER_LAYER metric of one traced
    round (``serve.session.latency_p99_ms``, ``core.serial.*``,
    ``speedup_vs_serial``, ``bench.trace_overhead_share`` and
    ``bench.steal_share`` need other rounds; the caller adds them)."""
    spans: Dict[str, Dict[str, float]] = _get(round_, "trace", "spans") or {}
    threads: Dict[str, Dict[str, float]] = _get(round_, "trace", "threads") or {}
    serve = round_.get("serve_stats") or {}
    engine = round_.get("engine_stats") or {}
    phases = round_.get("phases") or 0
    run_wall_s = round_.get("engine_wall_s")
    if run_wall_s is None:  # over HTTP only the run span knows
        run_wall_s = _ratio((spans.get("runtime.engine.run") or {}).get("total_us"), 1e6)

    def per_call(name: str, field: str = "self_us") -> Optional[float]:
        agg = spans.get(name)
        return agg[field] / agg["calls"] if agg and agg["calls"] else None

    def total(name: str) -> Optional[float]:
        agg = spans.get(name)
        return agg["total_us"] if agg else None

    m: Dict[str, Optional[float]] = {}

    # Closed loop: back-to-back POSTs, what events_per_s is made of.  Open
    # loop: the same POST with idle gaps between requests.
    posts = round_.get("post_ms") or []
    open_posts = round_.get("post_open_ms") or []
    m["serve.server.post_ms"] = median(posts) if posts else None
    m["serve.server.post_open_ms"] = median(open_posts) if open_posts else None
    in_session = _ratio(
        total("serve.session.offer_line"), (len(posts) + len(open_posts)) * 1e3
    )
    m["serve.server.overhead_ms"] = (
        m["serve.server.post_ms"] - in_session
        if posts and in_session is not None
        else None
    )
    m["serve.server.http_429"] = round_.get("http_429")
    m["serve.session.offer_line_us"] = per_call("serve.session.offer_line")
    m["serve.session.feed_stalls"] = serve.get("feed_stalls")
    m["serve.session.buffer_rejects"] = serve.get("buffer_rejects")
    m["serve.sse.format_us"] = per_call("serve.sse.format")
    m["serve.sse.announce_us"] = per_call("serve.sse.announce")
    m["serve.sse.dropped"] = serve.get("sse_dropped")
    m["ingest.offer_us"] = per_call("ingest.offer")
    if serve:
        offered = serve["events_accepted"] + serve["late_events"]
        m["ingest.late_share"] = _ratio(serve["late_events"], offered)
    else:
        m["ingest.late_share"] = None
    m["ingest.pending_high_water"] = serve.get("buffer_high_water")
    m["runtime.feed.put_blocked_share"] = _ratio(
        total("runtime.feed.put"), (round_.get("generator_wall_s") or 0) * 1e6
    )
    m["runtime.feed.high_water"] = serve.get("feed_high_water")
    m["core.plan.compile_ms"] = _ratio(total("core.plan.compile"), 1e3)
    m["core.plan.stages"] = round_.get("stages")

    lock = engine.get("lock") or {}
    m["core.state.lock_acq_per_phase"] = _ratio(lock.get("acquisitions"), phases)
    # Of the wall time of the threads that take the lock (the coordinator
    # alone on the process backend).
    lockers = (engine.get("num_threads") or 1) * (run_wall_s or 0)
    m["core.state.lock_wait_share"] = _ratio(lock.get("total_wait_time"), lockers)
    m["core.state.lock_hold_share"] = _ratio(lock.get("total_hold_time"), lockers)
    m["core.state.claim_us"] = per_call("core.state.claim")
    m["core.state.complete_us"] = per_call("core.state.complete")
    m["core.state.mean_run_length"] = _get(engine, "coalescing", "mean_run_length")
    elided = _get(engine, "suppression", "elided_executions")
    executed = sum((engine.get("per_worker_executions") or {}).values())
    m["core.state.elided_share"] = (
        _ratio(elided, elided + executed) if elided is not None else None
    )
    m["core.state.max_phase_skew"] = _get(engine, "frontier", "max_phase_skew")

    # Process backends compute in the workers, which only their own
    # busy-seconds counter sees; threaded compute is a span.
    utilization = engine.get("per_worker_utilization")
    worker_busy_us = 0.0
    if utilization and run_wall_s:
        worker_busy_us = sum(utilization.values()) * run_wall_s * 1e6
        m["core.program.compute_us"] = _ratio(worker_busy_us, executed)
        m["runtime.mp.worker_utilization"] = sum(utilization.values()) / len(utilization)
    else:
        m["core.program.compute_us"] = per_call("core.program.compute")
        m["runtime.mp.worker_utilization"] = None
    m["core.program.prepare_us"] = per_call("core.program.prepare")
    m["core.program.commit_us"] = per_call("core.program.commit")
    m["core.program.retire_us"] = per_call("core.program.retire")

    workers = engine.get("num_threads")
    compute_root_us = sum(
        t["root_us"] for name, t in threads.items() if name.startswith("compute-")
    )
    m["runtime.engine.glue_share"] = (
        1.0 - compute_root_us / (workers * run_wall_s * 1e6)
        if workers and run_wall_s and compute_root_us
        else None
    )
    m["runtime.engine.blocked_gets_per_phase"] = _ratio(
        _get(engine, "queue", "blocked_gets"), phases
    )
    counts = list((engine.get("per_worker_executions") or {}).values())
    m["runtime.engine.worker_balance"] = (
        _ratio(min(counts), max(counts)) if counts else None
    )

    m["runtime.mp.round_trips_per_phase"] = _ratio(engine.get("ipc_round_trips"), phases)
    m["runtime.mp.wire_bytes_per_phase"] = _ratio(
        _get(engine, "serialization_bytes", "total_bytes"), phases
    )
    m["runtime.mp.encode_us"] = per_call("runtime.mp.encode")
    m["runtime.mp.decode_us"] = per_call("runtime.mp.decode")
    m["runtime.mp.commit_remote_us"] = per_call("runtime.mp.commit_remote", "total_us")
    interning = _get(engine, "ipc", "interning") or {}
    m["runtime.mp.interner_hit_share"] = _ratio(
        interning.get("hits"), interning.get("hits", 0) + interning.get("misses", 0)
    )
    m["runtime.mp.spawn_ms"] = _ratio(total("runtime.mp.spawn"), 1e3)

    busy = busy_self_us(spans, worker_busy_us)
    all_busy = sum(busy.values())
    for layer in SHARE_LAYERS:
        m[f"{layer}.self_share"] = _ratio(busy[layer], all_busy) if busy[layer] else None

    m["bench.gen_late_share"] = round_.get("gen_late_share")
    m["bench.gen_max_lag_ms"] = round_.get("gen_max_lag_ms")
    return m
