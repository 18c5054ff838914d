"""Result statistics and table rendering for the benchmark harness.

Benchmarks print fixed-width tables (the paper's evaluation is prose plus
figures; the tables here are what its Section 4 rows would look like) —
:func:`format_table` keeps them consistent across benches.

Stats schema
------------
Every scheduling engine (``parallel``, ``process``, ``simulated``)
attaches a ``stats`` dict to its :class:`~repro.core.program.RunResult`;
the serial oracle attaches an empty dict (it has no scheduler).  The
engine-agnostic portion validated by :func:`validate_engine_stats`:

* ``stats["frontier"]`` — required for every scheduling engine:

  - ``mode``: ``"global"`` or ``"cone"`` — the readiness rule the run
    used (:class:`~repro.core.state.SchedulerState`);
  - ``cone_count``: int >= 1 — number of distinct ancestor cones in the
    compiled graph (:class:`~repro.graph.cones.ConeIndex`);
  - ``max_phase_skew``: int >= 0 — the largest ``q - oldest_incomplete``
    observed when a non-source pair became ready: how far ahead of the
    oldest in-flight phase some vertex's work pipelined.  Both modes
    pipeline; cone mode typically reports larger skew because the x_p
    clamp no longer couples independent cones;
  - ``frontier_advances``: int >= 0 — per-phase frontier-counter
    advancement events (x_p steps in global mode, per-phase determined
    prefix steps in cone mode).

* ``stats["sharding"]`` — required for the sharded meta-engine
  (``RunResult.engine`` starting with ``"sharded"``), forbidden
  elsewhere: shard count, feed mode, router identity, per-shard
  key/phase/execution/late counters and the merge-alignment counters
  (see :mod:`repro.sharding`).  The per-shard engine runs keep their own
  full stats (frontier section included) on the nested
  ``ShardedRunResult.shard_results``.

* ``stats["suppression"]`` — required for every scheduling engine
  (change suppression, ALGORITHM.md §5.6):

  - ``enabled``: bool — whether the run elided value-equal outputs;
  - ``suppressed_messages``: int >= 0 — outputs equal to the edge latch
    that were never delivered (0 when disabled);
  - ``elided_executions``: int >= 0 — downstream pairs that were marked
    determined without being scheduled because **every** inbound message
    was suppressed (direct elisions only — cascaded determination of
    farther descendants is not attributed);
  - ``ineligible_vertices``: int >= 0 — vertices whose pairs were
    excluded from elision by the per-vertex contract
    (:attr:`~repro.core.vertex.Vertex.suppressible` and the sink /
    successor-closure rule).

* ``stats["coalescing"]`` — required for every scheduling engine
  (temporal phase-run coalescing, ALGORITHM.md §5.7):

  - ``runs_scheduled``: int >= 0 — cone-mode ``claim_run`` dispatches
    (a run of one still counts: it paid one dispatch; a
    global-frontier run never extends and reports 0);
  - ``pairs_coalesced``: int >= 0 — extension members that rode along
    with a run head instead of paying their own dispatch;
  - ``mean_run_length``: float >= 0 — members per run
    (``(runs_scheduled + pairs_coalesced) / runs_scheduled``; 0.0
    before any run).

* ``stats["serve"]`` — the continuous-operation service layer
  (:mod:`repro.serve`) reports its session document with a ``serve``
  section: ingest/retire/stream counters, backpressure accounting
  (reorder-buffer rejects + feed stalls), stage high-water marks, the
  RSS high-water, and the oracle spot-check tallies.  Validated by
  :func:`validate_serve_stats` (used by the serve tests and by CI
  consumers of ``repro serve --stats-json``).

The rest of the dict is engine-specific (lock contention, IPC counters,
virtual-processor utilization, ...) and intentionally open — the
validator checks shape, not exhaustiveness.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from ..core.program import RunResult

__all__ = [
    "format_table",
    "summarize_speedup",
    "message_rate_summary",
    "validate_frontier_stats",
    "validate_suppression_stats",
    "validate_coalescing_stats",
    "validate_sharding_stats",
    "validate_serve_stats",
    "validate_engine_stats",
]

#: Engine name prefixes that denote a scheduling engine (one that runs
#: :class:`~repro.core.state.SchedulerState` and must report a
#: ``frontier`` stats section).
SCHEDULING_ENGINE_PREFIXES = ("parallel", "process", "simulated")

#: Engine name prefix of the sharded meta-engine (N replicated engine
#: instances behind a key router; see :mod:`repro.sharding`).
SHARDED_ENGINE_PREFIX = "sharded"

_FRONTIER_MODES = ("global", "cone")

_SHARDING_MODES = ("stream", "phases")

_PER_SHARD_KEYS = (
    "shard",
    "keys",
    "vertices",
    "phases",
    "executions",
    "messages",
    "late_events",
)


def validate_frontier_stats(section: Any, where: str = "frontier") -> List[str]:
    """Validate one ``stats["frontier"]`` section; returns error strings
    (empty list == valid)."""
    errors: List[str] = []
    if not isinstance(section, Mapping):
        return [f"{where}: expected a mapping, got {type(section).__name__}"]
    mode = section.get("mode")
    if mode not in _FRONTIER_MODES:
        errors.append(
            f"{where}.mode: expected one of {_FRONTIER_MODES}, got {mode!r}"
        )
    for key, minimum in (
        ("cone_count", 1),
        ("max_phase_skew", 0),
        ("frontier_advances", 0),
    ):
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(
                f"{where}.{key}: expected an int, got {value!r}"
            )
        elif value < minimum:
            errors.append(f"{where}.{key}: expected >= {minimum}, got {value}")
    extra = set(section) - {"mode", "cone_count", "max_phase_skew",
                            "frontier_advances"}
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")
    return errors


_SUPPRESSION_COUNTERS = (
    "suppressed_messages",
    "elided_executions",
    "ineligible_vertices",
)


def validate_suppression_stats(
    section: Any, where: str = "suppression"
) -> List[str]:
    """Validate one ``stats["suppression"]`` section; returns error
    strings (empty list == valid)."""
    errors: List[str] = []
    if not isinstance(section, Mapping):
        return [f"{where}: expected a mapping, got {type(section).__name__}"]
    enabled = section.get("enabled")
    if not isinstance(enabled, bool):
        errors.append(f"{where}.enabled: expected a bool, got {enabled!r}")
    values: Dict[str, int] = {}
    for key in _SUPPRESSION_COUNTERS:
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{where}.{key}: expected an int, got {value!r}")
        elif value < 0:
            errors.append(f"{where}.{key}: expected >= 0, got {value}")
        else:
            values[key] = value
    if enabled is False:
        for key in ("suppressed_messages", "elided_executions"):
            if values.get(key):
                errors.append(
                    f"{where}.{key}: expected 0 when suppression is "
                    f"disabled, got {values[key]}"
                )
    extra = set(section) - set(_SUPPRESSION_COUNTERS) - {"enabled"}
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")
    return errors


_COALESCING_COUNTERS = ("runs_scheduled", "pairs_coalesced")


def validate_coalescing_stats(
    section: Any, where: str = "coalescing"
) -> List[str]:
    """Validate one ``stats["coalescing"]`` section; returns error
    strings (empty list == valid).

    Beyond per-key shape, checks the scheduler-side consistency law:
    ``mean_run_length`` is exactly members-per-run.
    """
    errors: List[str] = []
    if not isinstance(section, Mapping):
        return [f"{where}: expected a mapping, got {type(section).__name__}"]
    values: Dict[str, int] = {}
    for key in _COALESCING_COUNTERS:
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{where}.{key}: expected an int, got {value!r}")
        elif value < 0:
            errors.append(f"{where}.{key}: expected >= 0, got {value}")
        else:
            values[key] = value
    mean = section.get("mean_run_length")
    if not isinstance(mean, (int, float)) or isinstance(mean, bool):
        errors.append(
            f"{where}.mean_run_length: expected a number, got {mean!r}"
        )
    elif set(_COALESCING_COUNTERS) <= set(values):
        runs = values["runs_scheduled"]
        members = runs + values["pairs_coalesced"]
        expect = (members / runs) if runs else 0.0
        if abs(mean - expect) > 1e-9:
            errors.append(
                f"{where}.mean_run_length: expected {expect} "
                f"(= {members}/{runs}), got {mean}"
            )
    extra = set(section) - set(_COALESCING_COUNTERS) - {"mean_run_length"}
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")
    return errors


def validate_sharding_stats(section: Any, where: str = "sharding") -> List[str]:
    """Validate one ``stats["sharding"]`` section; returns error strings
    (empty list == valid)."""
    errors: List[str] = []
    if not isinstance(section, Mapping):
        return [f"{where}: expected a mapping, got {type(section).__name__}"]

    def require_int(mapping: Mapping, key: str, label: str, minimum: int = 0):
        value = mapping.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{label}: expected an int, got {value!r}")
            return None
        if value < minimum:
            errors.append(f"{label}: expected >= {minimum}, got {value}")
        return value

    num_shards = require_int(section, "num_shards", f"{where}.num_shards", 1)
    require_int(section, "keys", f"{where}.keys", 0)
    mode = section.get("mode")
    if mode not in _SHARDING_MODES:
        errors.append(
            f"{where}.mode: expected one of {_SHARDING_MODES}, got {mode!r}"
        )
    router = section.get("router")
    if not isinstance(router, Mapping):
        errors.append(
            f"{where}.router: expected a mapping, got {type(router).__name__}"
        )
    else:
        if not isinstance(router.get("algorithm"), str):
            errors.append(
                f"{where}.router.algorithm: expected a string, got "
                f"{router.get('algorithm')!r}"
            )
        require_int(router, "num_shards", f"{where}.router.num_shards", 1)
    per_shard = section.get("per_shard")
    if not isinstance(per_shard, Sequence) or isinstance(per_shard, (str, bytes)):
        errors.append(
            f"{where}.per_shard: expected a list, got "
            f"{type(per_shard).__name__}"
        )
    else:
        if num_shards is not None and len(per_shard) != num_shards:
            errors.append(
                f"{where}.per_shard: expected {num_shards} entries, "
                f"got {len(per_shard)}"
            )
        for i, entry in enumerate(per_shard):
            if not isinstance(entry, Mapping):
                errors.append(
                    f"{where}.per_shard[{i}]: expected a mapping, got "
                    f"{type(entry).__name__}"
                )
                continue
            for key in _PER_SHARD_KEYS:
                require_int(entry, key, f"{where}.per_shard[{i}].{key}", 0)
            shard = entry.get("shard")
            if isinstance(shard, int) and shard != i:
                errors.append(
                    f"{where}.per_shard[{i}].shard: expected {i}, got {shard}"
                )
            extra = set(entry) - set(_PER_SHARD_KEYS)
            if extra:
                errors.append(
                    f"{where}.per_shard[{i}]: unexpected keys {sorted(extra)}"
                )
    merge = section.get("merge")
    if not isinstance(merge, Mapping):
        errors.append(
            f"{where}.merge: expected a mapping, got {type(merge).__name__}"
        )
    else:
        require_int(merge, "phases_merged", f"{where}.merge.phases_merged", 0)
        require_int(merge, "max_buffered", f"{where}.merge.max_buffered", 0)
    extra = set(section) - {
        "num_shards", "keys", "mode", "router", "per_shard", "merge",
    }
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")
    return errors


_SERVE_ENGINES = ("parallel", "process")

_SERVE_COUNTERS = (
    "phases_ingested",
    "phases_retired",
    "results_streamed",
    "events_accepted",
    "late_events",
    "buffer_rejects",
    "feed_stalls",
    "backpressure_stalls",
    "buffer_high_water",
    "feed_high_water",
    "rss_high_water_bytes",
    "sse_dropped",
    "spot_checks_passed",
    "spot_checks_failed",
)


def validate_serve_stats(section: Any, where: str = "serve") -> List[str]:
    """Validate one ``stats["serve"]`` section; returns error strings
    (empty list == valid).

    Beyond per-counter shape, checks the cross-counter invariants the
    serve pipeline guarantees: nothing retires before it is ingested,
    every retired phase is streamed, and the backpressure total is
    exactly rejects + stalls.
    """
    errors: List[str] = []
    if not isinstance(section, Mapping):
        return [f"{where}: expected a mapping, got {type(section).__name__}"]
    engine = section.get("engine")
    if engine not in _SERVE_ENGINES:
        errors.append(
            f"{where}.engine: expected one of {_SERVE_ENGINES}, got {engine!r}"
        )
    values: Dict[str, int] = {}
    for key in _SERVE_COUNTERS:
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{where}.{key}: expected an int, got {value!r}")
        elif value < 0:
            errors.append(f"{where}.{key}: expected >= 0, got {value}")
        else:
            values[key] = value
    extra = set(section) - set(_SERVE_COUNTERS) - {"engine"}
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")
    if {"phases_retired", "phases_ingested"} <= set(values) and (
        values["phases_retired"] > values["phases_ingested"]
    ):
        errors.append(
            f"{where}: phases_retired {values['phases_retired']} exceeds "
            f"phases_ingested {values['phases_ingested']}"
        )
    if {"results_streamed", "phases_retired"} <= set(values) and (
        values["results_streamed"] != values["phases_retired"]
    ):
        errors.append(
            f"{where}: results_streamed {values['results_streamed']} != "
            f"phases_retired {values['phases_retired']} (every retired "
            f"phase must be streamed exactly once)"
        )
    if {"backpressure_stalls", "buffer_rejects", "feed_stalls"} <= set(
        values
    ) and (
        values["backpressure_stalls"]
        != values["buffer_rejects"] + values["feed_stalls"]
    ):
        errors.append(
            f"{where}: backpressure_stalls must equal buffer_rejects + "
            f"feed_stalls"
        )
    return errors


def validate_engine_stats(engine: str, stats: Any) -> List[str]:
    """Validate a result's ``stats`` dict against the documented schema.

    *engine* is :attr:`RunResult.engine` (e.g. ``"parallel[k=2]"``); the
    prefix decides whether a ``frontier`` section is required.  Returns a
    list of error strings — empty means valid.  Used by the stats-schema
    regression tests and by CI consumers of ``repro run --stats-json``.
    """
    errors: List[str] = []
    if not isinstance(stats, Mapping):
        return [f"stats: expected a mapping, got {type(stats).__name__}"]
    if engine.startswith(SHARDED_ENGINE_PREFIX):
        if "sharding" not in stats:
            errors.append(
                f"stats.sharding: required for sharded engine {engine!r}"
            )
        else:
            errors.extend(validate_sharding_stats(stats["sharding"]))
        if "frontier" in stats:
            errors.append(
                f"stats.frontier: unexpected at the top level for "
                f"{engine!r} (frontier stats live on the per-shard runs)"
            )
        return errors
    if "sharding" in stats:
        errors.append(
            f"stats.sharding: unexpected for engine {engine!r} "
            f"(only the sharded meta-engine reports it)"
        )
    scheduling = engine.startswith(SCHEDULING_ENGINE_PREFIXES)
    if not scheduling:
        if "frontier" in stats:
            errors.append(
                f"stats.frontier: unexpected for engine {engine!r} "
                f"(no scheduler)"
            )
        return errors
    if "frontier" not in stats:
        errors.append(
            f"stats.frontier: required for scheduling engine {engine!r}"
        )
    else:
        errors.extend(validate_frontier_stats(stats["frontier"]))
    if "suppression" not in stats:
        errors.append(
            f"stats.suppression: required for scheduling engine {engine!r}"
        )
    else:
        errors.extend(validate_suppression_stats(stats["suppression"]))
    if "coalescing" not in stats:
        errors.append(
            f"stats.coalescing: required for scheduling engine {engine!r}"
        )
    else:
        errors.extend(validate_coalescing_stats(stats["coalescing"]))
    return errors


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    float_precision: int = 3,
) -> str:
    """Render a fixed-width text table.

    Floats are formatted to *float_precision* digits; column widths adapt
    to content.
    """

    def fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:.{float_precision}f}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def summarize_speedup(results: Sequence[RunResult]) -> Dict[str, Any]:
    """Speedup summary for a sweep of runs of the same workload.

    The first result is the baseline; returns per-run speedups and the
    peak.  Works for both wall-clock and virtual-time results.
    """
    if not results:
        return {"runs": [], "peak_speedup": 0.0}
    base = results[0].wall_time
    runs: List[Dict[str, Any]] = []
    for r in results:
        runs.append(
            {
                "engine": r.engine,
                "time": r.wall_time,
                "speedup": base / r.wall_time if r.wall_time else float("inf"),
            }
        )
    return {
        "runs": runs,
        "peak_speedup": max(r["speedup"] for r in runs),
        "baseline": results[0].engine,
    }


def message_rate_summary(
    delta: RunResult, dense: RunResult, phases: int
) -> Dict[str, float]:
    """The Section 1 efficiency comparison: Δ-dataflow vs dense messaging.

    Returns message/execution counts per phase for both runs and the
    dense/Δ ratios (the money-laundering example predicts ratios on the
    order of 1/anomaly-rate).
    """
    phases = max(phases, 1)
    return {
        "delta_messages": float(delta.message_count),
        "dense_messages": float(dense.message_count),
        "delta_messages_per_phase": delta.message_count / phases,
        "dense_messages_per_phase": dense.message_count / phases,
        "message_ratio": (
            dense.message_count / delta.message_count
            if delta.message_count
            else float("inf")
        ),
        "delta_executions": float(delta.execution_count),
        "dense_executions": float(dense.execution_count),
        "execution_ratio": (
            dense.execution_count / delta.execution_count
            if delta.execution_count
            else float("inf")
        ),
    }
