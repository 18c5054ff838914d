"""Result statistics and table rendering.

``repro report`` prints fixed-width tables (the paper's evaluation is
prose plus figures; the tables here are what its Section 4 rows would
look like) — :func:`format_table` keeps them consistent.

Stats schema
------------
Every scheduling engine (``parallel``, ``process``, ``simulated``)
attaches a ``stats`` dict to its :class:`~repro.core.program.RunResult`;
the serial oracle attaches an empty dict (it has no scheduler).  The
shape of every documented section is one declarative table
(:data:`_SCHEMA`: key → type, minimum, allowed values, nested section)
checked by one walker; the meaning of each key is in
docs/ARCHITECTURE.md §7.
:func:`validate_engine_stats` requires, by engine-name prefix:

* every scheduling engine — the sections
  :meth:`repro.runtime.core.ScheduleCore.result` attaches: ``frontier``
  (readiness rule, cone count, phase skew; ``frontier_advances`` iff
  the rule is the published ``x_p``), ``coalescing`` (phase runs,
  docs/ARCHITECTURE.md §5.7; with the law
  ``mean_run_length`` = members / runs), ``per_worker_executions``,
  the edge-store counters ``edge_entries_peak`` / ``edge_entries_final``
  and ``budget``, the run lifecycle's nanoseconds per layer, each >= 0.
  The peak is sampled once per committed run — after all of the run's
  sends, before its one input GC — not once per member, so on a schedule
  with runs longer than one it can read a few entries above the largest
  number buffered between two member commits; a run of one (the serial
  oracle, the simulator's published schedule) samples as before, and
  ``edge_entries_peak >= edge_entries_final`` always;
* the real engines (``parallel``, ``process``) add ``drain`` — who
  executed the runs: the environment thread / the coordinator itself
  (``inline_runs``) or the pool / a worker process (``pooled_runs``),
  how many staked runs were cut and handed over, the largest feed burst
  — validated wherever it appears, with the law
  ``inline_runs + pooled_runs`` = ``coalescing.runs_scheduled``.

:func:`validate_serve_stats` checks the ``serve`` section of the
:mod:`repro.serve` session document (``repro serve --stats-json``).  The
rest of a ``stats`` dict is engine-specific (lock contention, IPC
counters, ...) and intentionally open: shape, not exhaustiveness.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "validate_frontier_stats",
    "validate_coalescing_stats",
    "validate_serve_stats",
    "validate_engine_stats",
]

#: Engine name prefixes that denote a scheduling engine (one that runs
#: :class:`~repro.runtime.core.ScheduleCore` and reports its sections).
SCHEDULING_ENGINE_PREFIXES = ("parallel", "process", "simulated")

# The schema, as data.  A rule is: an ``int`` (the value is an int, not a
# bool, and at least that), ``float`` (any number), a tuple (one of these
# values), or a dict (a mapping with exactly these keys, each under its
# own rule; the single key ``_EACH`` instead puts every value of an open
# mapping under one rule).
_EACH = "*"

#: What :meth:`repro.runtime.core.ScheduleCore.result` guarantees on
#: every scheduling engine.
_SCHEDULING_SCHEMA: Dict[str, Any] = {
    "frontier": {
        "mode": ("global", "cone"),
        "cone_count": 1,
        "max_phase_skew": 0,
    },
    "coalescing": {
        "runs_scheduled": 0,
        "pairs_coalesced": 0,
        "mean_run_length": float,
    },
    "per_worker_executions": {_EACH: 0},
    "edge_entries_peak": 0,
    "edge_entries_final": 0,
    "budget": {
        "admit": 0, "claim": 0, "prepare": 0, "compute": 0, "deliver": 0,
        "commit": 0, "retire": 0, "compute_per_worker": {_EACH: 0},
    },
}

_SCHEMA: Dict[str, Any] = {
    **_SCHEDULING_SCHEMA,
    # What ParallelEngine and ProcessEngine add.
    "drain": {
        "inline_runs": 0, "pooled_runs": 0, "handovers": 0,
        "feed_burst_max": 0, "swept_phases": 0, "driven_phases": 0,
    },
    "serve": {
        "engine": ("parallel", "process"),
        "phases_ingested": 0, "phases_retired": 0, "results_streamed": 0,
        "events_accepted": 0, "late_events": 0, "buffer_rejects": 0,
        "feed_stalls": 0, "backpressure_stalls": 0, "buffer_high_water": 0,
        "feed_high_water": 0, "rss_high_water_bytes": 0, "sse_dropped": 0,
        "spot_checks_passed": 0, "spot_checks_failed": 0,
    },
}

def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check(value: Any, rule: Any, label: str, errors: List[str]) -> None:
    """Append to *errors* whatever is wrong with *value* under *rule*."""
    if isinstance(rule, dict):
        if not isinstance(value, Mapping):
            errors.append(f"{label}: expected a mapping, got {type(value).__name__}")
        elif _EACH in rule:
            for key, item in value.items():
                _check(item, rule[_EACH], f"{label}.{key}", errors)
        else:
            for key, sub in rule.items():
                _check(value.get(key), sub, f"{label}.{key}", errors)
            extra = set(value) - set(rule)
            if extra:
                errors.append(f"{label}: unexpected keys {sorted(extra)}")
    elif isinstance(rule, tuple):
        if value not in rule:
            errors.append(f"{label}: expected one of {rule}, got {value!r}")
    elif rule is float:
        if not (_is_int(value) or isinstance(value, float)):
            errors.append(f"{label}: expected a number, got {value!r}")
    elif not _is_int(value):
        errors.append(f"{label}: expected an int, got {value!r}")
    elif value < rule:
        errors.append(f"{label}: expected >= {rule}, got {value}")


def _counts(section: Any, *keys: str) -> Optional[List[int]]:
    """The named counters, when every one is a valid non-negative int —
    the precondition of each cross-field law below."""
    if not isinstance(section, Mapping):
        return None
    values = [section.get(key) for key in keys]
    return values if all(_is_int(v) and v >= 0 for v in values) else None


def _coalescing_law(section: Mapping, where: str, errors: List[str]) -> None:
    # ``mean_run_length`` is exactly members-per-run.
    got = _counts(section, "runs_scheduled", "pairs_coalesced")
    mean = section.get("mean_run_length")
    if got and (_is_int(mean) or isinstance(mean, float)):
        runs, members = got[0], got[0] + got[1]
        expect = (members / runs) if runs else 0.0
        if abs(mean - expect) > 1e-9:
            errors.append(
                f"{where}.mean_run_length: expected {expect} "
                f"(= {members}/{runs}), got {mean}"
            )


def _serve_law(section: Mapping, where: str, errors: List[str]) -> None:
    # Nothing retires before it is ingested, every retired phase is
    # streamed, and the backpressure total is exactly rejects + stalls.
    got = _counts(section, "phases_retired", "phases_ingested")
    if got and got[0] > got[1]:
        errors.append(
            f"{where}: phases_retired {got[0]} exceeds phases_ingested {got[1]}"
        )
    got = _counts(section, "results_streamed", "phases_retired")
    if got and got[0] != got[1]:
        errors.append(
            f"{where}: results_streamed {got[0]} != phases_retired "
            f"{got[1]} (every retired phase must be streamed exactly once)"
        )
    got = _counts(section, "backpressure_stalls", "buffer_rejects", "feed_stalls")
    if got and got[0] != got[1] + got[2]:
        errors.append(
            f"{where}: backpressure_stalls must equal buffer_rejects + feed_stalls"
        )


#: The cross-field laws a section's shape cannot express.
_LAWS = {
    "coalescing": _coalescing_law,
    "serve": _serve_law,
}


def _validate(name: str, section: Any, where: str) -> List[str]:
    errors: List[str] = []
    rule = _SCHEMA[name]
    if (
        name == "frontier"
        and isinstance(section, Mapping)
        and section.get("mode") == "global"
    ):
        # Only Listings 1-2 have an x_p to count the advances of.
        rule = {**rule, "frontier_advances": 0}
    _check(section, rule, where, errors)
    if name in _LAWS and isinstance(section, Mapping):
        _LAWS[name](section, where, errors)
    return errors


def validate_frontier_stats(section: Any, where: str = "frontier") -> List[str]:
    """Validate one ``stats["frontier"]`` section; returns error strings
    (empty list == valid)."""
    return _validate("frontier", section, where)


def validate_coalescing_stats(
    section: Any, where: str = "coalescing"
) -> List[str]:
    """As :func:`validate_frontier_stats`; ``mean_run_length`` must be
    exactly members-per-run."""
    return _validate("coalescing", section, where)


def validate_serve_stats(section: Any, where: str = "serve") -> List[str]:
    """As :func:`validate_frontier_stats`, plus the cross-counter
    invariants the serve pipeline guarantees."""
    return _validate("serve", section, where)


def validate_engine_stats(engine: str, stats: Any) -> List[str]:
    """Validate a result's ``stats`` dict against the documented schema.

    *engine* is :attr:`RunResult.engine` (e.g. ``"parallel[k=2]"``); the
    prefix decides which sections are required.  Returns a list of error
    strings — empty means valid.  Used by the stats-schema regression
    tests and by CI consumers of ``repro run --stats-json``.
    """
    if not isinstance(stats, Mapping):
        return [f"stats: expected a mapping, got {type(stats).__name__}"]
    errors: List[str] = []
    scheduling = engine.startswith(SCHEDULING_ENGINE_PREFIXES)
    for name in _SCHEDULING_SCHEMA if scheduling else ():
        if name not in stats:
            errors.append(
                f"stats.{name}: required for scheduling engine {engine!r}"
            )
        else:
            errors.extend(_validate(name, stats[name], name))
    # The real engines' own section: checked wherever it appears, and
    # every scheduled run was executed by exactly one of the two.
    if "drain" in stats:
        errors.extend(_validate("drain", stats["drain"], "drain"))
    runs = _counts(stats.get("drain"), "inline_runs", "pooled_runs")
    scheduled = _counts(stats.get("coalescing"), "runs_scheduled")
    if runs and scheduled and sum(runs) != scheduled[0]:
        errors.append(
            f"drain: inline_runs + pooled_runs = {sum(runs)} != "
            f"coalescing.runs_scheduled {scheduled[0]}"
        )
    if not scheduling and "frontier" in stats:
        errors.append(
            f"stats.frontier: unexpected for engine {engine!r} (no scheduler)"
        )
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
