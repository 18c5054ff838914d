"""Shared scaffolding for the standalone benchmark scripts.

The pytest-benchmark suites in this directory run under pytest; the
standalone scripts (``bench_ext_reorder.py``,
``bench_numbering_scale.py``) are plain ``python benchmarks/bench_X.py`` programs so CI can smoke them
cheaply and the full runs can commit their results as ``BENCH_X.json``.
This module factors out what every standalone script repeats:

* ``bootstrap_src()`` — make ``repro`` importable without an install;
* ``make_parser()`` / ``parse_args()`` — the common ``--quick`` / ``--out``
  interface (scripts add their own flags via a callback);
* ``timed_repeats()`` — warmup-then-measure repetition with
  min/median/stddev reporting (every timed row shares the shape);
* ``finish()`` — JSON result writing plus the pass/fail exit code.

Result files share the envelope::

    {"benchmark": <name>, "mode": "quick"|"full", "config": {...},
     "rows": [...], "criterion": {...} | null}

where ``criterion`` carries the acceptance verdict (``passed`` plus
whatever evidence the script records), or ``null`` when not evaluated
(quick mode, or hardware that cannot express the criterion).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "bootstrap_src",
    "make_parser",
    "parse_args",
    "timed_repeats",
    "write_results",
    "finish",
]


def bootstrap_src() -> None:
    """Put ``<repo>/src`` on sys.path so the scripts run from a checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def make_parser(
    description: str,
    extra_args: Optional[Callable[[argparse.ArgumentParser], None]] = None,
) -> argparse.ArgumentParser:
    """The common CLI: ``--quick`` and ``--out`` plus script extras."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument(
        "--quick",
        action="store_true",
        help="tiny configuration for CI smoke (seconds, not minutes)",
    )
    ap.add_argument("--out", type=Path, help="write results as JSON here")
    if extra_args is not None:
        extra_args(ap)
    return ap


def parse_args(
    description: str,
    argv: Optional[Sequence[str]] = None,
    extra_args: Optional[Callable[[argparse.ArgumentParser], None]] = None,
) -> argparse.Namespace:
    return make_parser(description, extra_args).parse_args(argv)


def timed_repeats(
    run: Callable[[], Tuple[Any, float]],
    repeats: int = 3,
    warmup: int = 1,
) -> Tuple[Any, Dict[str, Any]]:
    """Warmup-then-measure repetition for one benchmark row.

    *run* performs one full iteration and returns ``(value, elapsed_s)``
    — the caller times exactly the section it cares about (engine run,
    not workload construction).  The first *warmup* iterations are
    discarded (they pay for import caches, thread/process pool spin-up
    and allocator warm state), then *repeats* iterations are recorded.

    Returns ``(value, timing)`` where *value* is the fastest measured
    iteration's value (best-of is the least noise-sensitive summary for
    counters, which do not vary across iterations) and *timing* is::

        {"min_s": ..., "median_s": ..., "stddev_s": ...,
         "samples_s": [...], "repeats": N, "warmup": W}

    ``stddev_s`` is 0.0 for a single repeat.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        run()
    best_value: Any = None
    samples: List[float] = []
    for _ in range(repeats):
        value, elapsed = run()
        if not samples or elapsed < min(samples):
            best_value = value
        samples.append(elapsed)
    timing = {
        "min_s": min(samples),
        "median_s": statistics.median(samples),
        "stddev_s": statistics.stdev(samples) if len(samples) > 1 else 0.0,
        "samples_s": samples,
        "repeats": repeats,
        "warmup": warmup,
    }
    return best_value, timing


def write_results(out: Optional[Path], payload: Dict[str, Any]) -> None:
    if out is not None:
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")


def finish(
    args: argparse.Namespace,
    benchmark: str,
    config: Dict[str, Any],
    rows: List[Dict[str, Any]],
    criterion: Optional[Dict[str, Any]],
    extra: Optional[Dict[str, Any]] = None,
) -> int:
    """Assemble the shared payload envelope, write it, return exit code.

    Exit code is 1 only when a criterion was evaluated and failed;
    an unevaluated criterion (quick mode / unsuitable hardware) exits 0.
    """
    payload: Dict[str, Any] = {
        "benchmark": benchmark,
        "mode": "quick" if args.quick else "full",
        "config": config,
        "rows": rows,
        "criterion": criterion,
    }
    if extra:
        payload.update(extra)
    write_results(args.out, payload)
    if criterion is not None and criterion.get("evaluated", True):
        return 0 if criterion.get("passed", False) else 1
    return 0
