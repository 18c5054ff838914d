"""Process-engine speedup: true parallelism past the GIL.

The paper's measured speedup (Section 4, 1.87x at 2 processors) assumes
the k computation processors genuinely run vertex computations
concurrently.  CPython's GIL breaks that assumption for pure-Python
vertices: the threaded engine (``--engine parallel``) serialises them,
so its "speedup" on CPU-bound work is bounded by 1 regardless of k.
The process backend (``--engine process``) is the repo's answer — this
benchmark measures whether it delivers.

It runs the same CPU-bound workload (``cpu_heavy_workload``: every inner
vertex spins a fixed arithmetic grain per execution) through

* the serial oracle (the 1-processor baseline),
* the threaded engine at k threads (GIL-bound), and
* the process engine at k workers (true parallelism),

and reports wall-clock plus the process engine's IPC accounting
(``serialization_bytes``, ``ipc_round_trips``, per-worker utilization).

Acceptance criterion: at 4 workers the process engine beats the threaded
engine by > 1.5x wall-clock on this workload.  **Hardware caveat**: the
criterion only makes sense with real cores to run on — a 1-core
container executes the 4 worker processes sequentially, and a 2-core CI
runner caps the theoretical speedup near 2 (minus coordinator overhead).
The script therefore records ``hardware`` (cpu count) in its output and
only *evaluates* the criterion when at least 2 cores are present; below
that it reports ``evaluated: false`` with the caveat, and exits 0.

CI smoke::

    python benchmarks/bench_mp_speedup.py --quick

Full run (commits its results as ``BENCH_mp_speedup.json``)::

    python benchmarks/bench_mp_speedup.py --out BENCH_mp_speedup.json
"""

from __future__ import annotations

import os
import platform
import statistics
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    from _runner import bootstrap_src, finish, parse_args
else:
    from ._runner import bootstrap_src, finish, parse_args

bootstrap_src()

from repro.core.serial import SerialExecutor  # noqa: E402
from repro.runtime.engine import ParallelEngine  # noqa: E402
from repro.runtime.mp import ProcessEngine  # noqa: E402
from repro.streams.workloads import cpu_heavy_workload  # noqa: E402

SPEEDUP_TARGET = 1.5
CRITERION_WORKERS = 4
MIN_CORES_TO_EVALUATE = 2

FULL = {
    "width": 4,
    "depth": 4,
    "phases": 40,
    "grain": 20_000,
    "workers": [1, 2, 4],
    "reps": 3,
}
QUICK = {
    "width": 3,
    "depth": 2,
    "phases": 8,
    "grain": 2_000,
    "workers": [2],
    "reps": 1,
}


def _workload(cfg: Dict[str, Any]):
    return cpu_heavy_workload(
        width=cfg["width"],
        depth=cfg["depth"],
        phases=cfg["phases"],
        grain=cfg["grain"],
        seed=13,
    )


def _measure(cfg: Dict[str, Any], make_engine, label: str) -> Dict[str, Any]:
    prog, phases = _workload(cfg)
    walls: List[float] = []
    last = None
    for _ in range(cfg["reps"]):
        last = make_engine(prog).run(phases)
        walls.append(last.wall_time)
    assert last is not None
    row: Dict[str, Any] = {
        "engine": last.engine,
        "label": label,
        "executions": last.execution_count,
        "wall_time_s": statistics.median(walls),
        "wall_times_s": walls,
    }
    if label.startswith("process"):
        row["ipc_round_trips"] = last.stats["ipc_round_trips"]
        row["serialization_bytes"] = last.stats["serialization_bytes"]
        row["per_worker_utilization"] = last.stats["per_worker_utilization"]
        row["ipc"] = last.stats["ipc"]
    return row


def check_criterion(
    rows: List[Dict[str, Any]], cpu_count: int
) -> Dict[str, Any]:
    """Process engine > 1.5x faster than the threaded engine at 4 workers
    — evaluated only on hardware with cores to parallelise over."""
    caveat = (
        f"criterion needs >= {MIN_CORES_TO_EVALUATE} cores "
        f"(ideally >= {CRITERION_WORKERS}) to be meaningful; "
        f"this host has {cpu_count}: worker processes time-slice one "
        f"core, so wall-clock speedup over the threaded engine is not "
        f"expressible here"
    )
    thread_row = next(
        (r for r in rows if r["label"] == f"parallel[{CRITERION_WORKERS}]"),
        None,
    )
    process_row = next(
        (r for r in rows if r["label"] == f"process[{CRITERION_WORKERS}]"),
        None,
    )
    if thread_row is None or process_row is None:
        return {
            "evaluated": False,
            "reason": f"no {CRITERION_WORKERS}-worker rows in this mode",
        }
    speedup = thread_row["wall_time_s"] / process_row["wall_time_s"]
    out: Dict[str, Any] = {
        "workers": CRITERION_WORKERS,
        "target_speedup": SPEEDUP_TARGET,
        "threaded_wall_s": thread_row["wall_time_s"],
        "process_wall_s": process_row["wall_time_s"],
        "speedup_vs_threaded": speedup,
    }
    if cpu_count < MIN_CORES_TO_EVALUATE:
        out.update({"evaluated": False, "hardware_caveat": caveat})
        return out
    out.update(
        {
            "evaluated": True,
            "passed": speedup > SPEEDUP_TARGET,
        }
    )
    if cpu_count < CRITERION_WORKERS:
        out["hardware_note"] = (
            f"only {cpu_count} cores for {CRITERION_WORKERS} workers: "
            f"theoretical ceiling is ~{cpu_count}x"
        )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    cfg = QUICK if args.quick else FULL
    cpu_count = os.cpu_count() or 1

    rows: List[Dict[str, Any]] = []

    def run(make_engine, label: str) -> None:
        row = _measure(cfg, make_engine, label)
        rows.append(row)
        print(
            f"{row['engine']:<22} wall={row['wall_time_s'] * 1000:9.1f}ms "
            f"({row['executions']} executions)"
        )

    run(lambda prog: SerialExecutor(prog), "serial")
    for k in cfg["workers"]:
        run(
            lambda prog, k=k: ParallelEngine(prog, num_threads=k),
            f"parallel[{k}]",
        )
    for k in cfg["workers"]:
        run(
            lambda prog, k=k: ProcessEngine(prog, num_workers=k),
            f"process[{k}]",
        )

    criterion = check_criterion(rows, cpu_count)
    if criterion.get("evaluated"):
        verdict = "PASS" if criterion["passed"] else "FAIL"
        print(
            f"criterion: {verdict} — process/threaded speedup "
            f"{criterion['speedup_vs_threaded']:.2f}x at "
            f"{CRITERION_WORKERS} workers "
            f"(target > {SPEEDUP_TARGET}x, {cpu_count} cores)"
        )
    else:
        print(
            f"criterion: NOT EVALUATED — "
            f"{criterion.get('hardware_caveat') or criterion.get('reason')}"
        )

    hardware = {
        "cpu_count": cpu_count,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    return finish(
        args, "mp_speedup", cfg, rows, criterion, extra={"hardware": hardware}
    )


if __name__ == "__main__":
    raise SystemExit(main())
