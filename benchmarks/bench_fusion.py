"""Linear-chain fusion: scheduling-overhead reduction, fused vs unfused.

The compile pass of :mod:`repro.core.plan` collapses every maximal
single-predecessor / single-successor chain into one
:class:`~repro.core.plan.FusedVertex`, so the scheduler dispatches one
(stage, phase) pair — one lock acquisition, one queue transfer, one IPC
frame — where it previously dispatched one per chain member.  This
benchmark measures that reduction on the two regimes that matter:

* **chain-heavy** — ``pipeline_workload`` (a maximal chain: the whole
  graph fuses to one stage) and a *comb* (several deep per-stream
  pipelines correlated at one sink — the paper's event-stream shape),
  where fusion should eliminate most scheduled pairs;
* **wide** — ``fanin_workload`` and ``grid_workload``, where little or
  nothing fuses and the pass must not regress anything; the laundering
  program rides along as a realistic mixed case (its chains cap the
  structural reduction at 2x, so it informs rather than gates).

Each workload runs on the threaded engine and the process engine, fused
and unfused, and every row is judged against the unfused serial oracle
(``oracle_equal``) — a plan that changes observable results is not an
optimisation.  Rows record scheduled pairs, lock acquisitions, task
frames (process engine) and wall time.

Acceptance criterion (full mode): on both chain-heavy workloads and both
engines, fusion cuts scheduled pairs by at least 2x and improves wall
time, with every row oracle-equal and the unfused rows identical in
shape to a run without the pass (no fusion stats, unchanged engine
label).  Quick mode (the CI smoke) checks the structural property —
fused chain-heavy rows schedule fewer pairs than they execute members —
plus oracle equality.

CI smoke::

    python benchmarks/bench_fusion.py --quick

Full run (commits its results as ``BENCH_fusion.json``)::

    python benchmarks/bench_fusion.py --out BENCH_fusion.json
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Callable, Dict, List

if __package__ in (None, ""):
    from _runner import bootstrap_src, finish, parse_args, timed_repeats
else:
    from ._runner import bootstrap_src, finish, parse_args, timed_repeats

bootstrap_src()

from repro.analysis import check_serializable  # noqa: E402
from repro.core.plan import compile_plan  # noqa: E402
from repro.core.program import Program  # noqa: E402
from repro.core.serial import SerialExecutor  # noqa: E402
from repro.graph.model import ComputationGraph  # noqa: E402
from repro.models.domains.laundering import (  # noqa: E402
    build_laundering_workload,
)
from repro.runtime.engine import ParallelEngine  # noqa: E402
from repro.streams.generators import phase_signals  # noqa: E402
from repro.streams.workloads import (  # noqa: E402
    fanin_workload,
    grid_workload,
    pipeline_workload,
    sum_behaviors,
)

PAIR_REDUCTION_TARGET = 2.0  # x fewer scheduled pairs on chain-heavy
CHAIN_HEAVY = ("pipeline", "comb")

FULL = {
    "threads": 2,
    "workers": 2,
    "repeats": 3,
    "warmup": 1,
    "pipeline": {"depth": 12, "phases": 600},
    "comb": {"branches": 4, "depth": 6, "phases": 400},
    "laundering": {"phases": 500, "branches": 6},
    "fanin": {"fan": 8, "phases": 300},
    "grid": {"width": 4, "depth": 3, "phases": 200},
}
QUICK = {
    "threads": 2,
    "workers": 2,
    "repeats": 1,
    "warmup": 0,
    "pipeline": {"depth": 8, "phases": 60},
    "comb": {"branches": 3, "depth": 4, "phases": 40},
    "laundering": {"phases": 50, "branches": 3},
    "fanin": {"fan": 4, "phases": 30},
    "grid": {"width": 3, "depth": 2, "phases": 20},
}


def comb_workload(branches: int, depth: int, phases: int, seed: int = 0):
    """*branches* parallel depth-*depth* pipelines correlated at one sink
    — per-stream processing chains joining at a correlator, the shape
    the paper's event-stream computations take."""
    g = ComputationGraph(name=f"comb[{branches}x{depth}]")
    for b in range(branches):
        names = [f"b{b}v{i}" for i in range(depth)]
        g.add_vertices(names)
        for a, c in zip(names, names[1:]):
            g.add_edge(a, c)
    g.add_vertex("sink")
    for b in range(branches):
        g.add_edge(f"b{b}v{depth - 1}", "sink")
    program = Program(g, sum_behaviors(g, seed=seed), name=g.name)
    return program, phase_signals(phases)


def _workloads(cfg: Dict[str, Any]) -> Dict[str, Callable[[], Any]]:
    return {
        "pipeline": lambda: pipeline_workload(
            depth=cfg["pipeline"]["depth"],
            phases=cfg["pipeline"]["phases"],
            seed=7,
        ),
        "comb": lambda: comb_workload(
            branches=cfg["comb"]["branches"],
            depth=cfg["comb"]["depth"],
            phases=cfg["comb"]["phases"],
            seed=9,
        ),
        "laundering": lambda: build_laundering_workload(
            phases=cfg["laundering"]["phases"],
            branches=cfg["laundering"]["branches"],
            seed=11,
        ),
        "fanin": lambda: fanin_workload(
            fan=cfg["fanin"]["fan"], phases=cfg["fanin"]["phases"], seed=3
        ),
        "grid": lambda: grid_workload(
            width=cfg["grid"]["width"],
            depth=cfg["grid"]["depth"],
            phases=cfg["grid"]["phases"],
            seed=5,
        ),
    }


def _run_engine(
    engine_name: str, make_workload, fuse: bool, cfg: Dict[str, Any]
):
    """One timed run; returns (result, wall_seconds)."""
    prog, phases = make_workload()
    plan = compile_plan(prog, fuse=fuse)
    if engine_name == "parallel":
        engine = ParallelEngine(plan, num_threads=cfg["threads"])
    else:
        from repro.runtime.mp import ProcessEngine

        engine = ProcessEngine(plan, num_workers=cfg["workers"])
    start = time.perf_counter()
    result = engine.run(phases)
    return result, time.perf_counter() - start


def _measure(
    workload_name: str,
    make_workload,
    engine_name: str,
    fuse: bool,
    cfg: Dict[str, Any],
) -> Dict[str, Any]:
    prog, phases = make_workload()
    serial = SerialExecutor(prog).run(phases)

    result, timing = timed_repeats(
        lambda: _run_engine(engine_name, make_workload, fuse, cfg),
        repeats=cfg["repeats"],
        warmup=cfg.get("warmup", 0),
    )
    fusion = result.stats.get("fusion")
    return {
        "workload": workload_name,
        "engine": engine_name,
        "engine_label": result.engine,
        "fuse": fuse,
        "wall_time_s": timing["min_s"],
        "timing": timing,
        "member_executions": result.execution_count,
        "scheduled_pairs": (
            fusion["scheduled_pairs"]
            if fusion
            else result.execution_count
        ),
        "fused_stages": fusion["fused_stages"] if fusion else 0,
        "plan_vertices": (
            fusion["plan_vertices"] if fusion else len(prog.graph)
        ),
        "lock_acquisitions": result.stats["lock"]["acquisitions"],
        "ipc_round_trips": result.stats.get("ipc_round_trips"),
        "message_count": result.message_count,
        "oracle_equal": bool(check_serializable(serial, result)),
    }


def check_criterion(
    rows: List[Dict[str, Any]], quick: bool
) -> Dict[str, Any]:
    out: Dict[str, Any] = {"evaluated": True, "checks": []}
    passed = True

    def by(workload: str, engine: str, fuse: bool):
        return next(
            (
                r
                for r in rows
                if r["workload"] == workload
                and r["engine"] == engine
                and r["fuse"] is fuse
            ),
            None,
        )

    for row in rows:
        if not row["oracle_equal"]:
            out["checks"].append(
                {
                    "check": "oracle_equal",
                    "row": f"{row['workload']}/{row['engine']}"
                    f"[fuse={row['fuse']}]",
                    "passed": False,
                }
            )
            passed = False

    engines = sorted({r["engine"] for r in rows})
    for workload in CHAIN_HEAVY:
        for engine in engines:
            off = by(workload, engine, False)
            on = by(workload, engine, True)
            if off is None or on is None:
                out["checks"].append(
                    {
                        "check": "rows_present",
                        "row": f"{workload}/{engine}",
                        "passed": False,
                    }
                )
                passed = False
                continue
            # Unfused rows must look exactly like a run without the pass.
            baseline_ok = (
                off["fused_stages"] == 0
                and "+fused" not in off["engine_label"]
            )
            out["checks"].append(
                {
                    "check": "no_fuse_is_baseline",
                    "row": f"{workload}/{engine}",
                    "passed": baseline_ok,
                }
            )
            passed = passed and baseline_ok

            ratio = off["scheduled_pairs"] / max(1, on["scheduled_pairs"])
            ok = ratio >= PAIR_REDUCTION_TARGET
            out["checks"].append(
                {
                    "check": "scheduled_pair_reduction",
                    "row": f"{workload}/{engine}",
                    "before": off["scheduled_pairs"],
                    "after": on["scheduled_pairs"],
                    "reduction_x": ratio,
                    "target_x": PAIR_REDUCTION_TARGET,
                    "passed": ok,
                }
            )
            passed = passed and ok

            if not quick:
                faster = on["wall_time_s"] < off["wall_time_s"]
                out["checks"].append(
                    {
                        "check": "wall_clock_improved",
                        "row": f"{workload}/{engine}",
                        "unfused_s": off["wall_time_s"],
                        "fused_s": on["wall_time_s"],
                        "speedup_x": off["wall_time_s"]
                        / max(1e-12, on["wall_time_s"]),
                        "passed": faster,
                    }
                )
                passed = passed and faster
    out["passed"] = passed
    return out


def main(argv=None) -> int:
    args = parse_args(
        "Chain fusion: scheduled pairs, lock traffic, IPC frames and "
        "wall time, fused vs unfused",
        argv,
    )
    cfg = QUICK if args.quick else FULL
    rows: List[Dict[str, Any]] = []
    for workload_name, make_workload in _workloads(cfg).items():
        for engine_name in ("parallel", "process"):
            for fuse in (False, True):
                row = _measure(
                    workload_name, make_workload, engine_name, fuse, cfg
                )
                rows.append(row)
                print(
                    f"{workload_name:>10s} {engine_name:>8s} "
                    f"fuse={str(fuse):5s} pairs={row['scheduled_pairs']:6d} "
                    f"members={row['member_executions']:6d} "
                    f"lock={row['lock_acquisitions']:6d} "
                    f"wall={row['wall_time_s']:.3f}s "
                    f"oracle_equal={row['oracle_equal']}"
                )
    criterion = check_criterion(rows, quick=args.quick)
    config = dict(
        cfg,
        platform=platform.platform(),
        cpu_count=os.cpu_count(),
    )
    return finish(args, "fusion", config, rows, criterion)


if __name__ == "__main__":
    raise SystemExit(main())
