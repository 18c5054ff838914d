"""Keyed data-parallel sharding: per-shard work scaling + oracle equality.

One engine instance executes every vertex of every phase; the shard
layer (:mod:`repro.sharding`) partitions a key-separable program across
N replica instances, each fed only its own keys' events through a
per-shard watermark :class:`~repro.ingest.ReorderBuffer`, with a
watermark-aligned merge recombining outputs.  This benchmark measures
what a shard actually buys on a keyed laundering workload:

* **per-shard work split** — the maximum per-shard pair-execution count,
  which bounds the critical path of a genuinely parallel deployment.
  This is the headline metric: on a 1-core CI container wall-clock
  cannot express scale-out, but the work split is hardware-independent;
* **oracle equality** — every row's merged entries and final per-key
  detector state must equal the single-instance serial run (zero late
  events: the workload generator computes a covering wait);
* wall time, reported but not gated (a 1-core container cannot
  express wall-clock scale-out).

Acceptance criterion (full mode): every row oracle-equal, and the max
per-shard execution count strictly decreases at every step of
shards 1 -> 2 -> 4, with the 4-shard maximum at most 60% of the
single-instance count.  Quick mode checks oracle equality only.

CI smoke::

    python benchmarks/bench_sharding.py --quick

Full run (commits its results as ``BENCH_sharding.json``)::

    python benchmarks/bench_sharding.py --out BENCH_sharding.json
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Dict, List

if __package__ in (None, ""):
    from _runner import bootstrap_src, finish, parse_args
else:
    from ._runner import bootstrap_src, finish, parse_args

bootstrap_src()

from repro.core.plan import compile_plan  # noqa: E402
from repro.core.serial import SerialExecutor  # noqa: E402
from repro.models.domains import build_keyed_workload  # noqa: E402
from repro.sharding import (  # noqa: E402
    ShardedEngine,
    flatten_entries,
    stream_phases,
)


def run_rows(
    num_keys: int,
    ticks: int,
    seed: int,
    shard_counts: List[int],
    engine: str,
    repeats: int,
) -> List[Dict[str, Any]]:
    wl = build_keyed_workload(num_keys=num_keys, ticks=ticks, seed=seed)
    phases, buf = stream_phases(wl.arrivals, wait=wl.wait, quantum=wl.quantum)
    oracle = SerialExecutor(compile_plan(wl.program, fuse=False)).run(phases)
    want_entries = flatten_entries(oracle, phases)
    want_state = {
        v: b.snapshot_state()
        for v, b in wl.program.behaviors.items()
        if v.startswith("detect")
    }

    rows: List[Dict[str, Any]] = []
    for shards in shard_counts:
        best_wall = float("inf")
        result = None
        for _ in range(repeats):
            sharded = ShardedEngine(
                wl.program,
                wl.key_of_source.__getitem__,
                shards,
                engine=engine,
                engine_options={"threads": 2, "workers": 2},
            )
            result = sharded.run_stream(
                wl.arrivals, wl.key_of_event,
                wait=wl.wait, quantum=wl.quantum,
            )
            best_wall = min(best_wall, result.wall_time)
        section = result.stats["sharding"]
        per_shard = [s["executions"] for s in section["per_shard"]]
        final = result.final_states()
        oracle_equal = (
            result.entries() == want_entries
            and all(final[v] == s for v, s in want_state.items())
            and sum(s["late_events"] for s in section["per_shard"]) == 0
        )
        rows.append(
            {
                "shards": shards,
                "engine": result.engine,
                "merged_phases": result.phases_run,
                "total_executions": result.execution_count,
                "per_shard_executions": per_shard,
                "max_shard_executions": max(per_shard),
                "keys_per_shard": [
                    s["keys"] for s in section["per_shard"]
                ],
                "merge_max_buffered": section["merge"]["max_buffered"],
                "wall_s": round(best_wall, 6),
                "oracle_equal": oracle_equal,
            }
        )
        print(
            f"shards={shards}: max per-shard executions "
            f"{max(per_shard)}/{result.execution_count} "
            f"(split {per_shard}), wall {best_wall:.4f}s, "
            f"oracle-equal {oracle_equal}"
        )
    return rows


def main(argv=None) -> int:
    args = parse_args(
        "keyed sharding: per-shard work scaling vs the serial oracle",
        argv,
    )
    if args.quick:
        num_keys, ticks, repeats = 6, 20, 1
    else:
        num_keys, ticks, repeats = 16, 120, 3

    shard_counts = [1, 2, 4]
    config = {
        "num_keys": num_keys,
        "ticks": ticks,
        "seed": 11,
        "shard_counts": shard_counts,
        "engine": "parallel",
        "repeats": repeats,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
    }
    started = time.perf_counter()
    rows = run_rows(num_keys, ticks, 11, shard_counts, "parallel", repeats)
    elapsed = time.perf_counter() - started

    all_equal = all(r["oracle_equal"] for r in rows)
    maxes = [r["max_shard_executions"] for r in rows]
    if args.quick:
        criterion = {
            "evaluated": True,
            "passed": all_equal,
            "oracle_equal": all_equal,
        }
    else:
        strictly_decreasing = all(a > b for a, b in zip(maxes, maxes[1:]))
        split_ratio = maxes[-1] / maxes[0] if maxes[0] else 1.0
        criterion = {
            "evaluated": True,
            "passed": all_equal and strictly_decreasing
            and split_ratio <= 0.60,
            "oracle_equal": all_equal,
            "max_executions_by_shards": maxes,
            "strictly_decreasing": strictly_decreasing,
            "four_shard_split_ratio": round(split_ratio, 4),
            "note": "wall-clock reported, not gated: 1-core containers "
            "cannot express scale-out; the work split can",
        }
    print(f"\ntotal bench time {elapsed:.1f}s; criterion: {criterion}")
    return finish(args, "sharding", config, rows, criterion)


if __name__ == "__main__":
    raise SystemExit(main())
