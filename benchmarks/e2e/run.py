"""bench_e2e — one command, four workloads, every metric by name with its unit.

    python3 benchmarks/e2e/run.py                       # all four, untraced then traced
    python3 benchmarks/e2e/run.py --workload http_keyed --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --quick               # < 30 s self-check
    python3 benchmarks/e2e/run.py --calibrate 10        # A/A spreads -> CALIBRATION.json

(``PYTHONPATH=src python -m benchmarks.e2e.run`` is the same program.)

A run of one workload repeats fixed-size rounds — each in a fresh process,
see ``rounds.py`` — until ``--seconds`` of measuring are used up, checks
every sink record of every round against the serial oracle, and reports
medians over the rounds.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer table (end-to-end numbers never come from a traced round).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any record is wrong or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench_e2e: no program to measure: {ROOT / 'src' / 'repro'} is missing")

from benchmarks.e2e import metrics as M  # noqa: E402
from benchmarks.e2e import rounds as R  # noqa: E402
from benchmarks.e2e import workloads as W  # noqa: E402
from benchmarks.e2e.loadgen import percentile  # noqa: E402
from repro.core.plan import compile_plan  # noqa: E402

MIN_ROUNDS = 3
# A round during which the hypervisor took more than this share of the CPU
# time the machine asked for measures the neighbours, not the program.
MAX_STEAL_SHARE = 0.05
HARD_CAP_S = 150.0  # a run must exit well inside the driver's 180 s
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def benchmark_json() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one workload -------------------------------------------------------------------


def _one_round(
    children: R.Children, workload: W.Workload, stream: W.Stream,
    seed: int, quick: bool, traced: bool,
) -> Dict[str, Any]:
    if workload.kind == "http":
        return R.http_round(children, workload, stream, traced)
    return R.run_child_round(children, workload, seed, quick, traced)


def _cpu_times() -> List[int]:
    """System-wide jiffies: user nice system idle iowait irq softirq steal."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return [0] * 8


def _steal_share(before: List[int], after: List[int]) -> float:
    """Stolen share of the CPU time that was demanded between two samples."""
    d = [b - a for a, b in zip(before, after)]
    demanded = d[0] + d[1] + d[2] + d[7]
    return d[7] / demanded if demanded > 0 else 0.0


def undisturbed(rounds: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The rounds whose steal share stayed under MAX_STEAL_SHARE — or, when
    fewer than MIN_ROUNDS did, the MIN_ROUNDS least disturbed ones."""
    calm = [r for r in rounds if r["steal_share"] <= MAX_STEAL_SHARE]
    if len(calm) >= min(MIN_ROUNDS, len(rounds)):
        return calm
    return sorted(rounds, key=lambda r: r["steal_share"])[:MIN_ROUNDS]


def _rate(round_: Dict[str, Any]) -> float:
    return round_["closed_events"] / round_["closed_wall_s"]


def _failures(round_: Dict[str, Any], stream: W.Stream, oracle: W.Oracle) -> Dict[str, int]:
    """Everything that went wrong in one round, by kind (all zero at HEAD)."""
    got = {ts: entries for ts, entries in round_["sink"]}
    missing, differing = W.count_wrong(oracle.expected, got)
    return {
        "refused_events": round_["refused_events"],
        "missing_phases": missing,
        "differing_phases": differing,
        "late_mismatch": abs(round_["late_events"] - stream.late),
    }


def measure(
    children: R.Children, name: str, seed: int, seconds: float,
    trace: bool, quick: bool,
) -> Dict[str, Any]:
    """Run workload *name* for about *seconds* and aggregate its rounds."""
    workload = W.WORKLOADS[name]
    stream = W.build_stream(workload, seed, quick=quick)
    oracle = W.run_oracle(workload, stream)
    stages = compile_plan(W.build_program(workload)).program.n

    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    failed: Dict[str, int] = {}
    began = time.monotonic()
    while True:
        lap = time.monotonic()
        for is_traced in ((False, True) if trace else (False,)):
            cpu = _cpu_times()
            round_ = _one_round(children, workload, stream, seed, quick, is_traced)
            round_["steal_share"] = _steal_share(cpu, _cpu_times())
            for kind, count in _failures(round_, stream, oracle).items():
                failed[kind] = failed.get(kind, 0) + count
            del round_["sink"]
            (traced if is_traced else plain).append(round_)
        now = time.monotonic()
        elapsed, last = now - began, now - lap
        if quick or elapsed > HARD_CAP_S:
            break
        if len(plain) >= MIN_ROUNDS and elapsed + last > seconds:
            break  # the next round would not fit
        if len(plain) >= 2 and elapsed > seconds:
            break  # a slow host: already past the budget

    kept = undisturbed(plain)
    samples = [x for r in kept for x in r["latencies_ms"]]
    open_missing = sum(r["open_missing"] for r in plain)
    end_to_end = {
        "events_per_s": median(_rate(r) for r in kept),
        "latency_p50_ms": percentile(samples, 0.50),
        "peak_rss_mb": median(r["rss_mb"] for r in kept),
        "setup_s": median(r["setup_s"] for r in kept),
    }
    out: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "rounds": len(plain),
        "rounds_kept": len(kept),
        "latency_samples": len(samples),
        "latency_p99_ms": percentile(samples, 0.99),  # reported, not bounded
        "attempted": stream.events * (len(plain) + len(traced)),
        "failed": sum(failed.values()),
        "failures": failed,
        "open_loop_missing": open_missing,
        "end_to_end": end_to_end,
        "raw": {
            "events_per_s": [_rate(r) for r in plain],
            "setup_s": [r["setup_s"] for r in plain],
            "peak_rss_mb": [r["rss_mb"] for r in plain],
            "gen_late_share": [r["gen_late_share"] for r in plain],
            "steal_share": [r["steal_share"] for r in plain],
        },
    }
    if trace:
        out["per_layer"], out["reasons"] = _per_layer(
            traced, plain, oracle, stages, end_to_end, out["latency_p99_ms"]
        )
        out["spans"] = [r["trace"] for r in traced if r.get("trace")]
    return out


def _per_layer(
    traced: List[Dict[str, Any]], plain: List[Dict[str, Any]],
    oracle: W.Oracle, stages: int, end_to_end: Dict[str, float], p99_ms: float,
) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Median of each per-layer metric over the traced rounds, plus the
    ones that need the untraced rounds or the oracle."""
    steal = median(r["steal_share"] for r in traced + plain)
    traced = undisturbed(traced)
    rows = []
    for round_ in traced:
        round_["stages"] = stages
        rows.append(M.per_layer(round_))
    table: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}
    missing_probes: Dict[str, str] = {}
    for round_ in traced:
        missing_probes.update((round_.get("trace") or {}).get("missing") or {})
    for name, _unit, _better in M.PER_LAYER:
        values = [row[name] for row in rows if row.get(name) is not None]
        table[name] = median(values) if values else None
    traced_rate = median(_rate(r) for r in traced)
    table["serve.session.latency_p99_ms"] = p99_ms
    table["core.serial.events_per_s"] = oracle.events_per_s
    table["speedup_vs_serial"] = end_to_end["events_per_s"] / oracle.events_per_s
    table["bench.trace_overhead_share"] = 1.0 - traced_rate / end_to_end["events_per_s"]
    table["bench.steal_share"] = steal
    for name, value in table.items():
        if value is None:
            probe = next((why for span, why in missing_probes.items()
                          if name.startswith(span.rsplit(".", 1)[0])), None)
            reasons[name] = probe or "layer does not run on this workload"
    return table, reasons


# -- output -------------------------------------------------------------------------


def _units() -> Dict[str, str]:
    return {name: unit for name, unit, _ in M.END_TO_END + M.PER_LAYER}


def print_result(result: Dict[str, Any]) -> None:
    units = _units()
    print(f"\n== {result['workload']}  seed={result['seed']}  "
          f"rounds={result['rounds_kept']}/{result['rounds']} undisturbed"
          f"  attempted={result['attempted']}  failed={result['failed']}")
    for name, value in result["end_to_end"].items():
        extra = (f"   (n={result['latency_samples']} samples; p99 "
                 f"{result['latency_p99_ms']:.4f} ms, not bounded)"
                 if name.startswith("latency") else "")
        print(f"  {name:<42} {value:>14.4f} {units[name]}{extra}")
    for name, value in (result.get("per_layer") or {}).items():
        if value is None:
            print(f"  {name:<42} {'n/a':>14} {units[name]}   ({result['reasons'][name]})")
        else:
            print(f"  {name:<42} {value:>14.4f} {units[name]}")
    if result["failed"]:
        print(f"  FAILURES: {result['failures']}")


def contract_line(result: Dict[str, Any], trace: bool) -> str:
    """The driver's result object: exactly correct/attempted/failed/metrics."""
    units = _units()
    values = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            # A metric with no value on this workload is sent as 0.
            name: {"value": 0.0 if value is None else value, "unit": units[name]}
            for name, value in values.items()
        },
    })


def check_names(results: List[Dict[str, Any]]) -> List[str]:
    """``--quick``: every named metric present, well-formed, unit attached,
    and the lists here equal to BENCHMARK.json's."""
    problems: List[str] = []
    doc = benchmark_json()
    for key, table in (("end_to_end", M.END_TO_END), ("per_layer", M.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        if declared != table:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    if [w["name"] for w in doc["workloads"]] != list(W.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for w in doc["workloads"]:
        if w["why"] != W.WORKLOADS[w["name"]].why:
            problems.append(f"BENCHMARK.json why of {w['name']} differs")
    units = _units()
    for name in units:
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not units[name]:
            problems.append(f"metric {name} has no unit")
    for result in results:
        table = {**result["end_to_end"], **result.get("per_layer", {})}
        expected = units if "per_layer" in result else [n for n, _, _ in M.END_TO_END]
        for name in expected:
            if name not in table:
                problems.append(f"{result['workload']}: {name} not reported")
        if result["failed"]:
            problems.append(f"{result['workload']}: failed={result['failed']}")
    return problems


# -- calibration ----------------------------------------------------------------------


def spread(values: List[float]) -> Dict[str, float]:
    q1, _q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid}


def calibrate(children: R.Children, runs: int, seed: int, seconds: float) -> int:
    """Two A/A sets of *runs* runs per workload (seeds ``seed``..), the
    per-metric spreads of each and the shift between their medians,
    written to CALIBRATION.json.  Bounds in BENCHMARK.json are set from it
    by hand: max(10 %, 2 x spread), capped at the contract's 25 %."""
    sets: List[Dict[str, Any]] = []
    failed = 0
    for which in range(2):
        table: Dict[str, Dict[str, List[float]]] = {}
        for i in range(runs):
            for name in W.WORKLOADS:
                result = measure(children, name, seed + i, seconds, False, False)
                failed += result["failed"]
                for metric, value in result["end_to_end"].items():
                    table.setdefault(name, {}).setdefault(metric, []).append(value)
                print(f"set {which + 1} run {i + 1}/{runs} {name}: "
                      + "  ".join(f"{k}={v:.4g}" for k, v in result["end_to_end"].items()),
                      flush=True)
        sets.append({
            name: {metric: {"values": values, **spread(values)}
                   for metric, values in per.items()}
            for name, per in table.items()
        })
    shift = {
        name: {
            metric: sets[1][name][metric]["median"] / sets[0][name][metric]["median"] - 1.0
            for metric in sets[0][name]
        }
        for name in sets[0]
    }
    doc = {
        "runs_per_set": runs, "first_seed": seed, "seconds": seconds,
        "ops_failed": failed, "sets": sets, "median_shift_second_vs_first": shift,
    }
    (HERE / "CALIBRATION.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {HERE / 'CALIBRATION.json'}")
    return 1 if failed else 0


# -- entry point ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=None,
                        help="0: end-to-end metrics; 1: the per-layer table")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one round, self-check of names and units")
    parser.add_argument("--out", metavar="DIR",
                        help="also write results.json (raw rounds, span dump) here")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="two A/A sets of N runs per workload -> CALIBRATION.json")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else benchmark_json()["run_seconds"]

    children = R.Children()

    def on_signal(signum: int, frame: Any) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    try:
        if args.calibrate:
            return calibrate(children, args.calibrate, args.seed, seconds)
        names = [args.workload] if args.workload else list(W.WORKLOADS)
        if args.trace is not None:
            passes = [bool(args.trace)]
        else:  # a traced pass reports both tables; the full run keeps them apart
            passes = [True] if args.quick else [False, True]
        results = []
        for trace in passes:
            for name in names:
                result = measure(children, name, args.seed, seconds, trace, args.quick)
                print_result(result)
                results.append(result)
        problems = check_names(results) if args.quick else []
        for problem in problems:
            print(f"QUICK CHECK FAILED: {problem}")
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
        failed = sum(r["failed"] for r in results)
        if args.workload and args.trace is not None:
            print(contract_line(results[0], bool(args.trace)))
        return 1 if failed or problems else 0
    finally:
        children.reap_all()


if __name__ == "__main__":
    sys.exit(main())
