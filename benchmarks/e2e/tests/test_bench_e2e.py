"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

The arithmetic (tracer self time, open-loop due-time stamping, the
percentile, the steal filter, stream determinism) is unit-tested with fake
clocks; two subprocess tests drive the real command in ``--quick`` mode.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import metrics as M  # noqa: E402
from benchmarks.e2e import run as bench  # noqa: E402
from benchmarks.e2e import workloads as W  # noqa: E402
from benchmarks.e2e.loadgen import open_loop, percentile, phase_latencies_ms  # noqa: E402
from benchmarks.e2e.trace import Tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, by) -> None:
        self.now += by


# -- tracer ---------------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(30)

    leaf = tracer.wrap("layer.leaf", leaf)

    def middle():
        clock.advance(5)
        leaf()
        leaf()
        clock.advance(5)

    middle = tracer.wrap("layer.middle", middle)

    def root():
        clock.advance(100)
        middle()
        clock.advance(1)

    tracer.wrap("other.root", root)()
    spans = tracer.report()["spans"]
    assert spans["layer.leaf"] == {"calls": 2, "total_us": 0.06, "self_us": 0.06}
    assert spans["layer.middle"] == {"calls": 1, "total_us": 0.07, "self_us": 0.01}
    assert spans["other.root"] == {"calls": 1, "total_us": 0.171, "self_us": 0.101}
    # Self times partition the root's duration exactly.
    assert sum(s["self_us"] for s in spans.values()) == pytest.approx(0.171)
    (thread,) = tracer.report()["threads"].values()
    assert thread["root_us"] == 0.171


def test_self_time_survives_an_exception_in_a_child():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(7)
        raise ValueError("x")

    boom = tracer.wrap("a.child", boom)

    def parent():
        clock.advance(3)
        try:
            boom()
        except ValueError:
            pass

    tracer.wrap("a.parent", parent)()
    spans = tracer.report()["spans"]
    assert spans["a.child"]["self_us"] == 0.007
    assert spans["a.parent"]["self_us"] == 0.003


def test_sampled_spans_share_parent_and_phase():
    clock = FakeClock()
    tracer = Tracer(sample_every=1, clock=clock)
    inner = tracer.wrap("core.program.prepare", lambda self, v, p: clock.advance(1))
    outer = tracer.wrap("x.outer", lambda: inner(None, 3, 42))
    outer()
    child, parent = tracer.report()["sampled"]
    assert child["name"] == "core.program.prepare" and child["phase"] == 42
    assert child["parent"] == parent["id"] and parent["parent"] == 0


def test_missing_probe_is_noted_and_install_is_reversible():
    module = types.ModuleType("bench_e2e_fake_layer")
    module.present = lambda: "real"
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.install([
            ("fake.present", module.__name__, "present"),
            ("fake.renamed", module.__name__, "no_such_function"),
            ("fake.gone", "bench_e2e_no_such_module", "f"),
        ])
        assert module.present() == "real"
        assert tracer.report()["spans"]["fake.present"]["calls"] == 1
        assert set(tracer.missing) == {"fake.renamed", "fake.gone"}
        tracer.uninstall()
        assert module.present() == "real"
        assert tracer.report()["spans"]["fake.present"]["calls"] == 1
    finally:
        del sys.modules[module.__name__]


def test_unmeasurable_layer_metrics_are_none_not_zero():
    table = M.per_layer({"trace": {"spans": {}, "threads": {}}, "phases": 10})
    assert table["runtime.mp.encode_us"] is None
    assert table["serve.server.post_ms"] is None
    assert set(table) | {
        "serve.session.latency_p99_ms", "core.serial.events_per_s", "speedup_vs_serial",
        "bench.trace_overhead_share", "bench.steal_share",
    } == {name for name, _, _ in M.PER_LAYER}


# -- open loop ------------------------------------------------------------------------


def _drive(stall_on=None, stall=0.0):
    """Five groups at 10 ms; the system answers 2 ms after each send ends."""
    clock = FakeClock()
    receipt = {}

    def send(group):
        if group == stall_on:
            clock.advance(stall)
        clock.advance(0.001)
        receipt[group + 1] = clock() + 0.002  # phase g+1 sealed by group g

    due, lag = open_loop(range(5), 0.010, send, clock=clock, sleep=clock.advance)
    latencies, missing = phase_latencies_ms(list(range(5)), 0, due, receipt)
    return due, lag, latencies, missing


def test_due_times_are_a_fixed_schedule():
    due, lag, latencies, missing = _drive()
    assert [round(d, 6) for d in due] == [0.0, 0.010, 0.020, 0.030, 0.040]
    assert lag == pytest.approx([0.0] * 5, abs=1e-9) and missing == 0
    assert all(abs(x - 3.0) < 1e-9 for x in latencies)


def test_a_generator_stall_lengthens_reported_latency():
    due, lag, latencies, _ = _drive(stall_on=1, stall=0.025)
    # The schedule did not move ...
    assert [round(d, 6) for d in due] == [0.0, 0.010, 0.020, 0.030, 0.040]
    # ... so the stalled send and everything queued behind it is charged
    # from when it was due, not from when it was finally sent.
    assert [round(x, 6) for x in latencies] == [3.0, 28.0, 19.0, 10.0, 3.0]
    assert [round(x, 6) for x in lag] == [0.0, 0.0, 0.016, 0.007, 0.0]


def test_phases_that_never_arrive_are_counted_not_dropped():
    latencies, missing = phase_latencies_ms(
        [0, 0, 1, None], 0, [0.0, 0.010], {1: 0.004, 3: 0.015}
    )
    assert [round(x, 6) for x in latencies] == [4.0, 5.0] and missing == 1


def test_closed_loop_phases_get_no_latency_sample():
    latencies, missing = phase_latencies_ms(
        [0, 1, 2], 2, [1.0], {1: 0.5, 2: 0.6, 3: 1.25}
    )
    assert latencies == [250.0] and missing == 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0


# -- workloads ------------------------------------------------------------------------


def test_streams_are_pure_functions_of_the_seed():
    for workload in W.WORKLOADS.values():
        a = W.build_stream(workload, 7, quick=True)
        b = W.build_stream(workload, 7, quick=True)
        c = W.build_stream(workload, 8, quick=True)
        assert a.groups == b.groups and a.phases == b.phases and a.late == b.late
        assert a.groups != c.groups
        assert a.accepted + a.late == a.events
        assert len(a.sealed_by) == len(a.phases)
        sealed = [g for g in a.sealed_by if g is not None]
        assert sealed == sorted(sealed)


def test_keyed_stream_has_drops_disorder_and_a_late_set():
    stream = W.build_stream(W.WORKLOADS["http_keyed"], 1)
    ticks = sum(W.WORKLOADS["http_keyed"].sizes(False))
    assert 0.85 < stream.events / (ticks * len(W.KEYS)) < 0.95  # ~10 % dropped
    assert 0.003 < stream.late / stream.events < 0.02  # ~1 % late
    stamps = [e.event.timestamp for g in stream.groups for e in g]
    assert stamps != sorted(stamps)  # arrival order is not timestamp order
    assert 1 <= stream.closed_last_phase < len(stream.phases)


def test_oracle_comparison_counts_missing_and_differing_phases():
    expected = {0.0: [["a", 1]], 1.0: [], 2.0: [["a", [1, 2]]]}
    assert W.count_wrong(expected, dict(expected)) == (0, 0)
    assert W.count_wrong(expected, {0.0: [["a", 1]], 2.0: [["a", [1, 3]]]}) == (1, 1)
    assert W.count_wrong(expected, {**expected, 9.0: []}) == (0, 1)


def test_why_strings_fit_the_benchmark_json_contract():
    for workload in W.WORKLOADS.values():
        assert 0 < len(workload.why) <= 200 and "\n" not in workload.why


# -- the steal filter -----------------------------------------------------------------


def test_disturbed_rounds_are_dropped_when_enough_calm_ones_remain():
    rounds = [{"steal_share": s} for s in (0.0, 0.30, 0.01, 0.02, 0.50)]
    assert [r["steal_share"] for r in bench.undisturbed(rounds)] == [0.0, 0.01, 0.02]


def test_least_disturbed_rounds_are_kept_when_the_host_is_never_calm():
    rounds = [{"steal_share": s} for s in (0.40, 0.0, 0.20, 0.30)]
    assert [r["steal_share"] for r in bench.undisturbed(rounds)] == [0.0, 0.20, 0.30]


def test_steal_share_is_stolen_over_demanded():
    before = [100, 0, 50, 1000, 0, 0, 0, 10]
    after = [160, 0, 70, 1500, 0, 0, 0, 30]
    assert bench._steal_share(before, after) == 20 / (60 + 20 + 20)
    assert bench._steal_share(before, before) == 0.0


# -- the real command -----------------------------------------------------------------


def _run(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )


def test_quick_reports_every_named_metric_and_no_failures():
    done = _run("--quick")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "QUICK CHECK FAILED" not in done.stdout
    for name in W.WORKLOADS:
        assert f"== {name} " in done.stdout
    for name, unit, _ in M.END_TO_END + M.PER_LAYER:
        assert f"  {name} " in done.stdout, name


def test_contract_line_has_exactly_the_drivers_keys():
    for trace, table in (("0", M.END_TO_END), ("1", M.PER_LAYER)):
        done = _run("--workload", "batch_grid_threaded", "--seed", "5",
                    "--seconds", "1", "--trace", trace, "--quick")
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [name for name, _, _ in table]
        for name, unit, _ in table:
            assert set(result["metrics"][name]) == {"value", "unit"}
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float))
