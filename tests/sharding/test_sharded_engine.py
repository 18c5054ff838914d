"""Sharded runs vs the single-instance serial oracle.

The acceptance property of the whole layer: for N in {1, 2, 4}, on any
backend, fused or not, a sharded run of a keyed workload produces the
same merged phase outputs and the same final per-key detector state as
one serial instance running everything.  Comparison happens in
timestamp space (phase numbers are shard-local) and final state covers
the stateful ``detect*`` vertices (sources carry RNG objects with no
value equality).
"""

import pytest

from repro.analysis import validate_engine_stats
from repro.core.plan import compile_plan
from repro.core.serial import SerialExecutor
from repro.events import PhaseInput
from repro.models.domains import build_keyed_workload
from repro.sharding import (
    ShardedEngine,
    flatten_entries,
    stream_phases,
)


def oracle_run(wl):
    phases, buf = stream_phases(wl.arrivals, wait=wl.wait, quantum=wl.quantum)
    assert buf.late_count == 0  # the workload's wait guarantees this
    result = SerialExecutor(compile_plan(wl.program, fuse=False)).run(phases)
    detect_state = {
        v: b.snapshot_state()
        for v, b in wl.program.behaviors.items()
        if v.startswith("detect")
    }
    return phases, result, detect_state


def sharded_run(wl, shards, engine, fuse=True, **options):
    eng = ShardedEngine(
        wl.program,
        wl.key_of_source.__getitem__,
        shards,
        engine=engine,
        engine_options=options or None,
        fuse=fuse,
    )
    return eng.run_stream(
        wl.arrivals, wl.key_of_event, wait=wl.wait, quantum=wl.quantum
    )


def assert_oracle_equal(wl, result):
    phases, oracle, detect_state = oracle_run(wl)
    assert result.entries() == flatten_entries(oracle, phases)
    assert result.phases_run == oracle.phases_run
    final = result.final_states()
    for vertex, state in detect_state.items():
        assert final[vertex] == state, vertex
    sharding = result.stats["sharding"]
    assert sum(s["late_events"] for s in sharding["per_shard"]) == 0
    validate_engine_stats(result.engine, result.stats)


class TestOracleEquality:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("engine", ["serial", "parallel"])
    def test_stream_mode_matches_oracle(self, shards, engine):
        wl = build_keyed_workload(num_keys=8, ticks=30, seed=5)
        result = sharded_run(wl, shards, engine, threads=2)
        assert_oracle_equal(wl, result)

    @pytest.mark.parametrize("fuse", [True, False])
    def test_fused_and_unfused_agree(self, fuse):
        wl = build_keyed_workload(num_keys=6, ticks=25, seed=9)
        result = sharded_run(wl, 2, "serial", fuse=fuse)
        assert_oracle_equal(wl, result)

    def test_process_backend(self):
        wl = build_keyed_workload(num_keys=4, ticks=12, seed=2)
        result = sharded_run(wl, 2, "process", workers=2)
        assert_oracle_equal(wl, result)

    def test_simulated_backend(self):
        wl = build_keyed_workload(num_keys=4, ticks=15, seed=4)
        result = sharded_run(wl, 2, "simulated", workers=2)
        assert_oracle_equal(wl, result)

    def test_work_actually_splits(self):
        wl = build_keyed_workload(num_keys=8, ticks=30, seed=5)
        single = sharded_run(wl, 1, "serial")
        split = sharded_run(wl, 4, "serial")
        per_shard = [
            s["executions"]
            for s in split.stats["sharding"]["per_shard"]
        ]
        # A shard runs only the phases its own keys' events seal, so the
        # total can undercut the single instance (which executes every
        # vertex on every global phase) — it must never exceed it.
        assert sum(per_shard) <= single.execution_count
        assert max(per_shard) < single.execution_count
        assert sum(1 for e in per_shard if e) >= 2


class TestStatsSection:
    def test_schema_and_contents(self):
        wl = build_keyed_workload(num_keys=5, ticks=10, seed=1)
        result = sharded_run(wl, 3, "serial")
        s = result.stats["sharding"]
        assert s["num_shards"] == 3
        assert s["mode"] == "stream"
        assert s["keys"] == 5
        assert s["router"] == {"algorithm": "blake2b-64", "num_shards": 3}
        assert len(s["per_shard"]) == 3
        assert [p["shard"] for p in s["per_shard"]] == [0, 1, 2]
        assert sum(p["keys"] for p in s["per_shard"]) == 5
        assert s["merge"]["phases_merged"] == result.phases_run
        assert result.engine == "sharded[n=3,serial]"

    def test_engine_label_carries_backend(self):
        wl = build_keyed_workload(num_keys=3, ticks=8, seed=0)
        result = sharded_run(wl, 2, "parallel", threads=2)
        assert result.engine == "sharded[n=2,parallel]"


class TestBroadcastMode:
    def test_spec_style_phases_match_single_instance(self):
        wl = build_keyed_workload(num_keys=4, ticks=0, seed=0)
        # Broadcast mode: hand-built increasing-timestamp phases whose
        # values name the keyed sources directly.
        sources = sorted(wl.key_of_source)
        phases = [
            PhaseInput(
                p,
                float(p),
                {
                    s: {
                        "account": wl.key_of_source[s],
                        "amount": round(1.0 + 0.1 * p + i, 3),
                    }
                    for i, s in enumerate(sources)
                },
            )
            for p in range(1, 12)
        ]
        oracle = SerialExecutor(
            compile_plan(wl.program, fuse=False)
        ).run(phases)
        engine = ShardedEngine(
            wl.program, wl.key_of_source.__getitem__, 2, engine="serial"
        )
        result = engine.run(phases)
        # Identical phase numbering in broadcast mode: records compare
        # directly, no timestamp detour needed.
        assert result.phases_run == oracle.phases_run
        assert result.records == oracle.records
        assert result.stats["sharding"]["mode"] == "phases"
        validate_engine_stats(result.engine, result.stats)


class TestRoutingErrors:
    def test_unknown_key_arrival_rejected(self):
        from repro.errors import ShardingError

        wl = build_keyed_workload(num_keys=3, ticks=5, seed=0)
        engine = ShardedEngine(
            wl.program, wl.key_of_source.__getitem__, 2
        )
        with pytest.raises(ShardingError, match="unknown key"):
            engine.run_stream(
                wl.arrivals,
                lambda a: "nobody",
                wait=wl.wait,
                quantum=wl.quantum,
            )

    def test_unknown_engine_rejected(self):
        from repro.errors import ShardingError

        wl = build_keyed_workload(num_keys=2, ticks=5, seed=0)
        with pytest.raises(ShardingError, match="unknown shard engine"):
            ShardedEngine(
                wl.program, wl.key_of_source.__getitem__, 2, engine="gpu"
            )

    def test_unknown_engine_option_rejected(self):
        # A stale scheduling knob must be an error, not silently ignored.
        from repro.errors import ShardingError

        wl = build_keyed_workload(num_keys=2, ticks=5, seed=0)
        with pytest.raises(ShardingError, match="batch_size"):
            ShardedEngine(
                wl.program,
                wl.key_of_source.__getitem__,
                2,
                engine="parallel",
                engine_options={"threads": 2, "batch_size": 4},
            )


class TestDeterminism:
    def test_same_workload_same_merged_output(self):
        wl1 = build_keyed_workload(num_keys=6, ticks=20, seed=7)
        wl2 = build_keyed_workload(num_keys=6, ticks=20, seed=7)
        r1 = sharded_run(wl1, 3, "serial")
        r2 = sharded_run(wl2, 3, "serial")
        assert r1.entries() == r2.entries()
        assert r1.stats["sharding"] == r2.stats["sharding"]

    def test_shard_layout_independent_of_key_insertion_order(self):
        wl = build_keyed_workload(num_keys=6, ticks=10, seed=3)
        plan_a = ShardedEngine(
            wl.program, wl.key_of_source.__getitem__, 3
        ).plan
        plan_b = ShardedEngine(
            wl.program, wl.key_of_source.__getitem__, 3
        ).plan
        assert plan_a.assignment == plan_b.assignment
        assert plan_a.shard_keys == plan_b.shard_keys
