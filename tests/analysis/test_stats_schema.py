"""Stats-schema regression tests.

``repro run --stats-json`` output must validate against the documented
schema (:mod:`repro.analysis.stats`) for every engine — in particular the
``frontier`` section every scheduling engine reports.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.stats import (
    validate_coalescing_stats,
    validate_engine_stats,
    validate_frontier_stats,
)
from repro.cli import main

SPEC = """
<computation name="stats-demo">
  <graph>
    <vertex id="sensor" class="RandomWalkSensor">
      <param name="seed" value="1" type="int"/>
    </vertex>
    <vertex id="avg" class="MovingAverage">
      <param name="window" value="3" type="int"/>
    </vertex>
    <vertex id="out" class="Recorder"/>
    <edge from="sensor" to="avg"/>
    <edge from="avg" to="out"/>
  </graph>
  <simulation timesteps="8" interval="1.0" seed="5"/>
</computation>
"""


@pytest.fixture
def spec_file(tmp_path: Path) -> str:
    path = tmp_path / "demo.xml"
    path.write_text(SPEC)
    return str(path)


class TestStatsJsonSchema:
    @pytest.mark.parametrize(
        "engine", ["serial", "parallel", "process", "simulated"]
    )
    def test_every_engine_validates(self, spec_file, tmp_path, engine):
        out_path = tmp_path / f"{engine}.json"
        assert main([
            "run", spec_file, "--engine", engine,
            "--stats-json", str(out_path),
        ]) == 0
        payload = json.loads(out_path.read_text())
        errors = validate_engine_stats(payload["engine"], payload["stats"])
        assert not errors, errors
        if engine == "serial":
            assert payload["stats"] == {}
        else:
            section = payload["stats"]["frontier"]
            assert section["mode"] == "cone"
            assert section["cone_count"] == 3  # a 3-vertex chain


class TestValidatorUnit:
    def test_accepts_valid_section(self):
        cone = {"mode": "cone", "cone_count": 4, "max_phase_skew": 2}
        assert validate_frontier_stats(cone) == []
        assert validate_frontier_stats(
            {**cone, "mode": "global", "frontier_advances": 17}
        ) == []

    def test_frontier_advances_belongs_to_the_global_mode_only(self):
        # Only Listings 1-2 have an x_p whose advances can be counted.
        cone = {"mode": "cone", "cone_count": 4, "max_phase_skew": 2}
        errors = validate_frontier_stats({**cone, "frontier_advances": 17})
        assert any("unexpected keys" in e for e in errors)
        errors = validate_frontier_stats({**cone, "mode": "global"})
        assert any("frontier_advances" in e for e in errors)

    def test_rejects_bad_mode_and_types(self):
        errors = validate_frontier_stats({
            "mode": "both",
            "cone_count": 0,
            "max_phase_skew": True,
        })
        assert len(errors) == 3
        errors = validate_frontier_stats({
            "mode": "global",
            "cone_count": 1,
            "max_phase_skew": 0,
            "frontier_advances": "many",
        })
        assert len(errors) == 1

    def test_rejects_unknown_keys_and_missing(self):
        errors = validate_frontier_stats({"mode": "global", "extra": 1})
        assert any("unexpected keys" in e for e in errors)
        assert any("cone_count" in e for e in errors)

    def test_engine_dispatch(self):
        assert validate_engine_stats("serial", {}) == []
        assert validate_engine_stats("serial", {"frontier": {}}) != []
        assert validate_engine_stats("parallel[k=2]", {}) != []
        good = {
            "frontier": {
                "mode": "global",
                "cone_count": 1,
                "max_phase_skew": 0,
                "frontier_advances": 0,
            },
            "coalescing": {
                "runs_scheduled": 0,
                "pairs_coalesced": 0,
                "mean_run_length": 0.0,
            },
            "per_worker_executions": {0: 3, "1": 4},  # int or JSON keys
            "edge_entries_peak": 5,
            "edge_entries_final": 0,
            "budget": {
                "admit": 1, "claim": 1, "prepare": 1, "compute": 3,
                "deliver": 1, "commit": 1, "retire": 0,
                "compute_per_worker": {0: 1, "1": 2},
            },
        }
        for engine in ("parallel[k=2]", "process[w=2]", "simulated[k=2,P=2]"):
            assert validate_engine_stats(engine, good) == []
        # Scheduling engines must report every section ScheduleCore.result
        # guarantees.
        missing = {"frontier": dict(good["frontier"])}
        errors = validate_engine_stats("parallel[k=2]", missing)
        for section in (
            "coalescing", "per_worker_executions",
            "edge_entries_peak", "edge_entries_final", "budget",
        ):
            assert any(section in e for e in errors), section
        bad = dict(
            good,
            per_worker_executions={0: -1},
            edge_entries_final=True,
            budget=dict(good["budget"], commit=-5, compute_per_worker={0: 0.5}),
        )
        errors = validate_engine_stats("simulated[k=2,P=2]", bad)
        assert any("per_worker_executions.0" in e for e in errors)
        assert any("edge_entries_final" in e for e in errors)
        assert any("budget.commit" in e for e in errors)
        assert any("budget.compute_per_worker.0" in e for e in errors)

    def test_non_mapping_stats(self):
        assert validate_engine_stats("parallel[k=1]", None) != []
        assert validate_frontier_stats(7) != []


def _good_coalescing_section():
    return {
        "runs_scheduled": 10,
        "pairs_coalesced": 30,
        "mean_run_length": 4.0,
    }


class TestCoalescingValidator:
    def test_accepts_valid_sections(self):
        assert validate_coalescing_stats(_good_coalescing_section()) == []
        assert validate_coalescing_stats({
            "runs_scheduled": 0,
            "pairs_coalesced": 0,
            "mean_run_length": 0.0,
        }) == []

    def test_rejects_bad_types(self):
        errors = validate_coalescing_stats({
            "runs_scheduled": True,
            "pairs_coalesced": -1,
            "mean_run_length": "many",
        })
        assert len(errors) == 3

    def test_rejects_inconsistent_mean(self):
        section = _good_coalescing_section()
        section["mean_run_length"] = 2.5  # should be 40/10
        errors = validate_coalescing_stats(section)
        assert any("mean_run_length" in e for e in errors)

    def test_rejects_unknown_keys(self):
        section = _good_coalescing_section()
        section["bonus"] = 1
        assert any(
            "unexpected keys" in e
            for e in validate_coalescing_stats(section)
        )
