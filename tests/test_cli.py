"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

SPEC = """
<computation name="cli-demo">
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
  <simulation timesteps="10" interval="1.0" seed="5"/>
</computation>
"""


@pytest.fixture
def spec_file(tmp_path: Path) -> str:
    path = tmp_path / "demo.xml"
    path.write_text(SPEC)
    return str(path)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0


class TestRun:
    @pytest.mark.parametrize(
        "engine", ["serial", "parallel", "process", "simulated"]
    )
    def test_engines(self, spec_file, capsys, engine):
        assert main(["run", spec_file, "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert "cli-demo" in out
        assert "out (" in out  # records section

    def test_check_flag(self, spec_file, capsys):
        assert main(["run", spec_file, "--engine", "parallel", "--check"]) == 0
        assert "serializable" in capsys.readouterr().out

    def test_process_engine_check_and_workers(self, spec_file, capsys):
        assert main([
            "run", spec_file, "--engine", "process",
            "--workers", "2", "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "process[w=2]" in out
        assert "is serializable" in out

    def test_stats_json_to_file(self, spec_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "stats.json"
        assert main([
            "run", spec_file, "--engine", "process",
            "--stats-json", str(out_path),
        ]) == 0
        assert "stats written to" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["spec"] == "cli-demo"
        assert payload["engine"] == "process[w=2]"
        assert payload["phases_run"] == 10
        stats = payload["stats"]
        assert stats["num_workers"] == 2
        assert "ipc_round_trips" in stats
        assert "serialization_bytes" in stats
        assert "per_worker_utilization" in stats

    def test_stats_json_to_stdout(self, spec_file, capsys):
        import json

        assert main([
            "run", spec_file, "--engine", "parallel", "--stats-json", "-",
        ]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        end = out.rindex("}") + 1
        payload = json.loads(out[start:end])
        assert payload["engine"].startswith("parallel[")
        assert "lock" in payload["stats"]

    def test_stats_json_serial_engine(self, spec_file, tmp_path):
        import json

        out_path = tmp_path / "stats.json"
        assert main([
            "run", spec_file, "--engine", "serial",
            "--stats-json", str(out_path),
        ]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["engine"] == "serial"
        assert payload["stats"] == {}

    def test_max_records_truncation(self, spec_file, capsys):
        assert main(["run", spec_file, "--max-records", "2"]) == 0
        assert "more" in capsys.readouterr().out

    def test_missing_spec_is_error(self, capsys):
        assert main(["run", "/nonexistent.xml"]) == 1
        assert "error" in capsys.readouterr().err

    def test_deterministic_across_engines(self, spec_file, capsys):
        def body(out: str) -> str:
            # Drop the engine-name header and the coalescing, drain and
            # budget summaries the parallel engine prints (the serial
            # oracle has none).
            lines = out.split("\n")[1:]
            return "\n".join(
                l for l in lines
                if not l.startswith(("coalescing:", "drain:", "budget:"))
            )

        main(["run", spec_file, "--engine", "serial"])
        serial_out = capsys.readouterr().out
        main(["run", spec_file, "--engine", "parallel"])
        parallel_out = capsys.readouterr().out
        # The records section must match (headers differ by engine name).
        assert body(serial_out) == body(parallel_out)


    @pytest.mark.parametrize(
        "engine", ["parallel", "process", "process-remote", "serial"]
    )
    def test_drain_line_follows_the_coalescing_line(
        self, spec_file, tmp_path, capsys, engine
    ):
        # What a budget reader needs to see: which regime ran.
        import json
        from contextlib import nullcontext

        from repro.testing.fuzz import scripted_placement

        path = tmp_path / "stats.json"
        remote = engine == "process-remote"
        with scripted_placement() if remote else nullcontext():
            assert main([
                "run", spec_file, "--engine", engine.split("-")[0],
                "--stats-json", str(path),
            ]) == 0
        lines = capsys.readouterr().out.split("\n")
        if engine == "serial":
            assert not any(l.startswith("drain:") for l in lines)
            return
        stats = json.loads(path.read_text())["stats"]
        drain = stats["drain"]
        expected = (
            f"drain: {drain['inline_runs']} inline runs, "
            f"{drain['pooled_runs']} pooled runs, "
            f"{drain['handovers']} handovers, "
            f"{drain['swept_phases']} swept phases"
        )
        if engine == "process":
            assert stats["ipc"]["promoted"] == []
            expected += ", 0 promoted"
        elif remote:
            promoted = stats["ipc"]["promoted"]
            assert promoted and drain["pooled_runs"] > 0
            expected += f", {len(promoted)} promoted ({', '.join(promoted)})"
        at = [i for i, l in enumerate(lines) if l.startswith("coalescing:")]
        assert len(at) == 1 and lines[at[0] + 1] == expected


class TestBudget:
    """``ScheduleCore`` bills every run to a layer; ``repro run`` prints
    the totals as one ``budget:`` line after ``drain:``."""

    DATA_PATH = ("admit", "claim", "prepare", "compute", "deliver", "commit")

    def run_json(self, spec_file, tmp_path, capsys, engine):
        import json

        path = tmp_path / "stats.json"
        assert main([
            "run", spec_file, "--engine", engine, "--stats-json", str(path),
        ]) == 0
        return capsys.readouterr().out.split("\n"), json.loads(path.read_text())

    @pytest.mark.parametrize("engine", ["parallel", "process"])
    def test_every_data_path_layer_reads_time(
        self, spec_file, tmp_path, capsys, engine
    ):
        lines, payload = self.run_json(spec_file, tmp_path, capsys, engine)
        budget = payload["stats"]["budget"]
        assert all(budget[layer] > 0 for layer in self.DATA_PATH), budget
        assert budget["compute"] == sum(budget["compute_per_worker"].values())
        at = [i for i, l in enumerate(lines) if l.startswith("drain:")]
        assert len(at) == 1 and lines[at[0] + 1].startswith("budget: admit ")

    def test_resident_layers_fit_in_the_coordinators_wall_time(
        self, spec_file, tmp_path, capsys
    ):
        # Every vertex stays in the coordinator, whose one thread runs
        # every layer back to back: together they cannot outlast the run.
        _, payload = self.run_json(spec_file, tmp_path, capsys, "process")
        stats = payload["stats"]
        assert stats["ipc"]["promoted"] == [] and stats["drain"]["pooled_runs"] == 0
        budget = stats["budget"]
        spent = sum(ns for layer, ns in budget.items() if layer != "compute_per_worker")
        assert 0 < spent <= payload["wall_time"] * 1e9, budget
        # The coordinator is worker ``--workers``: no worker computed.
        assert budget["compute_per_worker"] == {"0": 0, "1": 0, "2": budget["compute"]}


class TestInfoValidate:
    def test_info(self, spec_file, capsys):
        assert main(["info", spec_file]) == 0
        out = capsys.readouterr().out
        assert "m-sequence" in out
        assert "RandomWalkSensor" in out
        assert "depth: 3" in out

    def test_validate_ok(self, spec_file, capsys):
        assert main(["validate", spec_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<computation><graph><vertex id='v'/></graph></computation>")
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestClosedStdout:
    """``repro run SPEC | head -1``: the reader leaves after one line."""

    @pytest.mark.parametrize(
        "argv", [["run", "--engine", "serial"], ["info"]], ids=["run", "info"]
    )
    def test_exits_nonzero_with_empty_stderr(self, tmp_path, argv):
        import os
        import subprocess
        import sys

        # 1,200 chains print > 130 kB for either verb — more than a pipe
        # holds — so the child is still writing when the reader goes away.
        chains = "".join(
            f'<vertex id="s{i}" class="RandomWalkSensor">'
            f'<param name="seed" value="{i}" type="int"/></vertex>'
            f'<vertex id="o{i}" class="Recorder"/>'
            f'<edge from="s{i}" to="o{i}"/>'
            for i in range(1200)
        )
        spec = tmp_path / "wide.xml"
        spec.write_text(
            f'<computation name="wide"><graph>{chains}</graph>'
            '<simulation timesteps="3" interval="1.0" seed="5"/>'
            "</computation>"
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv, str(spec)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(Path("src").resolve())),
        )
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) != 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.close()
        assert err == b""


class TestSpeedup:
    def test_sweep(self, spec_file, capsys):
        assert main(
            ["speedup", spec_file, "--workers", "1,2", "--processors", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert out.count("\n") >= 3

    def test_bad_workers(self, spec_file, capsys):
        assert main(["speedup", spec_file, "--workers", "a,b"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_empty_workers(self, spec_file, capsys):
        assert main(["speedup", spec_file, "--workers", ","]) == 2


class TestFigures:
    def test_renders(self, capsys):
        # ``repro report`` is the one exhibit runner: the Figure 2 graph
        # and the Figure 3 frames are rendered in its output.
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "graph 'fig2': 7 vertices, 8 edges" in out
        assert "measured [3, 3, 4, 5, 5, 6, 7, 7]" in out
        assert "(h) (4,1) executed" in out
        assert "legend" in out


class TestFuzz:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--runs", "10", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "distinct interleavings" in out
        assert "all serializable" in out

    def test_single_policy_selection(self, capsys):
        assert main(
            ["fuzz", "--runs", "5", "--seed", "1", "--policy", "round-robin"]
        ) == 0

    def test_injected_fault_is_found(self, capsys):
        assert main(
            ["fuzz", "--runs", "50", "--seed", "0",
             "--inject", "unlocked_commit"]
        ) == 0
        out = capsys.readouterr().out
        assert "detected at run" in out
        assert "replay" in out  # the reproduction recipe is printed

    def test_campaign_is_deterministic(self, capsys):
        assert main(["fuzz", "--runs", "8", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--runs", "8", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first


SERVE_SPEC = Path("specs/serve_accounts.xml")


def _serve_ndjson(path: Path, ticks: int = 40, seed: int = 42) -> int:
    """Deterministic keyed NDJSON replay fixture; returns line count."""
    import json as _json
    import random as _random

    lines = []
    for key in ("a0", "a1", "a2"):
        rng = _random.Random(f"{seed}|{key}")
        for tick in range(ticks):
            if rng.random() < 0.1:
                continue
            amount = 40.0 + 20.0 * rng.random()
            if rng.random() < 0.05:
                amount *= 8.0
            ts = round(tick + rng.gauss(0.0, 0.05), 4)
            arrival = round(tick + 0.3 + 0.4 * rng.random(), 4)
            lines.append((max(ts, arrival), _json.dumps({
                "timestamp": ts,
                "source": f"txn[{key}]",
                "value": round(amount, 3),
                "arrival": max(ts, arrival),
            })))
    lines.sort()
    path.write_text("\n".join(line for _, line in lines) + "\n")
    return len(lines)


class TestServe:
    @pytest.mark.parametrize("engine", ["parallel", "process"])
    def test_replay_spot_checks_pass(self, tmp_path, capsys, engine):
        from repro.analysis.stats import validate_serve_stats

        events = tmp_path / "events.ndjson"
        n_events = _serve_ndjson(events)
        out_path = tmp_path / "stats.json"
        argv = [
            "serve", str(SERVE_SPEC), "--engine", engine,
            "--input", str(events), "--check-sample", "1",
            "--stats-json", str(out_path),
        ]
        if engine == "process":
            argv += ["--workers", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"serve[{engine}]" in out
        assert "0 failed" in out

        import json as _json

        stats = _json.loads(out_path.read_text())
        assert stats["spec"] == "serve-accounts"
        serve = stats["serve"]
        assert validate_serve_stats(serve) == []
        assert serve["events_accepted"] == n_events
        assert serve["phases_retired"] > 0
        assert serve["spot_checks_passed"] == serve["phases_retired"]
        assert serve["spot_checks_failed"] == 0

    @pytest.mark.parametrize("read_size", [7, 1 << 16])
    def test_replay_reports_a_bad_lines_file_line_and_still_drains(
        self, tmp_path, capsys, monkeypatch, read_size
    ):
        # Regression: exit 1 with "line 1 column 1" (a line of the one-line
        # string), and the two events before it were never retired.
        import json as _json

        from repro import cli

        monkeypatch.setattr(cli, "_REPLAY_READ", read_size)
        event = lambda t: _json.dumps(  # noqa: E731
            {"timestamp": float(t), "source": "txn[a0]", "value": 50.0}
        )
        events = tmp_path / "events.ndjson"
        events.write_text("\n".join([event(0), event(1), "not json", event(2)]))
        out_path = tmp_path / "stats.json"
        assert main([
            "serve", str(SERVE_SPEC), "--input", str(events),
            "--stats-json", str(out_path),
        ]) == 1
        captured = capsys.readouterr()
        assert f"error: {events}:3: bad NDJSON event: Expecting value" in (
            captured.err
        )
        assert "serve[parallel] ingested 2 phases, retired 2" in captured.out
        serve = _json.loads(out_path.read_text())["serve"]
        assert serve["events_accepted"] == 2
        assert serve["phases_retired"] == 2

    @pytest.mark.parametrize("read_size", [7, 1 << 16])
    def test_replay_counts_only_newlines_as_line_ends(
        self, tmp_path, capsys, monkeypatch, read_size
    ):
        # Regression: a raw U+2028 / U+2029 / U+0085 inside a JSON string
        # split its line in two — the valid event read as "Unterminated
        # string" and every later line number was shifted.
        import json as _json

        from repro import cli

        monkeypatch.setattr(cli, "_REPLAY_READ", read_size)
        event = lambda t, **extra: _json.dumps(  # noqa: E731
            {"timestamp": float(t), "source": "txn[a0]", "value": 50.0, **extra},
            ensure_ascii=False,
        )
        events = tmp_path / "events.ndjson"
        events.write_text(
            "\n".join([
                event(0, note="a\u2028b\u2029c\x85d"), event(1), "not json",
                event(2),
            ]) + "\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "stats.json"
        assert main([
            "serve", str(SERVE_SPEC), "--input", str(events),
            "--stats-json", str(out_path),
        ]) == 1
        captured = capsys.readouterr()
        assert f"error: {events}:3: bad NDJSON event: Expecting value" in (
            captured.err
        )
        serve = _json.loads(out_path.read_text())["serve"]
        assert serve["events_accepted"] == 2

    def test_replay_deterministic_across_engines(self, tmp_path, capsys):
        events = tmp_path / "events.ndjson"
        _serve_ndjson(events)
        ingested = {}
        for engine in ("parallel", "process"):
            out_path = tmp_path / f"{engine}.json"
            assert main([
                "serve", str(SERVE_SPEC), "--engine", engine,
                "--input", str(events), "--stats-json", str(out_path),
            ]) == 0
            import json as _json

            serve = _json.loads(out_path.read_text())["serve"]
            ingested[engine] = (
                serve["phases_ingested"], serve["events_accepted"]
            )
        assert ingested["parallel"] == ingested["process"]


def _processes_with_marker(marker: str) -> list:
    """PIDs whose environment carries *marker* (linux /proc scan)."""
    import os

    needle = f"REPRO_TEST_MARKER={marker}".encode()
    hits = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if needle in fh.read():
                    hits.append(int(entry))
        except OSError:
            continue
    return hits


@pytest.mark.skipif(
    not Path("/proc").is_dir(), reason="needs /proc for the orphan scan"
)
class TestGracefulSignals:
    """SIGINT/SIGTERM drain in-flight work, emit stats, exit 0, and the
    process backend leaves no orphaned workers behind."""

    def _spawn(self, argv, marker, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["REPRO_TEST_MARKER"] = marker
        env["PYTHONPATH"] = str(Path("src").resolve())
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(tmp_path),
            text=True,
        )

    def _wait_for_line(self, proc, needle, timeout=30.0):
        import select
        import time

        deadline = time.monotonic() + timeout
        lines = []
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 0.25)
            if not ready:
                if proc.poll() is not None:
                    break
                continue
            line = proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            if needle in line:
                return lines
        raise AssertionError(
            f"never saw {needle!r} in output:\n{''.join(lines)}"
        )

    def test_run_process_engine_sigint(self, tmp_path):
        import json as _json
        import signal as _signal
        import uuid

        marker = f"orphan-{uuid.uuid4().hex}"
        stats_path = tmp_path / "stats.json"
        # Long enough that the signal lands mid-run: the shipped 400
        # phases can finish between two polls for the workers.
        spec = tmp_path / "keyed_accounts.xml"
        spec.write_text(
            Path("specs/keyed_accounts.xml").read_text().replace(
                'timesteps="400"', 'timesteps="50000"'
            )
        )
        proc = self._spawn(
            ["run", str(spec), "--engine", "process", "--workers", "2",
             "--stats-json", str(stats_path)],
            marker, tmp_path,
        )
        try:
            import time

            # Wait until worker processes exist: the signal handler is
            # installed before the pool spawns, so once workers carry
            # the marker the parent is guaranteed to trap SIGINT.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if len(_processes_with_marker(marker)) >= 2:
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("workers never spawned")
            proc.send_signal(_signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        # The final stats json was still written on the signal path.
        stats = _json.loads(stats_path.read_text())
        assert stats["spec"] == "keyed-accounts"
        assert stats["phases_run"] >= 0
        assert _processes_with_marker(marker) == []

    def test_serve_http_sigterm(self, tmp_path):
        import json as _json
        import signal as _signal
        import uuid

        marker = f"orphan-{uuid.uuid4().hex}"
        stats_path = tmp_path / "stats.json"
        spec = Path("specs/serve_accounts.xml").resolve()
        proc = self._spawn(
            ["serve", str(spec), "--port", "0",
             "--stats-json", str(stats_path)],
            marker, tmp_path,
        )
        try:
            self._wait_for_line(proc, "serving ")
            proc.send_signal(_signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        stats = _json.loads(stats_path.read_text())
        assert "serve" in stats
        assert _processes_with_marker(marker) == []


class TestRefusals:
    """A bad value or path the user gave is one ``error:`` line and exit
    1 — never a traceback, and for ``serve`` never a started session."""

    def _refused(self, *argv):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr
        return proc.stderr

    @pytest.mark.parametrize(
        "option, value",
        [("--wait", "nan"), ("--wait", "inf"),
         ("--quantum", "nan"), ("--quantum", "inf")],
    )
    def test_serve_non_finite_reorder_parameter(self, option, value):
        err = self._refused("serve", str(SERVE_SPEC), option, value)
        assert "finite" in err

    @pytest.mark.parametrize(
        "option, value", [("--max-phases", "-1"), ("--port", "70000")]
    )
    def test_serve_out_of_range_value(self, option, value):
        err = self._refused("serve", str(SERVE_SPEC), option, value)
        assert option in err

    def test_serve_missing_input(self, tmp_path):
        missing = tmp_path / "nonexistent.ndjson"
        self._refused("serve", str(SERVE_SPEC), "--input", str(missing))

    def test_serve_input_is_a_directory(self, tmp_path):
        self._refused("serve", str(SERVE_SPEC), "--input", str(tmp_path))

    def test_run_unwritable_stats_json(self, tmp_path, spec_file):
        unwritable = tmp_path / "nonexistent" / "s.json"
        self._refused("run", spec_file, "--stats-json", str(unwritable))

    def test_report_unwritable_output(self, tmp_path):
        unwritable = tmp_path / "nonexistent" / "r.txt"
        self._refused("report", "--quick", "-o", str(unwritable))

    def test_run_negative_max_records(self, spec_file):
        err = self._refused("run", spec_file, "--max-records", "-1")
        assert "--max-records" in err

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_fuzz_runs_below_one(self, runs):
        # Zero schedules explored is no pass, with or without --inject.
        assert "--runs" in self._refused("fuzz", "--runs", runs)
        assert "--runs" in self._refused(
            "fuzz", "--runs", runs, "--inject", "unlocked_commit"
        )

    @pytest.mark.parametrize(
        "option, value",
        [("--max-vertices", "1"), ("--max-vertices", "0"),
         ("--max-phases", "0"), ("--max-phases", "-3")],
    )
    def test_fuzz_workload_bound_below_its_least(self, option, value):
        # The generator would clamp it and fuzz a different workload.
        assert option in self._refused("fuzz", "--runs", "2", option, value)

    @pytest.mark.parametrize(
        "option, value",
        [("--compute-cost", "nan"), ("--compute-cost", "inf"),
         ("--bookkeeping-cost", "nan")],
    )
    def test_speedup_non_finite_cost(self, option, value):
        err = self._refused("speedup", "specs/anomaly_watch.xml", option, value)
        assert "finite" in err
