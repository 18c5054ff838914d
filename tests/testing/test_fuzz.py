"""The stress driver: clean campaigns pass, seeded bugs are found,
failures shrink and replay.

The injected-fault tests are the acceptance test for the whole harness:
a green fuzz run is only evidence if the same harness demonstrably turns
red when a known concurrency bug is planted.
"""

import hashlib
import importlib

import pytest

from repro.testing.faults import FaultPlan
from repro.testing.fuzz import (
    WorkloadSpec,
    fuzz,
    replay_failure,
    run_one,
    spec_for_run,
)
from repro.testing.schedule import ReplayPolicy, make_policy


class TestWorkloadSpec:
    def test_build_is_reproducible(self):
        spec = spec_for_run(0, 3)
        prog_a, phases_a = spec.build()
        prog_b, phases_b = spec.build()
        assert sorted(prog_a.graph.vertices()) == sorted(prog_b.graph.vertices())
        assert len(phases_a) == len(phases_b) == spec.phases

    def test_specs_vary_across_runs(self):
        specs = {spec_for_run(0, i) for i in range(10)}
        assert len(specs) > 1

    def test_flow_bound_and_family_derive_from_the_run_seed(self):
        # Admission must interleave with commits in part of every
        # campaign (a burst-admitted short stream gives an unlocked
        # start nothing to race with), and part of it must repeat values
        # on its edges; both are workload dimensions like ``threads``.
        specs = [spec_for_run(0, i) for i in range(40)]
        assert {s.max_in_flight for s in specs} == {None, 1, 2}
        assert {s.repeated for s in specs} == {True, False}
        assert specs == [spec_for_run(0, i) for i in range(40)]

    def test_sources_are_delta_sparse(self):
        # With a low delta probability, some phases emit nothing.
        spec = WorkloadSpec(
            n_vertices=3, edge_prob=0.5, graph_seed=1, phases=12,
            delta_prob=0.3, stream_seed=2, threads=2,
        )
        program, phases = spec.build()
        from repro.core.serial import SerialExecutor

        result = SerialExecutor(program).run(phases)
        # Every phase executes its sources, but downstream pairs only run
        # when a message arrived, so executions < vertices * phases.
        assert result.execution_count < spec.n_vertices * spec.phases


class TestCleanCampaign:
    def test_bounded_fuzz_passes_with_distinct_interleavings(self):
        report = fuzz(runs=30, seed=0)
        assert report.ok, report.summary()
        assert report.distinct_interleavings == 30
        assert report.total_checks > 0

    def test_campaign_reproducible(self):
        a = fuzz(runs=10, seed=5)
        b = fuzz(runs=10, seed=5)
        assert a.total_steps == b.total_steps
        assert a.distinct_interleavings == b.distinct_interleavings

    def test_explored_schedules_are_pinned(self, monkeypatch):
        # Every scheduling decision of every interleaving the campaign
        # explores, as one digest of its per-run trace hashes.  A change
        # that moves the virtual schedule fails here: update the pin and
        # say why the explored schedules had to change.  (Last moved when
        # one coordinator replaced the peer workers: the explored
        # schedules are its hand-offs to the executor threads.)
        fuzz_module = importlib.import_module("repro.testing.fuzz")
        run_one, hashes = fuzz_module.run_one, []

        def recording(*args, **kwargs):
            outcome = run_one(*args, **kwargs)
            hashes.append(outcome.trace_hash)
            return outcome

        monkeypatch.setattr(fuzz_module, "run_one", recording)
        assert fuzz(runs=30, seed=0).ok
        assert len(hashes) == 30
        digest = hashlib.sha1(" ".join(hashes).encode()).hexdigest()[:16]
        assert digest == "f8c3e885a1fc264a"

    def test_single_run_passes_each_policy(self):
        spec = spec_for_run(1, 0)
        for policy in ("random", "round-robin", "priority"):
            outcome = run_one(spec, make_policy(policy, 6))
            assert outcome.passed, outcome.reason


@pytest.mark.parametrize(
    "fault", ["deliver_twice", "commit_handed_over", "lose_handback"]
)
class TestSeededBugsAreFound:
    def test_fault_found_within_bounded_runs(self, fault):
        # Acceptance criterion: the seeded bug must be found within 100
        # explored schedules of the engine's one dispatch path, reporting
        # a replayable (seed, policy, trace).
        report = fuzz(runs=100, seed=0, faults=FaultPlan.named(fault))
        assert not report.ok, f"{fault} survived {report.runs} schedules"
        failure = report.failures[0]
        assert failure.trace_names, "failure must carry its step trace"
        assert failure.reason
        # The printed reproduction recipe is complete.
        summary = failure.summary()
        assert str(failure.master_seed) in summary
        assert failure.policy_name in summary

    def test_failure_replays_exactly(self, fault):
        plan = FaultPlan.named(fault)
        report = fuzz(runs=100, seed=0, faults=plan, do_shrink=False)
        failure = report.failures[0]
        replayed = replay_failure(failure, exact=True, faults=plan)
        assert not replayed.passed

    def test_failure_replays_by_policy_seed(self, fault):
        plan = FaultPlan.named(fault)
        report = fuzz(runs=100, seed=0, faults=plan, do_shrink=False)
        failure = report.failures[0]
        outcome = run_one(
            failure.spec,
            make_policy(failure.policy_name, failure.policy_seed),
            faults=plan,
        )
        assert not outcome.passed


class TestShrinking:
    def test_shrunk_spec_still_fails_and_is_smaller(self):
        plan = FaultPlan.named("commit_handed_over")
        report = fuzz(runs=100, seed=0, faults=plan)
        failure = report.failures[0]
        shrunk = failure.shrunk_spec
        assert shrunk is not None
        size = lambda s: (s.phases, s.n_vertices, s.threads)  # noqa: E731
        assert size(shrunk) <= size(failure.spec)
        outcome = run_one(
            shrunk,
            make_policy(failure.policy_name, failure.policy_seed),
            faults=plan,
        )
        assert not outcome.passed


class TestFaultPlan:
    def test_named_and_str(self):
        plan = FaultPlan.named("lose_handback")
        assert plan.lose_handback and not plan.deliver_twice
        assert "lose_handback" in str(plan)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.named("cosmic_rays")

    def test_engine_ignores_absent_plan(self):
        # faults=None must inject nothing: a clean run stays clean.
        outcome = run_one(spec_for_run(2, 0), make_policy("random", 0))
        assert outcome.passed, outcome.reason
