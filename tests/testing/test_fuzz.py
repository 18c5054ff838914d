"""The stress driver: clean campaigns pass, seeded bugs are found,
failures shrink and replay.

The injected-fault tests are the acceptance test for the whole harness:
a green fuzz run is only evidence if the same harness demonstrably turns
red when a known concurrency bug is planted.
"""

import hashlib
import importlib

import pytest

from repro.testing import (
    FaultPlan,
    ReplayPolicy,
    WorkloadSpec,
    fuzz,
    make_policy,
    replay_failure,
    run_one,
    spec_for_run,
)


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
        # start nothing to race with), and part of it must be able to
        # elide; both are workload dimensions like ``threads``.
        specs = [spec_for_run(0, i) for i in range(40)]
        assert {s.max_in_flight for s in specs} == {None, 1, 2}
        assert {s.elidable for s in specs} == {True, False}
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
        # say why the explored schedules had to change.
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
        assert digest == "e836ec35e298ef02"

    def test_fused_campaign_passes(self):
        # Fusion compiled in, oracle left unfused.
        report = fuzz(runs=30, seed=1234, fuse=True, do_shrink=False)
        assert report.ok, report.summary()
        assert report.runs == 30

    def test_mid_chain_fault_inside_fused_vertex_is_judged(self):
        # A failing member of a fused stage is a judged failure naming
        # the member, not a harness crash.
        from repro.core.plan import compile_plan
        from repro.core.vertex import Vertex

        class ExplodeAtPhase1(Vertex):
            def on_execute(self, ctx):
                raise RuntimeError("injected mid-chain fault")

        for i in range(40):
            spec = spec_for_run(7, i)
            program, _ = spec.build()
            plan = compile_plan(program)
            stage = next(
                (s for s, m in plan.members_of.items() if len(m) > 1), None
            )
            if stage is not None:
                break
        assert stage is not None, "corpus never fuses a chain"
        victim = plan.members_of[stage][-1]

        class SabotagedSpec(type(spec)):
            def build(self):
                prog, phases = super().build()
                prog.behaviors[victim] = ExplodeAtPhase1()
                return prog, phases

        bad_spec = SabotagedSpec(**spec.__dict__)
        outcome = run_one(bad_spec, make_policy("random", 5), fuse=True)
        assert not outcome.passed
        assert victim in outcome.reason

    def test_single_run_passes_each_policy(self):
        spec = spec_for_run(1, 0)
        for policy in ("random", "round-robin", "priority"):
            outcome = run_one(spec, make_policy(policy, 6))
            assert outcome.passed, outcome.reason


@pytest.mark.parametrize(
    "fault", ["unlocked_commit", "unlocked_start_phase", "duplicate_enqueue"]
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
        plan = FaultPlan.named("unlocked_commit")
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
        plan = FaultPlan.named("duplicate_enqueue")
        assert plan.duplicate_enqueue and not plan.unlocked_commit
        assert "duplicate_enqueue" in str(plan)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.named("cosmic_rays")

    def test_engine_ignores_absent_plan(self):
        # faults=None must inject nothing: a clean run stays clean.
        outcome = run_one(spec_for_run(2, 0), make_policy("random", 0))
        assert outcome.passed, outcome.reason
