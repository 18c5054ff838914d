#!/usr/bin/env python3
"""Hurricane response — the paper's crisis-management scenario, end to end.

A storm track, per-region flood gauges, shelter occupancy and road-closure
feeds fuse into per-region evacuation recommendations.  The run prints the
emergency-ops event log as the storm approaches the coast, then measures
how many phases a parallel execution keeps in flight at once.

Run:  python examples/hurricane_response.py
"""

from repro import SerialExecutor
from repro.analysis import assert_serializable
from repro.core.tracer import ExecutionTracer, max_concurrent_phases
from repro.models.domains.crisis import build_crisis_workload
from repro.runtime.engine import ParallelEngine
from repro.simulator.costs import CostModel
from repro.simulator.machine import SimulatedEngine


def main() -> None:
    program, phases = build_crisis_workload(phases=120, regions=3)
    serial = SerialExecutor(program).run(phases)
    parallel = ParallelEngine(program, num_threads=4).run(phases)
    assert_serializable(serial, parallel)

    print(f"{program.n}-vertex fusion graph, {len(phases)} hourly phases, "
          f"3 coastal regions\n")
    print("emergency operations log:")
    for phase, (source, event) in serial.records.get("emergency_ops", []):
        action, region = event
        print(f"  hour {phase:3d}  {region}: {action.upper()}")

    total = program.n * len(phases)
    print(f"\nΔ economy: {serial.execution_count}/{total} pairs executed "
          f"({serial.execution_count / total:.0%}), "
          f"{serial.message_count} messages "
          f"({serial.message_count / len(phases):.1f}/phase over "
          f"{program.graph.num_edges} edges)")

    # Show the pipeline on the simulated machine.
    tracer = ExecutionTracer()
    SimulatedEngine(
        program,
        num_workers=4,
        num_processors=4,
        cost_model=CostModel(compute_cost=1.0, bookkeeping_cost=0.02),
        tracer=tracer,
    ).run(phases)
    print(f"\npipelining on 4 simulated processors: up to "
          f"{max_concurrent_phases(tracer.intervals())} phases in flight "
          f"at once")
    print("\nparallel run serializable ✓")


if __name__ == "__main__":
    main()
