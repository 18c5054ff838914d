"""Process regime under ``spawn``: every dear vertex is promoted.

``spawn`` (the start method on macOS and Windows) boots a worker by
re-importing this module in a fresh interpreter, which takes ~100 ms.
The coordinator never waits for that: a vertex promoted while its worker
boots has its first frame wait in the worker's task queue.  On the
``SpinningSum`` grid every inner vertex must leave the coordinator, the
result must equal the serial oracle, and the wire must carry only the
four frame classes (a worker starts empty, so nothing crosses at spawn).

Run as a script (``spawn`` re-imports the main module, so this must be a
file with a ``__main__`` guard, not a heredoc)::

    PYTHONPATH=src python tests/runtime/spawn_regime.py
"""

from repro.analysis.serializability import assert_serializable
from repro.analysis.stats import validate_engine_stats
from repro.core.serial import SerialExecutor
from repro.runtime.mp import ProcessEngine
from repro.streams.workloads import cpu_heavy_workload


def main() -> None:
    program, phases = cpu_heavy_workload(3, 3, phases=40, grain=3000)
    serial = SerialExecutor(program).run(phases)
    result = ProcessEngine(program, 2, start_method="spawn").run(phases)
    assert_serializable(serial, result)
    assert result.records == serial.records
    assert validate_engine_stats(result.engine, result.stats) == []
    inner = {n for n in program.behaviors if program.graph.predecessors(n)}
    promoted = set(result.stats["ipc"]["promoted"])
    assert inner <= promoted, f"promoted {sorted(promoted)} of {sorted(inner)}"
    wire = result.stats["serialization_bytes"]
    assert set(wire) == {
        "runs", "result_batches", "final_state", "shutdown", "total_bytes",
    }, sorted(wire)
    print(
        f"spawn: {len(inner & promoted)}/{len(inner)} inner vertices promoted, "
        f"{result.stats['ipc_round_trips']} round trips, "
        f"{wire['total_bytes']} wire bytes"
    )


if __name__ == "__main__":
    main()
