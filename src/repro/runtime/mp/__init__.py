"""The process-parallel execution backend.

CPython's GIL serialises pure-Python vertex work, so the threaded engine
(:class:`~repro.runtime.engine.ParallelEngine`) only speeds up vertices
that release the GIL.  This package provides the true shared-memory
parallel configuration the paper targets: a **coordinator** that owns the
:class:`~repro.core.state.SchedulerState` and the edge store, plus N
**worker processes** that execute vertex computations in their own
interpreters.

* :mod:`~repro.runtime.mp.protocol` — the wire protocol: run / result /
  shutdown framing, pickle round-tripping, and byte accounting;
* :mod:`~repro.runtime.mp.worker` — the worker-process main loop (it
  starts empty, adopts each behaviour promoted to it from that vertex's
  first frame, and only computes);
* :mod:`~repro.runtime.mp.lifecycle` — the process port
  (:class:`~repro.runtime.mp.lifecycle.ProcessWorkerPool`): it spawns the
  workers, prices a trip, sends run frames, collects the replies, and
  shuts the workers down, gracefully or not;
* :mod:`~repro.runtime.mp.engine` — :class:`ProcessEngine`, which runs
  the one coordinator loop (:mod:`repro.runtime.driver`: Listing 1 + 2
  with the compute step remoted for the vertices whose compute outweighs
  a trip) over that port.

Select it from the CLI with ``repro run SPEC --engine process``.
"""

from .engine import ProcessEngine

__all__ = ["ProcessEngine"]
