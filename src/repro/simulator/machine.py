"""The simulated SMP engine.

:class:`SimulatedEngine` executes a program with a *real* scheduler (the
published :class:`~repro.core.reference.ReferenceScheduler` or the
engines' :class:`~repro.core.state.SchedulerState`) and *real* vertex behaviours,
but on simulated hardware: k worker threads and one environment thread
multiplex over P processors and contend for the single global lock, all in
virtual time driven by a :class:`~repro.simulator.costs.CostModel`.

This is the substitution for the paper's dual-processor Solaris testbed
(see docs/ARCHITECTURE.md §1.3): the Section 4 experiment — "identical
computations see a speedup of approximately 50% when two computation
threads are running" — is reproduced by comparing virtual makespans at
``num_workers=1`` and ``num_workers=2`` with ``num_processors=2``, and
the near-linear-speedup prediction by sweeping workers = processors with
a coarse compute grain.

Simulated thread anatomy — Listing 1's peer workers and Listing 2's
environment, as published, all contending for one global lock.  The
real engines no longer have this shape: their one coordinator
(:mod:`repro.runtime.driver`) is the only caller of the scheduler and
takes no global lock, so the simulator is where the paper's peer-worker
schedule and its lock contention are still measured:

* **worker**: block on the run queue (no CPU while blocked) → *locked*
  claim + prepare burst (no virtual time) → compute burst (CPU
  but no lock — this is where parallelism happens; a run's members
  execute back-to-back on one processor grant) → *locked* commit +
  bookkeeping burst (deliver messages, ``complete_executions``, enqueue
  newly ready pairs).  Under the ``"global"`` frontier a run is always
  the single dequeued pair — the published loop.
* **environment**: per phase, a *locked* phase-start burst.

A burst = acquire the lock if required, acquire a processor, advance
virtual time, release.  Blocked threads (queue, lock) hold no processor,
like OS threads.  The run queue (the paper's ``BlockingQueue``), lock
waiters and processor grants are all FIFO, so runs are fully
deterministic.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.invariants import InvariantChecker
from ..core.program import Program, RunResult
from ..core.tracer import ExecutionTracer
from ..errors import SimulationError
from ..events import PhaseInput
from ..runtime.core import ScheduleCore
from .costs import CostModel
from .des import Event, Resource, Simulation, Store

__all__ = ["SimulatedEngine"]

_CLOSE = object()


class SimulatedEngine:
    """The paper's algorithm on a simulated P-processor machine.

    Parameters
    ----------
    program:
        Program to execute.
    num_workers:
        Computation threads (k).  The environment thread is added on top,
        exactly as in the paper ("there is always an additional thread").
    num_processors:
        Simulated CPUs.  The paper's testbed is ``num_processors=2``.
    cost_model:
        Virtual durations for compute/bookkeeping/etc.
    checker / tracer:
        As for :class:`~repro.runtime.engine.ParallelEngine`; the tracer's
        clock is rebound to virtual time, so a member executes from its
        run's locked claim burst to its run's locked commit burst.
    frontier:
        The one scheduling selector.  ``"global"`` (default) is Listings
        1-2 as published — one ``x_p`` per phase, every message
        delivered, one pair per dispatch — so the DES figures and the
        barrier-comparison baselines stay pinned.  ``"cone"`` is what
        the real engines do: per-dependency frontiers and adaptive run
        coalescing (:meth:`~repro.core.state.SchedulerState.claim_run`),
        both derived from the mode; every message is delivered in
        either mode.
    """

    def __init__(
        self,
        program: Program,
        num_workers: int = 2,
        num_processors: int = 2,
        cost_model: Optional[CostModel] = None,
        checker: Optional[InvariantChecker] = None,
        tracer: Optional[ExecutionTracer] = None,
        max_in_flight_phases: Optional[int] = None,
        frontier: str = "global",
    ) -> None:
        if num_workers < 1:
            raise SimulationError(f"num_workers must be >= 1, got {num_workers}")
        if num_processors < 1:
            raise SimulationError(
                f"num_processors must be >= 1, got {num_processors}"
            )
        if max_in_flight_phases is not None and max_in_flight_phases < 1:
            raise SimulationError(
                f"max_in_flight_phases must be >= 1 or None, "
                f"got {max_in_flight_phases}"
            )
        self.program = program
        self.num_workers = num_workers
        self.num_processors = num_processors
        self.frontier = frontier
        self.cost_model = cost_model or CostModel()
        self.checker = checker
        self.tracer = tracer
        # max_in_flight_phases=1 turns the engine into the phase-barrier
        # baseline (no pipelining): the environment waits for each phase to
        # complete before starting the next.
        self.max_in_flight_phases = max_in_flight_phases

    def run(self, phase_inputs: Sequence[PhaseInput]) -> RunResult:
        """Execute every phase in virtual time; ``wall_time`` of the result
        is the virtual makespan."""
        self.cost_model.reset()
        core = ScheduleCore(
            self.program,
            self.num_workers,
            frontier=self.frontier,
            checker=self.checker,
            tracer=self.tracer,
        )
        runtime = core.runtime
        sim = Simulation()
        lock = Resource(sim, 1, name="global-lock")
        procs = Resource(sim, self.num_processors, name="processors")
        queue = Store(sim, name="run-queue")
        if self.tracer is not None:
            self.tracer.set_clock(lambda: sim.now)

        env_done = [False]
        flow_waiter: List[Optional[Event]] = [None]  # env blocked on flow control
        cm = self.cost_model
        names = self.program.numbering
        max_in_flight = self.max_in_flight_phases

        def locked_burst(
            duration: float, fn: Callable[[], Any]
        ) -> Generator[Event, Any, Any]:
            yield lock.request()
            yield procs.request()
            out = fn()
            if duration > 0:
                yield sim.timeout(duration)
            procs.release()
            lock.release()
            return out

        def maybe_close() -> None:
            if env_done[0] and core.quiescent:
                queue.put(_CLOSE)

        def enqueue(newly_ready: List[Tuple[int, int]]) -> None:
            for pair in newly_ready:
                queue.put(pair)

        def worker(worker_id: int) -> Generator[Event, Any, None]:
            while True:
                item = yield queue.get()
                if item is _CLOSE:
                    queue.put(_CLOSE)  # circulate to sibling workers
                    return
                v, p = item

                # Claim and prepare the whole run in one locked prepare
                # burst, execute its members back-to-back on one
                # processor grant (the parallel region), then commit
                # them all in one bookkeeping burst.
                phases, ctxs = yield from locked_burst(
                    0.0, lambda: core.claim(worker_id, v, p)
                )

                yield procs.request()
                runtime.compute(v, ctxs)
                name = names.name_of(v)
                for q in phases:
                    duration = cm.vertex_cost(name, q)
                    if duration > 0:
                        yield sim.timeout(duration)
                procs.release()

                def do_commit() -> None:
                    completed = runtime.commit(v, phases, ctxs)
                    enqueue(core.commit(worker_id, completed)[0])
                    # Flow control: wake the environment when phase
                    # completions open room for another in-flight phase.
                    waiter = flow_waiter[0]
                    if (
                        waiter is not None
                        and max_in_flight is not None
                        and core.phases_in_flight < max_in_flight
                    ):
                        flow_waiter[0] = None
                        waiter.succeed()
                    maybe_close()

                yield from locked_burst(cm.bookkeeping_cost, do_commit)

        def environment() -> Generator[Event, Any, None]:
            for pi in phase_inputs:
                if max_in_flight is not None:
                    # Callbacks run atomically, so this check-then-wait is
                    # race-free within the simulation.
                    while core.phases_in_flight >= max_in_flight:
                        waiter = sim.event()
                        flow_waiter[0] = waiter
                        yield waiter

                yield from locked_burst(
                    cm.phase_start_cost, lambda pi=pi: enqueue(core.admit(pi))
                )

            def finish() -> None:
                env_done[0] = True
                maybe_close()

            yield from locked_burst(0.0, finish)

        for wid in range(self.num_workers):
            sim.start(worker(wid), name=f"worker-{wid}")
        sim.start(environment(), name="environment")
        makespan = sim.run()

        return core.result(
            f"simulated[k={self.num_workers},P={self.num_processors}]",
            makespan,
            {
                "num_workers": self.num_workers,
                "num_processors": self.num_processors,
                "lock": {
                    "total_requests": lock.total_requests,
                    "contended_requests": lock.contended_requests,
                    "busy_time": lock.usage_integral,
                    "utilization": lock.utilization(makespan),
                },
                "processors": {
                    "cpu_seconds": procs.usage_integral,
                    "utilization": procs.utilization(makespan),
                },
                "queue_max_depth": queue.max_depth,
                "grain_bookkeeping_cost": cm.bookkeeping_cost,
            },
        )
