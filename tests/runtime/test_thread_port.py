"""The threaded engine's executors: ``ThreadPort``'s hand-off, close and
failure paths.

The port starts k executor threads ``compute-<i>``, feeds each through
its own job deque and takes their results back on one shared deque.
Most tests drive the port directly with a stub runtime, so the hand-off
is exercised without a scheduler behind it; the rest run it inside
:class:`~repro.runtime.engine.ParallelEngine`.
"""

import threading
import time

import pytest

from repro.core.program import Program
from repro.core.serial import SerialExecutor
from repro.core.vertex import EMIT_NOTHING, FunctionVertex, PassthroughSource
from repro.errors import VertexExecutionError
from repro.events import PhaseInput
from repro.graph.generators import chain_graph
from repro.runtime.backend import OS_BACKEND
from repro.runtime.engine import ParallelEngine, ThreadPort
from repro.streams.generators import phase_signals
from repro.testing.schedule import RandomPolicy, VirtualBackend, VirtualScheduler

from tests.runtime.regime_clock import RegimeClockBackend


class StubRuntime:
    """Computes every member of a run; ``gate`` holds vertex 1's runs."""

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()

    def compute(self, v, ctxs, after_member=None):
        if v == 1:
            self.gate.wait(timeout=10)
        for _ in ctxs:
            if after_member is not None:
                after_member()
        return len(ctxs)


def compute_threads():
    return sorted(
        t.name for t in threading.enumerate() if t.name.startswith("compute-")
    )


@pytest.fixture
def port():
    before = compute_threads()
    port = ThreadPort(2, OS_BACKEND)
    runtime = StubRuntime()
    port.start(runtime)
    port.runtime, port.threads_before = runtime, before
    yield port
    runtime.gate.set()
    port.close()
    port.join(5.0)
    assert compute_threads() == before


def send(port, w, v, phases):
    port.send(w, v, list(phases), [object() for _ in phases])


class TestHandOff:
    def test_each_executor_computes_its_runs_in_fifo_order(self, port):
        for p in range(1, 6):
            send(port, 0, 2, [p])
        back = [port.collect(5.0) for _ in range(5)]
        assert [(w, v, phases, error) for w, v, phases, _, _, error in back] == [
            (0, 2, [p], None) for p in range(1, 6)
        ]

    def test_collect_returns_none_when_the_timeout_elapses(self, port):
        assert port.collect(0) is None
        began = time.monotonic()
        assert port.collect(0.05) is None
        assert time.monotonic() - began >= 0.04

    def test_a_blocking_collect_receives_a_later_hand_back(self, port):
        port.runtime.gate.clear()
        send(port, 0, 1, [7])
        threading.Timer(0.05, port.runtime.gate.set).start()
        w, v, phases, _, replies, error = port.collect(5.0)
        assert (w, v, phases, replies, error) == (0, 1, [7], None, None)

    def test_every_run_comes_back_exactly_once(self, port):
        sent = [(v, p) for v in (2, 3, 4, 5) for p in range(1, 51)]
        for v, p in sent:
            send(port, (v - 1) % port.workers, v, [p])
        back = [port.collect(5.0) for _ in sent]
        assert sorted((v, phases[0]) for _, v, phases, *_ in back) == sorted(sent)
        assert port.collect(0) is None
        assert port.progress() == len(sent)


class TestClose:
    def test_close_then_drain(self, port):
        # Executor 0 is busy with three queued runs, executor 1 idle and
        # blocked on its empty deque: close wakes executor 1, which
        # exits, while executor 0 computes everything already queued,
        # hands it back in order, and then exits.
        port.runtime.gate.clear()
        send(port, 0, 1, [1])
        send(port, 0, 3, [1, 2])
        send(port, 0, 5, [1])
        port.close()
        port.runtime.gate.set()
        back = [port.collect(5.0)[1:3] for _ in range(3)]
        assert back == [(1, [1]), (3, [1, 2]), (5, [1])]
        port.join(5.0)
        assert compute_threads() == port.threads_before

    def test_close_wakes_every_idle_executor(self):
        before = compute_threads()
        port = ThreadPort(3, OS_BACKEND)
        port.start(StubRuntime())
        time.sleep(0.05)  # every executor parks on its empty deque
        port.close()
        port.join(5.0)
        assert compute_threads() == before

    def test_close_is_idempotent(self, port):
        port.close()
        port.close()
        port.join(5.0)
        assert port.collect(0) is None

    def test_close_under_virtual_backend_wakes_idle_executors(self):
        # Deterministically scheduled: executors 1 and 2 never get a job
        # and park on their conditions; unless close wakes every one of
        # them, the schedule ends in DeadlockError.
        for seed in range(4):
            sched = VirtualScheduler(policy=RandomPolicy(seed))
            backend = VirtualBackend(sched)
            port = ThreadPort(3, backend)
            back = []

            def coordinator():
                port.start(StubRuntime())
                for p in range(1, 5):
                    send(port, 0, 4, [p])
                back.extend(port.collect(1.0)[2] for _ in range(4))
                port.close()

            backend.thread(target=coordinator, name="environment").start()
            try:
                sched.run_all()
            finally:
                sched.shutdown()
            assert back == [[1], [2], [3], [4]]
            assert sched.now() == 0.0


class TestNoExecutorOutlivesTheRun:
    def test_each_executor_is_a_named_thread_that_the_run_joins(self):
        ran_on = set()

        def dear(ctx):
            ran_on.add(threading.current_thread().name)
            return ctx.input("v1")

        prog = Program(
            chain_graph(2), {"v1": PassthroughSource(), "v2": FunctionVertex(dear)}
        )
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 9)]
        serial = SerialExecutor(prog).run(phases)
        ran_on.clear()
        before = compute_threads()
        engine = ParallelEngine(
            prog, num_threads=2, max_in_flight_phases=1,
            backend=RegimeClockBackend(compute_dear=True),
        )
        res = engine.run(phases)
        assert res.records == serial.records
        assert ran_on == {"environment", "compute-1"}
        assert compute_threads() == before

    def test_a_failed_run_leaves_no_executor_behind(self):
        def boom(ctx):
            if threading.current_thread().name.startswith("compute-"):
                raise RuntimeError("away")
            return ctx.input("v1")

        prog = Program(
            chain_graph(2), {"v1": PassthroughSource(), "v2": FunctionVertex(boom)}
        )
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 9)]
        before = compute_threads()
        engine = ParallelEngine(
            prog, num_threads=3, max_in_flight_phases=1,
            backend=RegimeClockBackend(compute_dear=True),
        )
        with pytest.raises(VertexExecutionError, match="away"):
            engine.run(phases)
        assert compute_threads() == before


class TestZeroMessageLastPhase:
    """Executors must terminate when the *last* phase produces no messages
    at all — closing the port cannot rely on a final hand-back."""

    def _silent_tail_program(self):
        # Source emits only in phase 1; phases 2..4 are entirely empty of
        # messages, so no executor's commit marks them complete.
        def source(ctx):
            return 7 if ctx.phase == 1 else EMIT_NOTHING

        return Program(chain_graph(3), {
            "v1": FunctionVertex(source),
            "v2": FunctionVertex(lambda ctx: ctx.input("v1")),
            "v3": FunctionVertex(lambda ctx: ctx.input("v2")),
        })

    def test_engine_exits_when_last_phases_are_silent(self):
        prog = self._silent_tail_program()
        result = ParallelEngine(prog, num_threads=3).run(phase_signals(4))
        assert result.phases_run == 4
        assert result.records["v3"] == [(1, 7)]

    def test_virtual_engine_exits_when_last_phases_are_silent(self):
        # Same scenario under deterministic schedules: a hole in the close
        # protocol would surface as DeadlockError.
        for seed in range(5):
            sched = VirtualScheduler(policy=RandomPolicy(seed))
            engine = ParallelEngine(
                self._silent_tail_program(), num_threads=2,
                backend=VirtualBackend(sched),
            )
            try:
                result = engine.run(phase_signals(3))
            finally:
                sched.shutdown()
            assert result.phases_run == 3


class Halt(BaseException):
    """Not an ``Exception``: no vertex wrapper catches it."""


class TestAnExecutorsFailureIsItsRootCause:
    """Whatever a vertex raises on an executor reaches the caller at once
    as the error it would have raised on the environment thread."""

    def _chain(self, fails):
        raised = []

        def v2(ctx):
            if fails(ctx):
                raised.append(Halt(f"phase {ctx.phase}"))
                raise raised[-1]
            return ctx.input("v1")

        prog = Program(
            chain_graph(2), {"v1": PassthroughSource(), "v2": FunctionVertex(v2)}
        )
        return prog, raised

    def _engine(self, prog):
        # The chain of TestProgressWatchdog: one phase at a time, swept
        # until DEAR_RUNS dear sweeps have moved both vertices away.
        return ParallelEngine(
            prog, num_threads=2, max_in_flight_phases=1,
            backend=RegimeClockBackend(compute_dear=True), join_timeout=2.0,
        )

    def test_a_base_exception_on_the_environment_thread(self):
        prog, raised = self._chain(
            lambda ctx: threading.current_thread().name == "environment"
            and ctx.phase == 2
        )
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 7)]
        with pytest.raises(Halt) as ei:
            self._engine(prog).run(phases)
        assert ei.value is raised[0]

    def test_a_base_exception_on_an_executor_is_raised_promptly(self):
        # Regression: the executor thread died with it, and the run was
        # reported as "run wedged" once join_timeout had passed.
        prog, raised = self._chain(
            lambda ctx: threading.current_thread().name.startswith("compute-")
        )
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 7)]
        before = compute_threads()
        began = time.monotonic()
        with pytest.raises(Halt) as ei:
            self._engine(prog).run(phases)
        assert time.monotonic() - began < 1.0
        assert ei.value is raised[0]
        assert compute_threads() == before

    def test_another_pairs_vertex_error_on_an_executor_fails_as_its_own(self):
        # Regression: the executor looked the foreign pair's phase up in
        # its run, died of the ValueError, and the run wedged.
        foreign = VertexExecutionError("elsewhere", 999, "not mine")

        def v2(ctx):
            if threading.current_thread().name.startswith("compute-"):
                raise foreign
            return ctx.input("v1")

        prog = Program(
            chain_graph(2), {"v1": PassthroughSource(), "v2": FunctionVertex(v2)}
        )
        phases = [PhaseInput(k, float(k), {"v1": k}) for k in range(1, 7)]
        began = time.monotonic()
        with pytest.raises(VertexExecutionError) as ei:
            self._engine(prog).run(phases)
        assert time.monotonic() - began < 1.0
        assert ei.value.vertex == "v2" and ei.value.phase > 1
        assert ei.value.__cause__ is foreign
