"""Deterministic schedule exploration: the virtual scheduler.

The paper's serializability theorem quantifies over *every* interleaving
of the Listing-1 computation loops and the Listing-2 environment loop.
OS threads sample a vanishingly small, non-reproducible corner of that
space; this module replaces them with **cooperatively stepped tasks**
under a :class:`VirtualScheduler` whose every choice comes from a
pluggable, seeded :class:`SchedulingPolicy` — so an interleaving is a
value: it can be searched, hashed, recorded, and replayed from a
``(seed, policy)`` pair.

Mechanics
---------
Each task runs on a real (daemon) OS thread, but **at most one task is
ever unblocked**: control passes task → scheduler → task through paired
events, so there is no data race anywhere by construction — only the
*logical* interleavings the algorithm must tolerate.  Tasks yield at
every synchronisation point (lock acquire/release, condition wait), and
the scheduler picks which runnable task proceeds.

Blocking with a timeout registers a *virtual* deadline; when no task is
runnable the clock jumps to the earliest deadline (discrete-event style),
which makes timed waits deterministic and instant.  A state where no task
is runnable and no deadline is pending is reported as
:class:`~repro.errors.DeadlockError` — exactly, with the step trace.

:class:`VirtualBackend` adapts the scheduler to the
:class:`repro.runtime.backend.ThreadingBackend` seam, so the *unmodified*
:class:`~repro.runtime.engine.ParallelEngine` runs under it.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import POLICY_NAMES
from ..errors import (
    DeadlockError,
    ReplayDivergenceError,
    ScheduleError,
    ScheduleLimitError,
)

__all__ = [
    "ScheduleStep",
    "SchedulingPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "PriorityFuzzPolicy",
    "ReplayPolicy",
    "make_policy",
    "POLICY_NAMES",
    "VirtualScheduler",
    "VirtualBackend",
    "VirtualTask",
]


# ---------------------------------------------------------------------------
# Schedule steps and policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScheduleStep:
    """One scheduling decision: at *index*, *task* resumed into *point*.

    ``point`` is the synchronisation point the task was parked at (e.g.
    ``"lock.acquire(lock-1)"`` or ``"cond.wait(cond-2)"``) —
    the trace of these steps *is* the interleaving.
    """

    index: int
    task: str
    point: str


class SchedulingPolicy:
    """Chooses which runnable task proceeds at each step.

    Policies may keep state but must be deterministic functions of their
    constructor arguments and the observed choice sequence, so that a
    fresh instance replays identically.
    """

    name: str = "abstract"

    def choose(self, step: int, runnable: Sequence["VirtualTask"]) -> "VirtualTask":
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class RandomPolicy(SchedulingPolicy):
    """Uniform seeded-random choice among runnable tasks."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, step: int, runnable: Sequence["VirtualTask"]) -> "VirtualTask":
        return runnable[self._rng.randrange(len(runnable))]

    def describe(self) -> str:
        return f"random(seed={self.seed})"


class RoundRobinPolicy(SchedulingPolicy):
    """Cycle through tasks in registration order (fair, fully predictable)."""

    name = "round-robin"

    def __init__(self, seed: int = 0) -> None:
        # The seed rotates the starting offset so different fuzz runs
        # still explore different phase alignments.
        self.seed = seed
        self._cursor = seed

    def choose(self, step: int, runnable: Sequence["VirtualTask"]) -> "VirtualTask":
        task = runnable[self._cursor % len(runnable)]
        self._cursor += 1
        return task

    def describe(self) -> str:
        return f"round-robin(seed={self.seed})"


class PriorityFuzzPolicy(SchedulingPolicy):
    """PCT-style priority fuzzing (Burckhardt et al.): run the
    highest-priority runnable task, occasionally reshuffling one task's
    priority.  Long stretches of one task interleaved with rare forced
    switches reach orderings uniform-random sampling almost never hits.
    """

    name = "priority"

    def __init__(self, seed: int = 0, change_prob: float = 0.05) -> None:
        self.seed = seed
        self.change_prob = change_prob
        self._rng = random.Random(seed)
        self._priority: Dict[str, float] = {}

    def choose(self, step: int, runnable: Sequence["VirtualTask"]) -> "VirtualTask":
        for t in runnable:
            if t.name not in self._priority:
                self._priority[t.name] = self._rng.random()
        if self._rng.random() < self.change_prob:
            victim = runnable[self._rng.randrange(len(runnable))]
            self._priority[victim.name] = self._rng.random()
        return max(runnable, key=lambda t: (self._priority[t.name], t.name))

    def describe(self) -> str:
        return f"priority(seed={self.seed}, change_prob={self.change_prob})"


class ReplayPolicy(SchedulingPolicy):
    """Replay a recorded schedule (the task-name sequence of a trace).

    Raises :class:`~repro.errors.ReplayDivergenceError` if the recorded
    task is not runnable at some step.  Once the recording is exhausted
    the policy continues first-runnable (deterministically), which lets a
    prefix trace — e.g. "the steps up to the violation" — be replayed on
    its own.
    """

    name = "replay"

    def __init__(self, trace: Sequence[str]) -> None:
        self.trace = list(trace)

    def choose(self, step: int, runnable: Sequence["VirtualTask"]) -> "VirtualTask":
        if step >= len(self.trace):
            return runnable[0]
        wanted = self.trace[step]
        for t in runnable:
            if t.name == wanted:
                return t
        raise ReplayDivergenceError(
            f"replay step {step} wants task {wanted!r} but runnable tasks "
            f"are {[t.name for t in runnable]!r}"
        )

    def describe(self) -> str:
        return f"replay({len(self.trace)} steps)"


def make_policy(name: str, seed: int = 0) -> SchedulingPolicy:
    """Build a policy by name — the ``(seed, policy)`` pair that makes any
    explored interleaving reproducible."""
    if name == "random":
        return RandomPolicy(seed)
    if name == "round-robin":
        return RoundRobinPolicy(seed)
    if name == "priority":
        return PriorityFuzzPolicy(seed)
    raise ScheduleError(f"unknown scheduling policy {name!r}; "
                        f"choose from {POLICY_NAMES}")


# ---------------------------------------------------------------------------
# The cooperative kernel
# ---------------------------------------------------------------------------

_NEW, _READY, _RUNNING, _BLOCKED, _DONE = range(5)


class _TaskKilled(BaseException):
    """Raised inside a task during scheduler shutdown (not an error)."""


class VirtualTask:
    """A cooperatively scheduled task (duck-types ``threading.Thread``)."""

    def __init__(
        self,
        scheduler: "VirtualScheduler",
        target: Callable[..., None],
        name: str,
        args: Tuple = (),
    ) -> None:
        self._scheduler = scheduler
        self._target = target
        self._args = args
        self.name = name
        self.daemon = True
        self.state = _NEW
        self.pending_point = "start"  # the point this task will resume into
        self.blocked_on: Optional[object] = None
        self.deadline: Optional[float] = None
        self.error: Optional[BaseException] = None
        self._go = threading.Event()
        self._timed_out = False
        self._killed = False
        self._os_thread = threading.Thread(
            target=self._bootstrap, name=f"vtask-{name}", daemon=True
        )

    # -- threading.Thread compatibility ---------------------------------

    def start(self) -> None:
        self._scheduler._register_start(self)

    def join(self, timeout: Optional[float] = None) -> None:
        """Drive the scheduler until this task completes.

        *timeout* is accepted for signature compatibility but ignored:
        wedged schedules surface as :class:`DeadlockError` or
        :class:`ScheduleLimitError`, which carry far better diagnostics
        than a timeout ever could.
        """
        self._scheduler.run_until(lambda: self.state == _DONE)

    def is_alive(self) -> bool:
        return self.state not in (_NEW, _DONE)

    # -- internals --------------------------------------------------------

    def _bootstrap(self) -> None:
        self._go.wait()
        self._go.clear()
        try:
            if not self._killed:
                self._target(*self._args)
        except _TaskKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc
        finally:
            self._scheduler._finish(self)

    def __repr__(self) -> str:
        states = ["new", "ready", "running", "blocked", "done"]
        return f"VirtualTask({self.name!r}, {states[self.state]})"


class VirtualScheduler:
    """Runs registered tasks one at a time, choosing via the policy.

    Parameters
    ----------
    policy:
        The :class:`SchedulingPolicy` deciding every step (default:
        ``RandomPolicy(0)``).
    max_steps:
        Step budget; exceeding it raises :class:`ScheduleLimitError`
        (livelock guard — a legitimate run of P pairs takes O(P) steps).
    trace_tail:
        How many trailing steps to include in deadlock reports.
    """

    def __init__(
        self,
        policy: Optional[SchedulingPolicy] = None,
        max_steps: int = 250_000,
        trace_tail: int = 40,
    ) -> None:
        self.policy = policy or RandomPolicy(0)
        self.max_steps = max_steps
        self.trace_tail = trace_tail
        self.trace: List[ScheduleStep] = []
        self.steps = 0
        self._tasks: List[VirtualTask] = []
        self._current: Optional[VirtualTask] = None
        self._control = threading.Event()
        self._clock = 0.0
        self._driver = threading.get_ident()
        self._shutdown = False
        self._name_counts: Dict[str, int] = {}

    def _auto_name(self, prefix: str) -> str:
        # Primitive names appear in trace points; scoping the counters to
        # the scheduler keeps traces (and their hashes) identical across
        # same-seed runs in one process.
        self._name_counts[prefix] = self._name_counts.get(prefix, 0) + 1
        return f"{prefix}-{self._name_counts[prefix]}"

    # -- public surface ---------------------------------------------------

    def now(self) -> float:
        """The virtual clock (advances only at timed-wait expiries)."""
        return self._clock

    def spawn(
        self, target: Callable[..., None], name: str, args: Tuple = ()
    ) -> VirtualTask:
        """Create (but do not start) a task; ``task.start()`` readies it."""
        if any(t.name == name for t in self._tasks):
            raise ScheduleError(f"duplicate task name {name!r}")
        return VirtualTask(self, target, name, args)

    def trace_names(self) -> List[str]:
        """The task-name sequence of the trace — feed to :class:`ReplayPolicy`."""
        return [s.task for s in self.trace]

    def run_until(self, predicate: Callable[[], bool]) -> None:
        """Drive tasks (on the calling/driver thread) until *predicate*."""
        if threading.get_ident() != self._driver:
            raise ScheduleError(
                "run_until must be called from the driver thread that "
                "created the scheduler"
            )
        while not predicate():
            runnable = [t for t in self._tasks if t.state == _READY]
            if not runnable:
                if self._advance_to_deadline():
                    continue
                blocked = {
                    t.name: str(t.blocked_on)
                    for t in self._tasks
                    if t.state == _BLOCKED
                }
                if not blocked:
                    # Nothing left alive and the predicate is still false:
                    # the caller is waiting on something no task can cause.
                    raise ScheduleError(
                        "all tasks finished but the awaited condition never held"
                    )
                tail = [
                    (s.index, s.task, s.point)
                    for s in self.trace[-self.trace_tail:]
                ]
                raise DeadlockError(blocked, tail)
            if self.steps >= self.max_steps:
                raise ScheduleLimitError(
                    f"schedule exceeded {self.max_steps} steps "
                    f"(policy {self.policy.describe()}); livelock or "
                    f"runaway workload"
                )
            task = self.policy.choose(self.steps, runnable)
            if task not in runnable:
                raise ScheduleError(
                    f"policy {self.policy.describe()} chose non-runnable "
                    f"task {task!r}"
                )
            step = ScheduleStep(self.steps, task.name, task.pending_point)
            self.trace.append(step)
            self.steps += 1
            self._resume(task)

    def run_all(self) -> None:
        """Drive until every registered task has finished."""
        self.run_until(lambda: all(t.state == _DONE for t in self._tasks))

    def shutdown(self) -> None:
        """Kill every unfinished task (used after a detected failure).

        Each task is woken with a :class:`_TaskKilled` injection at its
        next yield point and driven to completion, so no parked OS thread
        outlives the schedule.
        """
        self._shutdown = True
        for t in self._tasks:
            if t.state in (_READY, _BLOCKED, _NEW):
                t._killed = True
        for t in self._tasks:
            if t.state == _NEW:
                t.state = _DONE
                continue
            while t.state != _DONE:
                self._resume(t)

    # -- called from task threads ----------------------------------------

    @property
    def current(self) -> Optional[VirtualTask]:
        """The task whose thread is calling, or ``None`` on the driver."""
        ident = threading.get_ident()
        cur = self._current
        if cur is not None and cur._os_thread.ident == ident:
            return cur
        return None

    def switch(self, point: str) -> None:
        """A preemption point: yield, staying runnable.

        No-op when called from the driver thread (primitives are then
        executing atomically between steps, which is safe — every task is
        parked).
        """
        task = self.current
        if task is None:
            return
        self._yield_control(task, _READY, point=point)

    def block(
        self,
        waiting_on: object,
        point: str,
        deadline: Optional[float] = None,
    ) -> bool:
        """Block the current task on *waiting_on*; returns True on timeout.

        The task becomes runnable again when another task calls
        :meth:`wake_all` with the same object, or — if *deadline* is not
        ``None`` — when the virtual clock reaches the deadline (only ever
        advanced when nothing is runnable).
        """
        task = self.current
        if task is None:
            raise ScheduleError(
                f"driver thread attempted to block on {waiting_on!r}; only "
                f"tasks may block under the virtual scheduler"
            )
        task.blocked_on = waiting_on
        task.deadline = deadline
        return self._yield_control(task, _BLOCKED, point=point)

    def wake_all(self, waiting_on: object) -> int:
        """Make every task blocked on *waiting_on* runnable; returns count."""
        n = 0
        for t in self._tasks:
            if t.state == _BLOCKED and t.blocked_on is waiting_on:
                t.state = _READY
                t.blocked_on = None
                t.deadline = None
                n += 1
        return n

    # -- kernel internals -------------------------------------------------

    def _register_start(self, task: VirtualTask) -> None:
        if task in self._tasks:
            raise ScheduleError(f"task {task.name!r} started twice")
        self._tasks.append(task)
        task.state = _READY
        task._os_thread.start()

    def _resume(self, task: VirtualTask) -> None:
        # Driver side of the handoff: exactly one task wakes, the driver
        # parks until it yields, blocks, or finishes.
        task.state = _RUNNING
        self._current = task
        self._control.clear()
        task._go.set()
        self._control.wait()
        self._current = None

    def _yield_control(self, task: VirtualTask, state: int, point: str) -> bool:
        # Task side of the handoff.
        if self._shutdown or task._killed:
            raise _TaskKilled()
        task.state = state
        task.pending_point = point
        self._control.set()
        task._go.wait()
        task._go.clear()
        if task._killed:
            raise _TaskKilled()
        timed_out = task._timed_out
        task._timed_out = False
        task.blocked_on = None
        task.deadline = None
        return timed_out

    def _finish(self, task: VirtualTask) -> None:
        task.state = _DONE
        self._control.set()

    def _advance_to_deadline(self) -> bool:
        timed = [t for t in self._tasks if t.state == _BLOCKED and t.deadline is not None]
        if not timed:
            return False
        t = min(timed, key=lambda t: (t.deadline, t.name))
        self._clock = max(self._clock, t.deadline)
        t.state = _READY
        t._timed_out = True
        t.blocked_on = None
        t.deadline = None
        return True


# ---------------------------------------------------------------------------
# Virtual synchronisation primitives (threading-compatible surfaces)
# ---------------------------------------------------------------------------


class VirtualLock:
    """Cooperative mutual exclusion.

    Every acquire — including try-acquire — yields first, so the
    scheduler can preempt a task *on the brink* of entering its critical
    section: the classic race window OS schedulers only rarely expose.
    """

    def __init__(self, sched: VirtualScheduler, name: Optional[str] = None) -> None:
        self._sched = sched
        self.name = name if name is not None else sched._auto_name("lock")
        self._owner: Optional[VirtualTask] = None
        self._held_by_driver = False

    def acquire(self, blocking: bool = True, timeout: Optional[float] = None) -> bool:
        sched = self._sched
        task = sched.current
        sched.switch(f"lock.acquire({self.name})")
        if task is None:
            # Driver thread: all tasks are parked, and none can be parked
            # *holding* this lock unless it blocked at a preemption point
            # inside its critical section — in which case the driver must
            # not barge in.
            if self._owner is not None:
                raise ScheduleError(
                    f"driver thread would block on {self.name} held by "
                    f"{self._owner.name}"
                )
            self._held_by_driver = True
            return True
        if not blocking:
            if self._owner is None and not self._held_by_driver:
                self._owner = task
                return True
            return False
        deadline = None if timeout is None else sched.now() + timeout
        while self._owner is not None or self._held_by_driver:
            if sched.block(self, f"lock.wait({self.name})", deadline):
                return False
        self._owner = task
        return True

    def release(self) -> None:
        sched = self._sched
        task = sched.current
        if task is None:
            if not self._held_by_driver:
                raise ScheduleError(f"driver released un-held {self.name}")
            self._held_by_driver = False
            sched.wake_all(self)
            return
        if self._owner is not task:
            raise ScheduleError(
                f"task {task.name} released {self.name} owned by "
                f"{self._owner.name if self._owner else 'nobody'}"
            )
        self._owner = None
        sched.wake_all(self)
        sched.switch(f"lock.release({self.name})")

    def locked(self) -> bool:
        return self._owner is not None or self._held_by_driver

    def __enter__(self) -> "VirtualLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class _CondWaiter:
    """Level-triggered wait token: survives a notify that lands while the
    waiter is still at the lock-release switch point (lost-wakeup guard)."""

    __slots__ = ("task", "notified")

    def __init__(self, task: VirtualTask) -> None:
        self.task = task
        self.notified = False


class VirtualCondition:
    """Cooperative condition variable bound to a :class:`VirtualLock`."""

    def __init__(
        self, sched: VirtualScheduler, lock: Optional[VirtualLock] = None
    ) -> None:
        self._sched = sched
        self.name = sched._auto_name("cond")
        self._lock = lock if lock is not None else VirtualLock(sched)
        self._waiters: List[_CondWaiter] = []

    def acquire(self, *a, **kw) -> bool:
        return self._lock.acquire(*a, **kw)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "VirtualCondition":
        self._lock.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self._lock.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        sched = self._sched
        task = sched.current
        if task is None:
            raise ScheduleError("driver thread cannot wait on a condition")
        waiter = _CondWaiter(task)
        self._waiters.append(waiter)
        self._lock.release()  # yields; a notify may land right here
        deadline = None if timeout is None else sched.now() + timeout
        timed_out = False
        while not waiter.notified:
            if sched.block(waiter, f"cond.wait({self.name})", deadline):
                timed_out = True
                break
        if timed_out and not waiter.notified:
            self._waiters = [w for w in self._waiters if w is not waiter]
        self._lock.acquire()
        return waiter.notified

    def notify(self, n: int = 1) -> None:
        sched = self._sched
        woken = self._waiters[:n]
        del self._waiters[:n]
        for waiter in woken:
            waiter.notified = True
            sched.wake_all(waiter)

    def notify_all(self) -> None:
        self.notify(len(self._waiters))


class VirtualBackend:
    """Adapts a :class:`VirtualScheduler` to the
    :class:`~repro.runtime.backend.ThreadingBackend` factory seam, so the
    production engine runs under deterministic scheduling unchanged."""

    def __init__(self, scheduler: VirtualScheduler) -> None:
        self.scheduler = scheduler

    def lock(self) -> VirtualLock:
        return VirtualLock(self.scheduler)

    def condition(self, lock: Optional[VirtualLock] = None) -> VirtualCondition:
        return VirtualCondition(self.scheduler, lock)

    def thread(
        self,
        target: Callable[..., None],
        name: Optional[str] = None,
        args: Tuple = (),
    ) -> VirtualTask:
        if name is None:
            name = f"task-{len(self.scheduler._tasks)}"
        return self.scheduler.spawn(target, name, args)

    def clock(self) -> float:
        return self.scheduler.now()
