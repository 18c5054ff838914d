"""The virtual scheduler kernel: determinism, policies, liveness checks."""

import pytest

from repro.errors import (
    DeadlockError,
    ReplayDivergenceError,
    ScheduleError,
    ScheduleLimitError,
)
from repro.testing.schedule import (
    PriorityFuzzPolicy,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    VirtualBackend,
    VirtualScheduler,
    make_policy,
)


def counter_tasks(sched, backend, n_tasks=3, iters=5):
    """n tasks interleaving increments with explicit yield points."""
    log = []
    lock = backend.lock()

    def work(tid):
        for i in range(iters):
            with lock:
                log.append((tid, i))
            sched.switch(f"tick-{tid}")

    tasks = [backend.thread(target=work, args=(t,), name=f"t{t}") for t in range(n_tasks)]
    for t in tasks:
        t.start()
    return tasks, log


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            sched = VirtualScheduler(policy=RandomPolicy(seed))
            backend = VirtualBackend(sched)
            _tasks, log = counter_tasks(sched, backend)
            sched.run_all()
            return list(log), sched.trace_names()

        log_a, trace_a = run(7)
        log_b, trace_b = run(7)
        assert log_a == log_b
        assert trace_a == trace_b

    def test_different_seeds_diverge(self):
        # With 3 tasks x 5 yield points, two seeds agreeing on every
        # choice would be astronomically unlikely.
        def run(seed):
            sched = VirtualScheduler(policy=RandomPolicy(seed))
            backend = VirtualBackend(sched)
            _tasks, log = counter_tasks(sched, backend)
            sched.run_all()
            return sched.trace_names()

        assert run(1) != run(2)

    def test_recorded_trace_replays_exactly(self):
        sched = VirtualScheduler(policy=RandomPolicy(3))
        backend = VirtualBackend(sched)
        _tasks, log = counter_tasks(sched, backend)
        sched.run_all()
        recorded = sched.trace_names()

        replay = VirtualScheduler(policy=ReplayPolicy(recorded))
        backend2 = VirtualBackend(replay)
        _tasks2, log2 = counter_tasks(replay, backend2)
        replay.run_all()
        assert replay.trace_names() == recorded
        assert log2 == log

    def test_replay_divergence_detected(self):
        sched = VirtualScheduler(policy=ReplayPolicy(["no-such-task"]))
        backend = VirtualBackend(sched)
        t = backend.thread(target=lambda: sched.switch("x"), name="real")
        t.start()
        with pytest.raises(ReplayDivergenceError):
            sched.run_all()
        sched.shutdown()


class TestPolicies:
    @pytest.mark.parametrize("name", ["random", "round-robin", "priority"])
    def test_every_policy_completes_and_reproduces(self, name):
        def run():
            sched = VirtualScheduler(policy=make_policy(name, 11))
            backend = VirtualBackend(sched)
            _tasks, log = counter_tasks(sched, backend)
            sched.run_all()
            return list(log)

        assert run() == run()

    def test_round_robin_is_fair(self):
        sched = VirtualScheduler(policy=RoundRobinPolicy())
        backend = VirtualBackend(sched)
        _tasks, log = counter_tasks(sched, backend, n_tasks=2, iters=4)
        sched.run_all()
        # Both tasks progress; neither finishes all its iterations before
        # the other starts.
        first_done = next(i for i, (t, k) in enumerate(log) if k == 3)
        other = 1 - log[first_done][0]
        assert any(t == other for t, _k in log[:first_done])

    def test_priority_policy_runs_bursts(self):
        sched = VirtualScheduler(policy=PriorityFuzzPolicy(seed=5))
        backend = VirtualBackend(sched)
        _tasks, log = counter_tasks(sched, backend, n_tasks=3, iters=6)
        sched.run_all()
        assert sorted(log) == [(t, i) for t in range(3) for i in range(6)]

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ScheduleError):
            make_policy("fifo")


class TestLiveness:
    def test_deadlock_detected_exactly(self):
        sched = VirtualScheduler(policy=RoundRobinPolicy())
        backend = VirtualBackend(sched)
        a, b = backend.lock(), backend.lock()

        def grab(first, second, me):
            with first:
                sched.switch(f"{me}-mid")
                with second:
                    pass

        t1 = backend.thread(target=grab, args=(a, b, "t1"), name="t1")
        t2 = backend.thread(target=grab, args=(b, a, "t2"), name="t2")
        t1.start()
        t2.start()
        with pytest.raises(DeadlockError) as info:
            sched.run_all()
        assert set(info.value.blocked) == {"t1", "t2"}
        assert info.value.trace_tail  # the divergent step trace is attached
        sched.shutdown()

    def test_step_limit_catches_livelock(self):
        sched = VirtualScheduler(policy=RoundRobinPolicy(), max_steps=100)
        backend = VirtualBackend(sched)

        def spin():
            while True:
                sched.switch("spin")

        backend.thread(target=spin, name="spinner").start()
        with pytest.raises(ScheduleLimitError):
            sched.run_all()
        sched.shutdown()

    def test_timeout_wait_uses_virtual_time(self):
        sched = VirtualScheduler(policy=RoundRobinPolicy())
        backend = VirtualBackend(sched)
        cond = backend.condition()
        seen = []

        def waiter():
            with cond:
                seen.append(cond.wait(timeout=5.0))
            seen.append(sched.now())

        backend.thread(target=waiter, name="w").start()
        sched.run_all()
        # Nothing notifies: the wait times out instantly in real time,
        # with the virtual clock advanced to the deadline.
        assert seen == [False, 5.0]


class TestPrimitives:
    def test_lock_mutual_exclusion(self):
        sched = VirtualScheduler(policy=RandomPolicy(9))
        backend = VirtualBackend(sched)
        lock = backend.lock()
        depth = [0]
        bad = []

        def critical(me):
            for _ in range(10):
                with lock:
                    depth[0] += 1
                    sched.switch(f"{me}-inside")  # tempt a second entrant
                    if depth[0] != 1:
                        bad.append(depth[0])
                    depth[0] -= 1
                sched.switch(f"{me}-outside")

        for i in range(3):
            backend.thread(target=critical, args=(i,), name=f"c{i}").start()
        sched.run_all()
        assert bad == []

    def test_condition_wait_notify(self):
        sched = VirtualScheduler(policy=RandomPolicy(4))
        backend = VirtualBackend(sched)
        cond = backend.condition()
        items = []
        got = []

        def producer():
            for i in range(5):
                with cond:
                    items.append(i)
                    cond.notify()
                sched.switch("produced")

        def consumer():
            while len(got) < 5:
                with cond:
                    while not items:
                        cond.wait()
                    got.append(items.pop(0))

        backend.thread(target=producer, name="prod").start()
        backend.thread(target=consumer, name="cons").start()
        sched.run_all()
        assert got == list(range(5))

    def test_task_error_is_captured(self):
        sched = VirtualScheduler(policy=RoundRobinPolicy())
        backend = VirtualBackend(sched)

        def boom():
            raise ValueError("bang")

        t = backend.thread(target=boom, name="boom")
        t.start()
        sched.run_all()
        assert isinstance(t.error, ValueError)

    def test_shutdown_reaps_blocked_tasks(self):
        sched = VirtualScheduler(policy=RoundRobinPolicy())
        backend = VirtualBackend(sched)
        cond = backend.condition()

        def waits_forever():
            with cond:
                cond.wait()

        t = backend.thread(target=waits_forever, name="stuck")
        t.start()
        with pytest.raises(DeadlockError):
            sched.run_all()
        sched.shutdown()
        assert not t.is_alive()
