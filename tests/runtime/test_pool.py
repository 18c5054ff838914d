"""The executor pool that ``ThreadPort`` starts and joins: its size check
and its join watchdog.

The hand-off itself is tested in ``test_thread_port.py``; these tests
drive the port with a stub runtime whose vertex 1 blocks until released
and whose vertex 2 raises.
"""

import threading

import pytest

from repro.errors import EngineError
from repro.runtime.backend import OS_BACKEND
from repro.runtime.engine import ThreadPort


class GatedRuntime:
    """Vertex 1 waits on ``release``; vertex 2 raises ``ValueError``."""

    def __init__(self):
        self.release = threading.Event()

    def compute(self, v, ctxs, after_member=None):
        if v == 1:
            self.release.wait(timeout=10)
        if v == 2:
            raise ValueError("root cause")
        return len(ctxs)


def started_port(num_threads):
    port, runtime = ThreadPort(num_threads, OS_BACKEND), GatedRuntime()
    port.start(runtime)
    return port, runtime


def alive(port):
    return [t.name for t in port._threads if t.is_alive()]


class TestPool:
    def test_zero_threads_rejected(self):
        with pytest.raises(EngineError, match="at least one executor"):
            ThreadPort(0, OS_BACKEND)

    def test_join_timeout_raises_on_stuck_thread(self):
        port, runtime = started_port(1)
        port.send(0, 1, [1], [None])
        port.close()
        try:
            with pytest.raises(EngineError, match="terminate") as ei:
                port.join(timeout=0.05)
            assert "compute-0" in str(ei.value)
            assert alive(port) == ["compute-0"]
        finally:
            runtime.release.set()
        port.join(timeout=5)
        assert alive(port) == []

    def test_join_timeout_without_error_has_no_cause(self):
        port, runtime = started_port(1)
        port.send(0, 1, [1], [None])
        port.close()
        try:
            with pytest.raises(EngineError) as ei:
                port.join(timeout=0.05)
            assert ei.value.__cause__ is None
            assert ei.value.worker_errors == []
        finally:
            runtime.release.set()
        port.join(timeout=5)

    def test_join_timeout_names_prior_worker_error(self):
        # Executor 1 fails on vertex 2 while executor 0 is still wedged
        # on vertex 1: the join timeout must carry the failure, not just
        # report the wedge.
        port, runtime = started_port(2)
        port.send(0, 1, [1], [None])
        port.send(1, 2, [1], [None])
        handback = port.collect(timeout=5)
        assert handback[1] == 2 and isinstance(handback[5], ValueError)
        port.close()
        try:
            with pytest.raises(EngineError) as ei:
                port.join(timeout=0.1)
            assert "root cause" in str(ei.value)
            assert "ValueError" in str(ei.value)
            assert isinstance(ei.value.__cause__, ValueError)
            assert [type(e) for e in ei.value.worker_errors] == [ValueError]
        finally:
            runtime.release.set()
        port.join(timeout=5)
        assert alive(port) == []
