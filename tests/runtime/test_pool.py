"""Tests for the computation thread pool."""

import threading
import time

import pytest

from repro.errors import EngineError
from repro.runtime.pool import ComputationThreadPool


class TestPool:
    def test_runs_target_per_worker(self):
        seen = []
        lock = threading.Lock()

        def target(wid: int) -> None:
            with lock:
                seen.append(wid)

        pool = ComputationThreadPool(4, target)
        pool.start()
        pool.join(timeout=5)
        assert sorted(seen) == [0, 1, 2, 3]

    def test_zero_threads_rejected(self):
        with pytest.raises(EngineError):
            ComputationThreadPool(0, lambda wid: None)

    def test_error_collection_and_reraise(self):
        def target(wid: int) -> None:
            if wid == 1:
                raise ValueError("worker 1 failed")

        pool = ComputationThreadPool(3, target)
        pool.start()
        pool.join(timeout=5)
        assert len(pool.errors) == 1
        with pytest.raises(ValueError, match="worker 1 failed"):
            pool.reraise()

    def test_join_timeout_raises_on_stuck_thread(self):
        release = threading.Event()

        def target(wid: int) -> None:
            release.wait(timeout=10)

        pool = ComputationThreadPool(1, target)
        pool.start()
        with pytest.raises(EngineError, match="terminate"):
            pool.join(timeout=0.05)
        assert pool.any_alive()
        release.set()
        pool.join(timeout=5)
        assert not pool.any_alive()

    def test_reraise_noop_without_errors(self):
        pool = ComputationThreadPool(1, lambda wid: None)
        pool.start()
        pool.join(timeout=5)
        pool.reraise()  # no exception

    def test_join_timeout_names_prior_worker_error(self):
        # Regression: when worker A crashes and worker B wedges as a
        # result, join() used to raise a bare "failed to terminate"
        # EngineError before the caller could reach reraise() — burying
        # the root cause.  The timeout error must now carry it.
        release = threading.Event()

        def target(wid: int) -> None:
            if wid == 0:
                raise ValueError("root cause")
            release.wait(timeout=10)

        pool = ComputationThreadPool(2, target)
        pool.start()
        with pytest.raises(EngineError) as ei:
            pool.join(timeout=0.1)
        try:
            assert "root cause" in str(ei.value)
            assert "ValueError" in str(ei.value)
            assert isinstance(ei.value.__cause__, ValueError)
            assert [type(e) for e in ei.value.worker_errors] == [ValueError]
        finally:
            release.set()
            pool.join(timeout=5)
        assert not pool.any_alive()

    def test_join_timeout_without_error_has_no_cause(self):
        release = threading.Event()

        def target(wid: int) -> None:
            release.wait(timeout=10)

        pool = ComputationThreadPool(1, target)
        pool.start()
        with pytest.raises(EngineError) as ei:
            pool.join(timeout=0.05)
        try:
            assert ei.value.__cause__ is None
            assert ei.value.worker_errors == []
        finally:
            release.set()
            pool.join(timeout=5)
