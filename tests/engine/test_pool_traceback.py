"""Regression tests: worker exceptions must keep their remote traceback.

Before the fix, a worker that raised before (or during) the
fork-capture handshake surfaced in the parent as a bare pool-level
failure — the original frames were gone and the batch was pointlessly
recomputed serially just to reproduce a deterministic error.  Now the
traceback is formatted *at the raise site* inside the worker
(:meth:`WorkerFailure.capture`), shipped back as a value, and re-raised
in the parent with the remote text chained as ``__cause__``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine import EngineStats, supervise_work_items
from repro.engine.pool import (
    WorkerFailure,
    WorkerTraceback,
    parallelism_available,
)

needs_fork = pytest.mark.skipif(not parallelism_available(),
                                reason="needs the fork start method")


def _worker_that_raises(context, item):
    if item == 2:
        raise ZeroDivisionError("synthetic failure in item 2")
    return item


class StubbornError(Exception):
    """An exception whose instances refuse to pickle."""

    def __init__(self, handle):
        super().__init__("stubborn")
        self.handle = handle

    def __reduce__(self):
        raise TypeError("no pickling, ever")


def _worker_unpicklable_exception(context, item):
    raise StubbornError(handle=lambda: item)


@needs_fork
class TestRemoteTraceback:
    def test_parallel_worker_error_keeps_remote_frames(self):
        with pytest.raises(ZeroDivisionError,
                           match="synthetic failure") as info:
            supervise_work_items(_worker_that_raises, range(4), jobs=2)
        cause = info.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        # The worker-side frames survive the process boundary.
        assert "_worker_that_raises" in cause.text
        assert "synthetic failure in item 2" in cause.text
        assert "ZeroDivisionError" in cause.text

    def test_worker_error_does_not_trigger_serial_recompute(self,
                                                            recwarn):
        stats = EngineStats()
        with pytest.raises(ZeroDivisionError):
            supervise_work_items(_worker_that_raises, range(4), jobs=2,
                                 stats=stats)
        # No RuntimeWarning, no fallback, no retry or in-parent
        # degradation: the deterministic error is raised once, directly.
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]
        assert stats.pool_fallbacks == 0
        assert stats.supervisor_retries == 0
        assert stats.supervisor_degraded == 0

    def test_unpicklable_exception_degrades_to_runtime_error(self):
        with pytest.raises(RuntimeError,
                           match="unpicklable exception") as info:
            supervise_work_items(_worker_unpicklable_exception,
                                 range(2), jobs=2)
        cause = info.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "StubbornError" in cause.text


class TestWorkerFailure:
    def test_capture_formats_at_raise_site(self):
        try:
            raise KeyError("lost")
        except KeyError as exc:
            failure = WorkerFailure.capture(exc)
        assert "KeyError" in failure.traceback_text
        assert failure.description == "KeyError: 'lost'"
        with pytest.raises(KeyError) as info:
            failure.reraise()
        assert isinstance(info.value.__cause__, WorkerTraceback)

    def test_reduce_degrades_unpicklable_exception(self):
        failure = WorkerFailure.capture(StubbornError(handle=object()))
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.exception is None  # degraded, not poisoned
        assert clone.traceback_text == failure.traceback_text
        with pytest.raises(RuntimeError, match="StubbornError"):
            clone.reraise()

    def test_picklable_exception_survives_reduce(self):
        failure = WorkerFailure.capture(ValueError("plain"))
        clone = pickle.loads(pickle.dumps(failure))
        assert isinstance(clone.exception, ValueError)
        with pytest.raises(ValueError, match="plain"):
            clone.reraise()

    def test_capture_does_not_pickle_and_serializes_exactly_once(self):
        # Regression: capture() used to round-trip every exception
        # through pickle.dumps eagerly, so the common success path paid
        # a serialization even when the failure never crossed a pipe —
        # and a shipped failure paid it twice (probe + re-pickle).
        # Pickleability is now probed lazily, in __reduce__, once.
        class CountingError(Exception):
            reduce_calls = 0

            def __reduce__(self):
                CountingError.reduce_calls += 1
                return (CountingError, ())

        failure = WorkerFailure.capture(CountingError())
        assert CountingError.reduce_calls == 0  # capture stays free
        pickle.loads(pickle.dumps(failure))
        assert CountingError.reduce_calls == 1  # probe IS the payload

    def test_pickles_but_wont_unpickle_degrades_cleanly(self):
        # The payload can also fail on the *parent* side: an exception
        # whose __reduce__ succeeds but whose reconstructor raises.
        def _explode():
            raise TypeError("no unpickling, ever")

        class OneWayError(Exception):
            def __reduce__(self):
                return (_explode, ())

        failure = WorkerFailure.capture(OneWayError("one-way"))
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.exception is None  # degraded, not raised mid-load
        assert "OneWayError" in clone.traceback_text
        with pytest.raises(RuntimeError, match="OneWayError"):
            clone.reraise()
