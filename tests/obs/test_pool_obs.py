"""Observability across the dispatch path, and its differential contract.

Covers three contracts: a ``jobs=2`` run through the batch scheduler
yields one re-parented span tree with the same item subtrees every
time; every serial-loop run carries a machine-readable reason; and
verdicts are byte-identical with tracing on or off.
"""

import dataclasses
import json
import pickle
import warnings

import pytest

from repro.engine import EngineStats, Executor
from repro.engine.pool import parallelism_available
from repro.engine.supervisor import supervise_work_items
from repro.obs import runtime as obs
from repro.checker.sweep import sweep_verify
from repro.protocols import stabilizing_sum_not_two


@pytest.fixture(autouse=True)
def _no_leaked_run():
    assert obs.active() is None
    yield
    if obs.active() is not None:  # pragma: no cover - test bug guard
        obs.finish(obs.active())
        pytest.fail("test leaked an active observability run")


def _square(_context, item):
    with obs.span("worker.square", item=item):
        obs.metric("worker.calls")
    return item * item


needs_fork = pytest.mark.skipif(not parallelism_available(),
                                reason="fork start method unavailable")


# ----------------------------------------------------------------------
# span re-parenting across the fork boundary
# ----------------------------------------------------------------------
@needs_fork
def test_parallel_run_yields_one_deterministic_span_tree():
    stats = EngineStats(jobs=2)
    with obs.run("pool-test") as run_ctx:
        results = supervise_work_items(_square, [2, 3, 4], jobs=2,
                                       stats=stats)
    assert results == [4, 9, 16]
    assert stats.parallel
    assert stats.pool_fallbacks == 0
    assert stats.scheduler_batches > 0

    (dispatch,) = run_ctx.spans[0].children
    assert dispatch.name == "scheduler.map"
    assert dispatch.attrs == {"mode": "batch", "jobs": 2,
                              "method": "fork", "items": 3,
                              "timeout": None, "retries": 2}
    # Adoption is by item index, so the item subtrees are the same no
    # matter which worker finished first or how the items were batched.
    items = [c for c in dispatch.children if c.name.startswith("item[")]
    assert sorted(c.name for c in items) == [
        "item[0]", "item[1]", "item[2]"]
    for wrapper in items:
        index = int(wrapper.name[len("item["):-1])
        assert "pid" in wrapper.attrs
        (child,) = wrapper.children
        assert child.name == "worker.square"
        assert child.attrs == {"item": index + 2}
        assert child.pid == wrapper.attrs["pid"]
    # Worker metrics merged back into the parent run.
    assert run_ctx.metrics.value("worker.calls") == 3
    assert run_ctx.metrics.value("pool.fallbacks", default=None) is None


@needs_fork
def test_parallel_run_without_active_run_still_returns_results():
    stats = EngineStats(jobs=2)
    assert supervise_work_items(_square, [5, 6], jobs=2,
                                stats=stats) == [25, 36]
    assert stats.parallel


# ----------------------------------------------------------------------
# serial-loop telemetry — the expected serial loop is not a fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("items,jobs,reason", [
    pytest.param([1, 2, 3], 1, "jobs<=1", id="items0-1-jobs<=1-info"),
    pytest.param([7], 4, "single-item", id="items1-4-single-item-info"),
])
def test_expected_fallbacks_record_info_events(items, jobs, reason):
    # jobs<=1 and a single pending item are the normal serial path: the
    # supervisor.serial span carries the reason, and nothing counts or
    # reports a fallback (only no-fork does).
    stats = EngineStats(jobs=jobs)
    with obs.run("fallback-test") as run_ctx:
        results = supervise_work_items(_square, items, jobs=jobs,
                                       stats=stats)
    assert results == [i * i for i in items]
    assert not stats.parallel
    assert stats.pool_fallbacks == 0
    assert stats.scheduler_batches == 0
    assert run_ctx.metrics.value("pool.fallbacks", default=None) is None
    assert not [e for e in run_ctx.events if e["kind"] == "pool-fallback"]
    serial_span = run_ctx.spans[0].children[0]
    assert serial_span.name == "supervisor.serial"
    assert serial_span.attrs == {"reason": reason, "items": len(items)}


def test_fallback_without_stats_or_run_is_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert supervise_work_items(_square, [3], jobs=1) == [9]


# ----------------------------------------------------------------------
# EngineStats on the metrics registry
# ----------------------------------------------------------------------
def test_merge_kernel_counters_accumulates_stage_seconds():
    parent = EngineStats()
    parent.stage_seconds["sweep"] = 1.0
    child = EngineStats()
    child.stage_seconds["check"] = 0.25
    child.compile_seconds = 0.5
    child.work_items = 99  # engine-level: must NOT fold into the parent

    parent.merge_kernel_counters(child)
    parent.merge_kernel_counters(child)
    assert parent.stage_seconds["check"] == pytest.approx(0.5)
    assert parent.stage_seconds["sweep"] == pytest.approx(1.0)
    assert parent.compile_seconds == pytest.approx(1.0)
    assert parent.work_items == 0
    parent.merge_kernel_counters(None)  # tolerated


def test_stats_pickle_roundtrip_preserves_metrics():
    stats = EngineStats(jobs=4)
    stats.work_items = 3
    stats.stage_seconds["closure"] = 0.125
    clone = pickle.loads(pickle.dumps(stats))
    assert clone.jobs == 4
    assert clone.work_items == 3
    assert clone.stage_seconds["closure"] == 0.125
    assert clone.to_dict() == stats.to_dict()


def test_stats_to_dict_is_json_ready():
    stats = EngineStats()
    with stats.stage("closure"):
        pass
    stats.cache_hits += 2
    data = json.loads(json.dumps(stats.to_dict()))
    assert data["cache_hits"] == 2
    assert "closure" in data["stage_seconds"]
    assert data["total_seconds"] >= 0
    assert data["metrics"]["engine.cache_hits"] == 2


# ----------------------------------------------------------------------
# the differential contract: tracing never changes verdicts
# ----------------------------------------------------------------------
def test_sweep_verdicts_byte_identical_with_tracing_on():
    protocol = stabilizing_sum_not_two()
    plain = sweep_verify(protocol, up_to=6, executor=Executor(jobs=2))
    with obs.run("traced-sweep"):
        traced = sweep_verify(protocol, up_to=6,
                              executor=Executor(jobs=2))

    def verdict_bytes(result):
        # stats carry wall-clock timings, which differ run to run; the
        # contract is about the verdict payload.
        return pickle.dumps(tuple(
            dataclasses.replace(report, stats=None)
            for report in result.reports))

    assert verdict_bytes(traced) == verdict_bytes(plain)
    assert traced.reports == plain.reports
    assert traced.all_self_stabilizing == plain.all_self_stabilizing
    assert traced.failing_sizes == plain.failing_sizes
