"""Unit tests for :mod:`repro.engine.scheduler`.

The property-based differential harness
(test_supervisor_properties.py) pins verdict equality for batch mode on
real protocols; this file pins the batch-specific mechanics — cost-model
sizing, requeue-without-retry-charge on worker death, heartbeat-armed
timeouts, group-commit journaling and the routing / prewarm plumbing —
on tiny synthetic workers.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.engine import EngineStats
from repro.engine.journal import RunJournal
from repro.engine.pool import WorkerTraceback, parallelism_available
from repro.engine.scheduler import (
    MAX_BATCH_ITEMS,
    MIN_TASK_SECONDS,
    CostModel,
)
from repro.engine.supervisor import (
    FaultPlan,
    SupervisorPolicy,
    supervise_work_items,
)
from repro.obs import runtime as obs

from tests.engine.conftest import square

needs_fork = pytest.mark.skipif(not parallelism_available(),
                                reason="needs the fork start method")


def identity_fallback(context, item):
    return item * item


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
class TestCostModel:
    def test_fixed_size_must_be_positive(self):
        with pytest.raises(ValueError):
            CostModel(fixed=0)
        with pytest.raises(ValueError):
            CostModel(fixed=-3)

    def test_first_dispatch_is_a_probe_of_one(self):
        model = CostModel()
        assert model.batch_size(1000, 4) == (1, False)

    def test_fixed_size_bypasses_adaptation(self):
        model = CostModel(fixed=8)
        model.observe(1e-6)  # would suggest a huge batch
        assert model.batch_size(100, 4) == (8, False)
        assert model.batch_size(5, 4) == (5, False)  # remaining clamps

    def test_ewma_sizes_to_the_target(self):
        model = CostModel()
        model.observe(0.01)  # -> 10 tasks per 0.1 s target
        size, tail_limited = model.batch_size(1000, 1)
        assert size == 10
        assert not tail_limited

    def test_ewma_weights_new_samples(self):
        model = CostModel()
        model.observe(0.01)
        model.observe(0.03)
        assert model.ewma == pytest.approx(0.25 * 0.03 + 0.75 * 0.01)

    def test_zero_duration_sample_is_clamped(self):
        model = CostModel()
        model.observe(0.0)  # a clock tick must not explode the batch
        assert model.ewma == MIN_TASK_SECONDS
        size, _ = model.batch_size(10 ** 9, 1)
        assert size == MAX_BATCH_ITEMS

    def test_tail_fair_share_caps_the_batch(self):
        model = CostModel()
        model.observe(1e-5)  # cost model alone would take everything
        size, tail_limited = model.batch_size(8, 4)
        assert size == 1  # ceil(8 / 4 / 2)
        assert tail_limited

    def test_exhausted_queue_sizes_to_zero(self):
        assert CostModel().batch_size(0, 4) == (0, False)

    def test_from_ambient_seeds_from_the_histogram(self):
        with obs.run("seeding"):
            obs.observe("scheduler.task_seconds", 0.02)
            obs.observe("scheduler.task_seconds", 0.04)
            model = CostModel.from_ambient()
        assert model.ewma == pytest.approx(0.03)
        # And without a prior histogram: no seed, probe-first.
        with obs.run("cold"):
            assert CostModel.from_ambient().ewma is None
        assert CostModel.from_ambient().ewma is None  # no run at all


# ----------------------------------------------------------------------
# routing, validation, prewarm
# ----------------------------------------------------------------------
class TestRouting:
    @needs_fork
    def test_prewarm_runs_once_in_the_parent(self):
        calls = []
        results = supervise_work_items(
            square, range(6), jobs=2,
            policy=SupervisorPolicy(backoff=0.01),
            prewarm=lambda: calls.append(1))
        assert results == [i * i for i in range(6)]
        assert calls == [1]  # parent-side: visible, and exactly once

    def test_prewarm_is_skipped_when_nothing_forks(self):
        calls = []
        results = supervise_work_items(
            square, range(3), jobs=1,
            policy=SupervisorPolicy(),  # no timeout: serial in-parent
            prewarm=lambda: calls.append(1))
        assert results == [0, 1, 4]
        assert calls == []

    @needs_fork
    def test_schedules_agree_on_results_and_stats_tell_them_apart(self):
        # The two execution paths: the in-parent serial loop (jobs=1)
        # and the batch scheduler (jobs=2).  Same results; the stats
        # say which one ran.
        outcomes = {}
        for jobs in (1, 2):
            stats = EngineStats(jobs=jobs)
            outcomes[jobs] = supervise_work_items(
                square, range(8), jobs=jobs, stats=stats,
                policy=SupervisorPolicy(backoff=0.01))
            if jobs > 1:
                assert stats.scheduler_batches > 0
                assert stats.scheduler_batch_items == 8
                assert stats.pool_fallbacks == 0
            else:
                # The expected serial loop is not a fallback.
                assert stats.scheduler_batches == 0
                assert stats.pool_fallbacks == 0
        assert outcomes[1] == outcomes[2] == [i * i for i in range(8)]

    @needs_fork
    def test_injected_fault_plan_always_forks(self):
        # Fault injection exists to exercise the forking path, so even
        # a jobs=1 run without a deadline goes to the scheduler.
        stats = EngineStats()
        results = supervise_work_items(
            square, range(3), jobs=1, stats=stats,
            plan=FaultPlan(die_after_checkpoints=99))
        assert results == [0, 1, 4]
        assert stats.scheduler_batches > 0
        assert stats.pool_fallbacks == 0

    @needs_fork
    def test_single_supervised_task_runs_on_one_worker(self):
        # `repro check --timeout`: one pending item under a deadline
        # still forks (the deadline needs a killable child), on exactly
        # one worker.
        stats = EngineStats()
        results = supervise_work_items(
            square, [7], jobs=4, stats=stats,
            policy=SupervisorPolicy(timeout=30.0, backoff=0.01))
        assert results == [49]
        assert stats.scheduler_batches == 1
        assert not stats.parallel
        assert stats.pool_fallbacks == 0


# ----------------------------------------------------------------------
# batch execution mechanics (a jobs=1 run forks its one worker only
# under a deadline, hence the generous timeouts below)
# ----------------------------------------------------------------------
@needs_fork
class TestBatchExecution:
    def test_pinned_batch_size_shapes_the_dispatch(self):
        stats = EngineStats()
        results = supervise_work_items(
            square, range(9), jobs=1, stats=stats, batch_size=3,
            policy=SupervisorPolicy(timeout=30.0, backoff=0.01))
        assert results == [i * i for i in range(9)]
        assert stats.scheduler_batches == 3  # ceil(9 / 3), one worker
        assert stats.scheduler_batch_items == 9

    def test_crash_charges_only_the_casualty(self, crashing_worker):
        # One worker, one batch of six: the crash on item 0 must retry
        # item 0 alone and requeue the five bystanders with their
        # attempt counters untouched.
        worker = crashing_worker(crash_items={0})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(6), jobs=1, stats=stats, batch_size=6,
            policy=SupervisorPolicy(timeout=30.0, retries=1,
                                    backoff=0.01))
        assert results == [i * i for i in range(6)]
        assert stats.supervisor_retries == 1
        assert stats.scheduler_requeued == 5
        # retries=1 with 5 requeued bystanders: had requeueing spent
        # retry budget, something here would have degraded.
        assert stats.supervisor_degraded == 0

    def test_injected_crash_via_fault_plan(self):
        stats = EngineStats()
        results = supervise_work_items(
            square, range(4), jobs=2, stats=stats,
            policy=SupervisorPolicy(backoff=0.01),
            plan=FaultPlan(crash_items=frozenset({0})))
        assert results == [0, 1, 4, 9]
        assert stats.supervisor_retries == 1

    def test_hung_task_is_killed_retried_and_bystanders_requeued(
            self, hanging_worker):
        worker = hanging_worker(hang_items={0})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(5), jobs=1, stats=stats, batch_size=5,
            policy=SupervisorPolicy(timeout=0.4, retries=2,
                                    backoff=0.01))
        assert results == [i * i for i in range(5)]
        assert stats.supervisor_timeouts == 1
        assert stats.scheduler_requeued == 4
        assert stats.supervisor_degraded == 0

    def test_exception_reraises_with_remote_traceback(self):
        def cursed(context, item):
            if item == 2:
                raise ValueError(f"item {item} is cursed")
            return item * item

        with pytest.raises(ValueError, match="item 2 is cursed") as info:
            supervise_work_items(
                cursed, range(4), jobs=2,
                policy=SupervisorPolicy(backoff=0.01))
        cause = info.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "cursed" in cause.text

    def test_exception_is_not_retried(self, tmp_path):
        counter_dir = tmp_path / "calls"
        counter_dir.mkdir()

        def counting_failure(context, item):
            (counter_dir / f"call-{item}-"
             f"{len(list(counter_dir.iterdir()))}").write_text("")
            raise RuntimeError("deterministic")

        with pytest.raises(RuntimeError, match="deterministic"):
            supervise_work_items(
                counting_failure, range(2), jobs=1,
                policy=SupervisorPolicy(timeout=30.0, retries=3,
                                        backoff=0.01))
        # The failing item ran exactly once; no retry burned on a
        # deterministic exception.
        calls = [p.name for p in counter_dir.iterdir()]
        assert len([c for c in calls if c.startswith("call-0-")]) <= 1
        assert len([c for c in calls if c.startswith("call-1-")]) <= 1

    def test_unpicklable_result_degrades_that_task(self):
        def lambda_result(context, item):
            return lambda: item  # never pickles

        stats = EngineStats()
        results = supervise_work_items(
            lambda_result, [3, 4], jobs=1, stats=stats,
            policy=SupervisorPolicy(timeout=30.0, backoff=0.01),
            fallback_worker=identity_fallback)
        assert results == [9, 16]
        assert stats.supervisor_degraded == 2

    def test_degradation_disabled_raises(self):
        def always_crashes(context, item):
            import os as _os
            import signal as _signal

            _os.kill(_os.getpid(), _signal.SIGKILL)

        from repro.engine.supervisor import SupervisorError

        with pytest.raises(SupervisorError, match="degradation"):
            supervise_work_items(
                always_crashes, range(2), jobs=1,
                policy=SupervisorPolicy(timeout=30.0, retries=0,
                                        backoff=0.01, degrade=False))


# ----------------------------------------------------------------------
# journaling: group commit under batches
# ----------------------------------------------------------------------
@needs_fork
class TestBatchJournal:
    def test_checkpoints_coalesce_and_resume(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="batched")
        keys = [f"key-{i}" for i in range(40)]
        results = supervise_work_items(
            square, range(40), jobs=2, journal=journal, keys=keys,
            policy=SupervisorPolicy(backoff=0.01))
        assert results == [i * i for i in range(40)]
        assert journal.stats.entries_recorded == 40
        # Group commit: far fewer syncs than records, everything
        # durable by the end of the run.
        assert 1 <= journal.stats.fsyncs < 40
        assert journal.flush_interval == 0.0  # restored on exit
        resumed = RunJournal.resume(tmp_path, "batched")
        assert len(resumed) == 40

    def test_resume_skips_journaled_items(self, tmp_path,
                                          crashing_worker):
        journal = RunJournal.create(tmp_path, run_id="shielded")
        journal.record("key-0", 0)
        journal.record("key-2", 4)
        worker = crashing_worker(crash_items={0, 2})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(4), jobs=2, stats=stats, journal=journal,
            keys=[f"key-{i}" for i in range(4)],
            policy=SupervisorPolicy(retries=0, backoff=0.01))
        assert results == [0, 1, 4, 9]
        assert stats.supervisor_resumed == 2
        assert stats.supervisor_retries == 0


# ----------------------------------------------------------------------
# worker lifecycle across a hard parent kill
# ----------------------------------------------------------------------
_KILLED_PARENT = textwrap.dedent("""
    import os, sys
    from pathlib import Path
    from repro.engine.journal import RunJournal
    from repro.engine.supervisor import FaultPlan, supervise_work_items

    out = Path(sys.argv[1])

    def record_pid(context, item):
        (out / str(os.getpid())).touch()
        return item

    journal = RunJournal.create(out / "runs", run_id="orphans")
    supervise_work_items(record_pid, range(6), jobs=2, journal=journal,
                         keys=[str(i) for i in range(6)],
                         plan=FaultPlan(die_after_checkpoints=2))
""")


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:  # reparented to an init that does not reap: a zombie is gone
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


@needs_fork
def test_workers_exit_when_the_parent_is_killed(tmp_path):
    # die-after hard-exits the parent mid-run (os._exit, like kill -9):
    # no shutdown message is ever sent, and sibling workers hold each
    # other's command pipes open, so only the parent-pid watch can end
    # the orphaned workers.
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    env.pop("REPRO_INJECT_FAULT", None)
    done = subprocess.run([sys.executable, "-c", _KILLED_PARENT,
                           str(tmp_path)], env=env, timeout=60)
    assert done.returncode == 70
    workers = [int(p.name) for p in tmp_path.iterdir()
               if p.name.isdigit()]
    assert workers, "no worker ran a task"
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and not all(map(_gone, workers)):
        time.sleep(0.1)
    assert all(map(_gone, workers)), "orphaned workers outlived the parent"
