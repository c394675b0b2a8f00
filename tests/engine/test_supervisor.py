"""Unit tests for :mod:`repro.engine.supervisor`.

The differential property suite (test_supervisor_properties.py) pins
verdict equality on real protocols; this file pins the supervision
mechanics themselves — retry ladders, timeouts, degradation, journal
integration and the fault-injection plumbing — on tiny synthetic
workers.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.engine import EngineStats, ResultCache
from repro.engine.journal import RunJournal
from repro.engine.pool import WorkerTraceback, parallelism_available
from repro.engine.supervisor import (
    CACHED,
    COMPUTED,
    FAULT_ENV,
    JOURNALED,
    SERIAL,
    Executor,
    FaultPlan,
    SupervisorError,
    SupervisorPolicy,
    supervise_work_items,
)

from tests.engine.conftest import square

needs_fork = pytest.mark.skipif(not parallelism_available(),
                                reason="needs the fork start method")


def failing_worker(context, item):
    if item == 2:
        raise ValueError(f"item {item} is cursed")
    return item * item


def identity_fallback(context, item):
    return item * item


def never_called(context, item):
    raise AssertionError(f"the worker ran for item {item}")


def nothing(context, item):
    return None


def _keys(count):
    return [f"k{i}" for i in range(count)]


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
class TestSupervisorPolicy:
    def test_defaults(self):
        policy = SupervisorPolicy()
        assert policy.timeout is None
        assert policy.retries == 2
        assert policy.degrade

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(timeout=-1.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(retries=-1)

    def test_backoff_doubles_and_caps(self):
        policy = SupervisorPolicy(backoff=0.1, backoff_cap=0.35)
        assert policy.delay_before(1) == pytest.approx(0.1)
        assert policy.delay_before(2) == pytest.approx(0.2)
        assert policy.delay_before(3) == pytest.approx(0.35)
        assert policy.delay_before(10) == pytest.approx(0.35)


# ----------------------------------------------------------------------
# fault plan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_only_first_attempt_is_sabotaged(self):
        plan = FaultPlan(crash_items=frozenset({0}),
                         hang_items=frozenset({1}))
        assert plan.child_fault(0, attempt=0) == "crash"
        assert plan.child_fault(1, attempt=0) == "hang"
        assert plan.child_fault(0, attempt=1) is None
        assert plan.child_fault(2, attempt=0) is None

    def test_die_after_checkpoints_calls_die(self):
        deaths = []
        plan = FaultPlan(die_after_checkpoints=2, die=deaths.append)
        plan.on_checkpoint(1)
        assert deaths == []
        plan.on_checkpoint(2)
        assert deaths == [70]

    def test_from_env_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        assert FaultPlan.from_env() is None

    def test_from_env_parses_clauses(self):
        plan = FaultPlan.from_env(
            {FAULT_ENV: "crash:0,2; hang:1 ;die-after:3"})
        assert plan.crash_items == frozenset({0, 2})
        assert plan.hang_items == frozenset({1})
        assert plan.die_after_checkpoints == 3

    def test_from_env_rejects_unknown_clause(self):
        with pytest.raises(ValueError):
            FaultPlan.from_env({FAULT_ENV: "explode:1"})


# ----------------------------------------------------------------------
# routing and serial mode
# ----------------------------------------------------------------------
class TestExecutor:
    EXECUTION_PARAMETERS = {"jobs", "cache", "policy", "journal",
                            "batch_size", "fault_plan"}

    def test_entry_points_take_one_executor(self):
        import inspect

        from repro.checker.sweep import check_size, sweep_verify
        from repro.core.convergence import verify_convergence
        from repro.core.livelock import (
            LivelockCertifier,
            certify_livelock_freedom,
        )
        from repro.core.synthesis import Synthesizer, synthesize_convergence
        from repro.engine.synthsearch import LatticeSearch
        from repro.randomgen import audit_theorems

        for entry in (verify_convergence, LivelockCertifier,
                      certify_livelock_freedom, Synthesizer,
                      synthesize_convergence, sweep_verify, check_size,
                      audit_theorems, LatticeSearch):
            parameters = set(inspect.signature(entry).parameters)
            assert not parameters & self.EXECUTION_PARAMETERS, entry
        # synthesize_convergence forwards its keywords to Synthesizer.
        from repro.protocols import agreement

        with pytest.raises(TypeError, match="jobs"):
            synthesize_convergence(agreement(), jobs=2)

    def test_serial_default(self):
        assert SERIAL == Executor()
        assert (SERIAL.jobs, SERIAL.cache, SERIAL.policy, SERIAL.journal,
                SERIAL.plan) == (1, None, None, None, None)
        assert not SERIAL.keyed

    def test_options_need_keys_for_cache_and_journal(self, tmp_path):
        executor = Executor(jobs=3, cache=ResultCache(),
                            journal=RunJournal.create(tmp_path, run_id="r"))
        assert executor.keyed
        unkeyed = executor.options()
        assert unkeyed["jobs"] == 3
        assert "cache" not in unkeyed and "journal" not in unkeyed
        keyed = executor.options(_keys(2))
        assert keyed["cache"] is executor.cache
        assert keyed["journal"] is executor.journal
        assert supervise_work_items(square, range(2), **keyed) == [0, 1]
        assert executor.journal.completed == {"k0": 0, "k1": 1}

    def test_cached_report_stores_without_run_stats(self):
        from dataclasses import dataclass, field

        @dataclass(frozen=True)
        class Report:
            value: int
            stats: EngineStats | None = field(default=None, compare=False)

        executor = Executor(cache=ResultCache())
        calls = []

        def compute():
            calls.append(1)
            return Report(7, stats=first)

        first, second = EngineStats(), EngineStats()
        cold = executor.cached_report(lambda: "k", first, compute)
        warm = executor.cached_report(lambda: "k", second, compute)
        assert cold == warm == Report(7) and len(calls) == 1
        assert (first.cache_misses, second.cache_hits) == (1, 1)
        assert warm.stats is second
        assert executor.cache.get("k").stats is None
        # Without a cache the key is never derived.
        assert SERIAL.cached_report(None, first, compute) == Report(7)

    def test_verify_stores_one_whole_report(self):
        from repro.core.convergence import verify_convergence
        from repro.protocols import stabilizing_agreement

        cache = ResultCache()
        verify_convergence(stabilizing_agreement(),
                           executor=Executor(cache=cache))
        # The inner livelock certificate writes no entry of its own.
        assert cache.stats.stores == 1


class TestDelegation:
    @needs_fork
    def test_unsupervised_parallel_call_uses_the_batch_scheduler(self):
        # No policy, journal or fault plan: a jobs=2 fan-out still runs
        # on the batch scheduler's workers (under the default policy).
        stats = EngineStats(jobs=2)
        results = supervise_work_items(square, range(4), jobs=2,
                                       stats=stats)
        assert results == [0, 1, 4, 9]
        assert stats.scheduler_batches > 0
        assert stats.scheduler_batch_items == 4
        assert stats.parallel
        assert stats.pool_fallbacks == 0
        assert stats.supervisor_retries == 0

    def test_serial_supervised_run_still_journals(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="serial")
        keys = [f"k{i}" for i in range(3)]
        results = supervise_work_items(
            square, range(3), jobs=1,
            policy=SupervisorPolicy(),  # no timeout: no children needed
            journal=journal, keys=keys)
        assert results == [0, 1, 4]
        assert journal.stats.entries_recorded == 3
        resumed = RunJournal.resume(tmp_path, "serial")
        assert resumed.completed == {"k0": 0, "k1": 1, "k2": 4}

    def test_journal_requires_one_key_per_item(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="bad-keys")
        with pytest.raises(ValueError, match="one key per work item"):
            supervise_work_items(square, range(3), journal=journal,
                                 keys=["only-one"])


# ----------------------------------------------------------------------
# the ledger's cache -> journal -> run -> checkpoint -> store pipeline
# ----------------------------------------------------------------------
class TestLedgerPipeline:
    def test_cache_hit_never_calls_the_worker_or_forks(self):
        cache = ResultCache()
        for key, item in zip(_keys(3), range(3)):
            cache.put(key, item * item)
        stats = EngineStats(jobs=2)
        results = supervise_work_items(never_called, range(3), jobs=2,
                                       stats=stats, cache=cache,
                                       keys=_keys(3))
        assert results == [0, 1, 4]
        assert stats.cache_hits == 3 and stats.cache_misses == 0
        assert stats.scheduler_batches == 0 and not stats.parallel

    def test_miss_is_computed_and_stored(self):
        cache = ResultCache()
        stats = EngineStats()
        results = supervise_work_items(square, range(3), stats=stats,
                                       cache=cache, keys=_keys(3))
        assert results == [0, 1, 4]
        assert stats.cache_hits == 0 and stats.cache_misses == 3
        assert [cache.get(key) for key in _keys(3)] == [0, 1, 4]
        again = supervise_work_items(never_called, range(3), cache=cache,
                                     keys=_keys(3))
        assert again == results

    def test_none_result_round_trips_through_disk(self, tmp_path):
        supervise_work_items(nothing, [5], cache=ResultCache(tmp_path),
                             keys=["k0"])
        stats = EngineStats()
        results = supervise_work_items(never_called, [5], stats=stats,
                                       cache=ResultCache(tmp_path),
                                       keys=["k0"])
        assert results == [None]
        assert results.origins == [CACHED]
        assert stats.cache_hits == 1

    def test_cache_is_probed_before_the_journal(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="order")
        journal.record("k0", "from-journal")
        cache = ResultCache()
        cache.put("k0", "from-cache")
        stats = EngineStats()
        results = supervise_work_items(never_called, [0], stats=stats,
                                       cache=cache, journal=journal,
                                       keys=["k0"])
        assert results == ["from-cache"]
        assert stats.cache_hits == 1 and stats.supervisor_resumed == 0

    def test_cache_hits_are_not_journaled(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="hits")
        cache = ResultCache()
        cache.put("k0", 0)
        results = supervise_work_items(square, range(2), cache=cache,
                                       journal=journal, keys=_keys(2))
        assert results == [0, 1]
        assert journal.stats.entries_recorded == 1
        assert RunJournal.resume(tmp_path, "hits").completed == {"k1": 1}

    def test_journal_replays_fill_the_cache(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="fill")
        journal.record("k0", 0)
        cache = ResultCache()
        supervise_work_items(square, range(2), cache=cache,
                             journal=journal, keys=_keys(2))
        assert cache.get("k0") == 0 and cache.get("k1") == 1

    def test_origins_are_reported(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="origins")
        journal.record("k1", 1)
        cache = ResultCache()
        cache.put("k0", 0)
        stats = EngineStats()
        results = supervise_work_items(square, range(3), stats=stats,
                                       cache=cache, journal=journal,
                                       keys=_keys(3))
        assert results == [0, 1, 4]
        assert results.origins == [CACHED, JOURNALED, COMPUTED]
        assert stats.cache_hits == 1 and stats.cache_misses == 2
        assert stats.supervisor_resumed == 1
        assert stats.supervisor_checkpoints == 1

    @needs_fork
    def test_scheduler_stores_results_and_reports_origins(self):
        cache = ResultCache()
        cache.put("k2", 4)
        stats = EngineStats(jobs=2)
        results = supervise_work_items(square, range(5), jobs=2,
                                       stats=stats, cache=cache,
                                       keys=_keys(5))
        assert results == [0, 1, 4, 9, 16]
        assert results.origins == [COMPUTED, COMPUTED, CACHED, COMPUTED,
                                   COMPUTED]
        assert stats.scheduler_batch_items == 4
        assert [cache.get(key) for key in _keys(5)] == [0, 1, 4, 9, 16]

    def test_caching_requires_one_key_per_item(self):
        with pytest.raises(ValueError, match="one key per work item"):
            supervise_work_items(square, range(3), cache=ResultCache())


class TestStopPredicate:
    def test_serial_loop_stops_computing_at_the_first_match(self):
        cache = ResultCache()
        stats = EngineStats()
        results = supervise_work_items(square, range(6), stats=stats,
                                       cache=cache, keys=_keys(6),
                                       stop=lambda result: result >= 4)
        assert results == [0, 1, 4]
        # Nothing after the stop was probed or computed.
        assert stats.cache_misses == 3
        assert "k3" not in cache

    def test_a_cached_match_stops_the_loop_too(self):
        cache = ResultCache()
        cache.put("k1", 99)
        results = supervise_work_items(square, range(4), cache=cache,
                                       keys=_keys(4),
                                       stop=lambda result: result == 99)
        assert results == [0, 99]
        assert results.origins == [COMPUTED, CACHED]

    @needs_fork
    def test_forking_run_is_speculative_and_truncated(self):
        cache = ResultCache()
        results = supervise_work_items(square, range(6), jobs=2,
                                       cache=cache, keys=_keys(6),
                                       stop=lambda result: result >= 4)
        assert results == [0, 1, 4]
        assert cache.get("k5") == 25  # every item ran


def logged_square(log_dir, item):
    """Square *item*, leaving one uniquely named file per call (forked
    children included)."""
    handle, _path = tempfile.mkstemp(dir=log_dir, prefix=f"{item}-")
    os.close(handle)
    return item * item


def logged_items(log_dir) -> list[int]:
    return sorted(int(path.name.split("-", 1)[0])
                  for path in log_dir.iterdir())


class TestRepeatedKeys:
    ITEMS = (3, 1, 3, 2, 1, 3)
    KEYS = [f"k{item}" for item in ITEMS]

    @pytest.mark.parametrize("jobs", [
        1, pytest.param(2, marks=needs_fork)])
    def test_each_distinct_key_runs_once(self, tmp_path, jobs):
        log_dir = tmp_path / "calls"
        log_dir.mkdir()
        journal = RunJournal.create(tmp_path, run_id=f"repeat-{jobs}")
        cache = ResultCache()
        stats = EngineStats(jobs=jobs)
        results = supervise_work_items(
            logged_square, self.ITEMS, jobs=jobs, context=log_dir,
            stats=stats, cache=cache, journal=journal, keys=self.KEYS)
        assert results == [9, 1, 9, 4, 1, 9]
        assert results.origins == [COMPUTED, COMPUTED, CACHED, COMPUTED,
                                   CACHED, CACHED]
        assert logged_items(log_dir) == [1, 2, 3]
        assert stats.cache_misses == 3 and stats.cache_hits == 0
        assert journal.stats.entries_recorded == 3
        assert cache.stats.stores == 3 and cache.stats.misses == 3

    def test_uncached_run_still_shares_results(self, tmp_path):
        log_dir = tmp_path / "calls"
        log_dir.mkdir()
        results = supervise_work_items(logged_square, self.ITEMS,
                                       context=log_dir, keys=self.KEYS)
        assert results == [9, 1, 9, 4, 1, 9]
        assert logged_items(log_dir) == [1, 2, 3]

    def test_stop_truncates_in_item_order(self, tmp_path):
        log_dir = tmp_path / "calls"
        log_dir.mkdir()
        results = supervise_work_items(logged_square, self.ITEMS,
                                       context=log_dir, keys=self.KEYS,
                                       stop=lambda result: result == 4)
        assert results == [9, 1, 9, 4]
        assert logged_items(log_dir) == [1, 2, 3]


# ----------------------------------------------------------------------
# crash isolation and retries
# ----------------------------------------------------------------------
@needs_fork
class TestCrashIsolation:
    def test_crashed_worker_is_retried(self, crashing_worker):
        worker = crashing_worker(crash_items={1, 3})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(5), jobs=2, stats=stats,
            policy=SupervisorPolicy(backoff=0.01))
        assert results == [0, 1, 4, 9, 16]
        assert stats.supervisor_retries == 2
        assert stats.supervisor_degraded == 0

    def test_injected_crash_via_fault_plan(self):
        stats = EngineStats()
        results = supervise_work_items(
            square, range(4), jobs=2, stats=stats,
            policy=SupervisorPolicy(backoff=0.01),
            plan=FaultPlan(crash_items=frozenset({0})))
        assert results == [0, 1, 4, 9]
        assert stats.supervisor_retries == 1

    def test_results_keep_item_order(self, crashing_worker):
        # The crashed item finishes last; its slot must not move.
        worker = crashing_worker(crash_items={0})
        results = supervise_work_items(
            worker, range(6), jobs=3,
            policy=SupervisorPolicy(backoff=0.01))
        assert results == [i * i for i in range(6)]

    def test_retry_budget_exhaustion_degrades(self):
        def always_crashes(context, item):
            import os as _os
            import signal as _signal

            if item == 1:
                _os.kill(_os.getpid(), _signal.SIGKILL)
            return item * item

        stats = EngineStats()
        results = supervise_work_items(
            always_crashes, range(3), jobs=2, stats=stats,
            policy=SupervisorPolicy(retries=1, backoff=0.01),
            fallback_worker=identity_fallback)
        assert results == [0, 1, 4]
        assert stats.supervisor_retries == 1
        assert stats.supervisor_degraded == 1

    def test_degradation_disabled_raises(self):
        def always_crashes(context, item):
            import os as _os
            import signal as _signal

            _os.kill(_os.getpid(), _signal.SIGKILL)

        with pytest.raises(SupervisorError, match="degradation"):
            supervise_work_items(
                always_crashes, [0], jobs=1,
                policy=SupervisorPolicy(timeout=30.0, retries=0,
                                        backoff=0.01, degrade=False))


# ----------------------------------------------------------------------
# timeouts
# ----------------------------------------------------------------------
@needs_fork
class TestTimeouts:
    def test_hung_worker_is_killed_and_retried(self, hanging_worker):
        worker = hanging_worker(hang_items={0})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(3), jobs=2, stats=stats,
            policy=SupervisorPolicy(timeout=0.4, retries=2,
                                    backoff=0.01))
        assert results == [0, 1, 4]
        assert stats.supervisor_timeouts >= 1
        assert stats.supervisor_retries >= 1
        assert stats.supervisor_degraded == 0

    def test_persistent_hang_degrades_to_fallback(self):
        def always_hangs(context, item):
            import time as _time

            _time.sleep(3600)

        stats = EngineStats()
        results = supervise_work_items(
            always_hangs, [7], jobs=1, stats=stats,
            policy=SupervisorPolicy(timeout=0.3, retries=1,
                                    backoff=0.01),
            fallback_worker=identity_fallback)
        assert results == [49]
        assert stats.supervisor_timeouts == 2
        assert stats.supervisor_degraded == 1


# ----------------------------------------------------------------------
# worker exceptions
# ----------------------------------------------------------------------
@needs_fork
class TestWorkerExceptions:
    def test_exception_reraised_with_remote_traceback(self):
        with pytest.raises(ValueError, match="item 2 is cursed") as info:
            supervise_work_items(
                failing_worker, range(4), jobs=2,
                policy=SupervisorPolicy(backoff=0.01))
        cause = info.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "failing_worker" in cause.text
        assert "item 2 is cursed" in cause.text

    def test_exception_is_not_retried(self, tmp_path):
        counter_dir = tmp_path / "calls"
        counter_dir.mkdir()

        def counting_failure(context, item):
            (counter_dir / f"call-{len(list(counter_dir.iterdir()))}"
             ).write_text("")
            raise RuntimeError("deterministic")

        with pytest.raises(RuntimeError, match="deterministic"):
            supervise_work_items(
                counting_failure, [0], jobs=1,
                policy=SupervisorPolicy(timeout=30.0, retries=3,
                                        backoff=0.01))
        assert len(list(counter_dir.iterdir())) == 1

    def test_unpicklable_result_degrades_that_task(self):
        def lambda_result(context, item):
            return lambda: item  # never pickles

        stats = EngineStats()
        results = supervise_work_items(
            lambda_result, [3], jobs=1, stats=stats,
            policy=SupervisorPolicy(timeout=30.0, backoff=0.01),
            fallback_worker=identity_fallback)
        assert results == [9]
        assert stats.supervisor_degraded == 1


# ----------------------------------------------------------------------
# journaling under supervision
# ----------------------------------------------------------------------
@needs_fork
class TestJournalIntegration:
    def test_completed_items_are_checkpointed(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="run1")
        keys = [f"key-{i}" for i in range(4)]
        results = supervise_work_items(
            square, range(4), jobs=2, journal=journal, keys=keys,
            policy=SupervisorPolicy(backoff=0.01))
        assert results == [0, 1, 4, 9]
        resumed = RunJournal.resume(tmp_path, "run1")
        assert resumed.completed == {f"key-{i}": i * i for i in range(4)}

    def test_resume_skips_journaled_items(self, tmp_path, crashing_worker):
        journal = RunJournal.create(tmp_path, run_id="run2")
        journal.record("key-0", 0)
        journal.record("key-2", 4)
        # Items 0 and 2 would crash forever; the journal must shield
        # them from ever being spawned.
        worker = crashing_worker(crash_items={0, 2})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(4), jobs=2, stats=stats,
            journal=journal, keys=[f"key-{i}" for i in range(4)],
            policy=SupervisorPolicy(retries=0, backoff=0.01))
        assert results == [0, 1, 4, 9]
        assert stats.supervisor_resumed == 2
        assert stats.supervisor_retries == 0
        assert stats.supervisor_checkpoints == 2  # only 1 and 3 ran

    def test_parent_death_then_resume_runs_only_the_rest(self, tmp_path):
        class ParentDown(BaseException):
            pass

        def die(status):
            raise ParentDown(status)

        journal = RunJournal.create(tmp_path, run_id="run3")
        keys = [f"key-{i}" for i in range(5)]
        plan = FaultPlan(die_after_checkpoints=2, die=die)
        with pytest.raises(ParentDown):
            supervise_work_items(
                square, range(5), jobs=1, journal=journal, keys=keys,
                policy=SupervisorPolicy(timeout=30.0, backoff=0.01),
                plan=plan)
        # Exactly two items were durably recorded before the "kill -9".
        rerun_journal = RunJournal.resume(tmp_path, "run3")
        assert len(rerun_journal) == 2

        stats = EngineStats()
        results = supervise_work_items(
            square, range(5), jobs=2, stats=stats,
            journal=rerun_journal, keys=keys,
            policy=SupervisorPolicy(backoff=0.01))
        assert results == [i * i for i in range(5)]
        assert stats.supervisor_resumed == 2
        assert rerun_journal.stats.entries_recorded == 3
