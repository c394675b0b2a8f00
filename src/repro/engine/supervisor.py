"""Fault-tolerant supervision of engine work items — the one pipeline.

Every engine fan-out (per-K sweep and ``repro check`` instances,
per-support trail searches, per-protocol fuzzing audits, synthesis
verdicts) goes through :func:`supervise_work_items`, and every item
takes the same path: answered from the result **cache**, else replayed
from the run **journal** (``repro sweep --resume``), else **run** —
then **checkpointed** to the journal and **stored** in the cache.
Results come back in item order as :class:`WorkResults`, whose
``origins`` say where each came from (:data:`COMPUTED`, :data:`CACHED`,
:data:`JOURNALED`), so callers fold counters only for the work this run
did.  The items still to run go one of two ways:

* the **serial loop** — in-parent, in item order, when nothing needs a
  child process: ``jobs <= 1``, a single pending item, or a platform
  without a usable start method; at ``jobs <= 1`` it probes item by
  item and an optional stop predicate ends it early
  (``sweep --stop-on-failure``);
* the **batch scheduler** (:class:`repro.engine.scheduler.BatchScheduler`)
  — persistent supervised workers pulling adaptively sized batches,
  whenever the call would fork: ``jobs > 1`` with more than one pending
  item, a per-task ``timeout``, or injected faults.  A single pending
  supervised task runs on one worker.

Per-item cost in these workloads is heavily skewed — one pathological
instance can hang or OOM while its siblings finish in milliseconds — so
the scheduler supervises at *task* granularity under a
:class:`SupervisorPolicy` (the default one when the caller gives none):

* **timeouts** — a task exceeding the per-task wall-clock budget is
  SIGKILLed and retried with exponential backoff;
* **crash isolation** — a worker that dies (segfault, OOM kill,
  injected SIGKILL) fails only its in-flight task, which is retried;
  sibling tasks keep running;
* **degradation** — a task that exhausts its retry budget is executed
  once more *in the parent process* through the caller's fallback
  worker (the serial naive backend at the engine call sites) instead of
  aborting the run;
* **observability** — ``task-timeout`` / ``task-retry`` /
  ``task-degraded`` / ``task-resumed`` events, ``supervisor.*`` and
  ``engine.cache_*`` counters, and per-item span adoption.  The serial
  loop's ``supervisor.serial`` span carries its reason (``jobs<=1``,
  ``single-item``, ``no-fork``); only ``no-fork`` counts as a fallback
  (a ``pool-fallback`` warning and a ``pool.fallbacks`` count).

Both ways share one :class:`TaskLedger`, so verdicts are identical by
construction; the property-based differential harness checks it anyway.

Callers do not thread these settings one by one: an :class:`Executor`
holds the worker count, cache, policy, journal and fault plan, and a
fan-out passes it on as ``**executor.options(keys)``.

Workers are forked and inherit worker, context and items, so all three
may hold unpicklable objects; only results cross the pipe.  A worker
*exception* (as opposed to a death) is treated as deterministic: it is
not retried but re-raised in the parent with the remote traceback
chained.

Fault injection (:class:`FaultPlan`) is part of the module on purpose:
the property-based differential suite and the CI smoke job inject
worker crashes, hangs and parent deaths through the same code path
users exercise, via the ``REPRO_INJECT_FAULT`` environment variable
(e.g. ``crash:0``, ``hang:1,2``, ``die-after:3``; test-only, never set
in production).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence, TypeVar

from repro.engine.pool import (
    WorkerFailure,
    parallelism_available,
    spawn_dispatch_available,
    start_method,
)
from repro.obs import live
from repro.obs import runtime as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cache import ResultCache
    from repro.engine.journal import RunJournal

#: Environment variable read by :meth:`FaultPlan.from_env`.
FAULT_ENV = "REPRO_INJECT_FAULT"

#: Where a work item's result came from (:attr:`WorkResults.origins`).
COMPUTED, CACHED, JOURNALED = "computed", "cache", "journal"

#: Cache-miss sentinel, so a cached ``None`` result reads as a hit.
_MISS = object()


class SupervisorError(Exception):
    """A task failed beyond its retry budget with degradation off."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard to try before giving up on a work item.

    ``timeout`` is the per-task wall-clock budget in seconds (``None``
    disables the deadline); ``retries`` is how many *additional*
    attempts a crashed or timed-out task gets before degradation; the
    backoff before attempt ``n`` is ``backoff * 2**(n-1)`` seconds,
    capped at ``backoff_cap``.  With ``degrade`` (the default) a task
    that exhausts its budget runs once more in the parent through the
    fallback worker; without it the run raises :class:`SupervisorError`.
    """

    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.05
    backoff_cap: float = 2.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    def delay_before(self, attempt: int) -> float:
        """Backoff in seconds before retry *attempt* (1-based)."""
        return min(self.backoff * (2.0 ** (attempt - 1)),
                   self.backoff_cap)


@dataclass
class FaultPlan:
    """Deterministic fault injection for tests and smoke runs.

    ``crash_items`` / ``hang_items`` name item indices whose *first*
    attempt is sabotaged in the child (SIGKILL / sleep past any
    timeout); retries run clean, so a supervised run always converges.
    ``die_after_checkpoints`` hard-kills the parent after that many
    journal checkpoints — the ``kill -9`` of the whole run that
    ``--resume`` exists for.  ``delay_seconds`` slows **every** task
    attempt down by a uniform sleep — the deliberately-degraded run the
    cross-run ledger's ``repro runs diff`` must flag as a timing
    regression.  ``die`` is patchable so in-process tests can observe
    the death without losing the interpreter.
    """

    crash_items: frozenset = frozenset()
    hang_items: frozenset = frozenset()
    die_after_checkpoints: int | None = None
    delay_seconds: float = 0.0
    hang_seconds: float = 3600.0
    die: Callable[[int], Any] = field(default=os._exit, repr=False)

    def child_fault(self, index: int, attempt: int) -> str | None:
        if attempt > 0:
            return None
        if index in self.crash_items:
            return "crash"
        if index in self.hang_items:
            return "hang"
        return None

    def child_delay(self) -> None:
        if self.delay_seconds > 0:
            time.sleep(self.delay_seconds)

    def on_checkpoint(self, count: int) -> None:
        if self.die_after_checkpoints is not None \
                and count >= self.die_after_checkpoints:
            self.die(70)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """Parse ``REPRO_INJECT_FAULT`` (``;``-separated clauses:
        ``crash:<i,j>``, ``hang:<i,j>``, ``die-after:<n>``,
        ``delay:<seconds>``)."""
        spec = (environ or os.environ).get(FAULT_ENV)
        if not spec:
            return None
        crash: set[int] = set()
        hang: set[int] = set()
        die_after: int | None = None
        delay = 0.0
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            kind, _, arg = clause.partition(":")
            if kind == "crash":
                crash.update(int(i) for i in arg.split(",") if i)
            elif kind == "hang":
                hang.update(int(i) for i in arg.split(",") if i)
            elif kind == "die-after":
                die_after = int(arg)
            elif kind == "delay":
                delay = float(arg)
            else:
                raise ValueError(
                    f"unknown {FAULT_ENV} clause {clause!r}")
        return cls(crash_items=frozenset(crash),
                   hang_items=frozenset(hang),
                   die_after_checkpoints=die_after,
                   delay_seconds=delay)


_Report = TypeVar("_Report")


@dataclass(frozen=True)
class Executor:
    """How an analysis runs its work items — never what it concludes.

    Built once (the CLI builds it from ``--jobs``, the cache flags,
    ``--timeout`` / ``--retries`` and ``--checkpoint`` / ``--resume``)
    and handed to every entry point as ``executor=``: *jobs* worker
    processes, a result *cache*, a supervision *policy* (``None`` =
    the default :class:`SupervisorPolicy`), a run *journal*, and *plan*,
    test-only fault injection.  Verdicts are identical under every
    executor; :data:`SERIAL` is the serial, uncached default.
    """

    jobs: int = 1
    cache: "ResultCache | None" = None
    policy: SupervisorPolicy | None = None
    journal: "RunJournal | None" = None
    plan: FaultPlan | None = None

    @property
    def keyed(self) -> bool:
        """Whether work items need keys: a cache or a journal answers
        them by key."""
        return self.cache is not None or self.journal is not None

    def options(self, keys: Sequence[str] | None = None) -> dict:
        """This executor as :func:`supervise_work_items` keywords for
        items addressed by *keys*; without keys the cache and journal
        (which need one key per item) stay out of the fan-out."""
        options = {"jobs": self.jobs, "policy": self.policy,
                   "plan": self.plan, "keys": keys}
        if keys is not None:
            options.update(cache=self.cache, journal=self.journal)
        return options

    def cached_report(self, key: Callable[[], str], stats: Any,
                      compute: Callable[[], _Report]) -> _Report:
        """A whole analysis report (a frozen dataclass with a ``stats``
        field), answered from the cache under ``key()`` or computed.

        A hit carries *stats* (counting the hit), never the stats of
        the run that stored it; a computed report is stored without
        its run-local stats, so a later hit gets its own.
        """
        if self.cache is None:
            return compute()
        entry = key()
        cached = self.cache.get(entry)
        if cached is not None:
            stats.cache_hits += 1
            return replace(cached, stats=stats)
        stats.cache_misses += 1
        report = compute()
        self.cache.put(entry, replace(report, stats=None))
        return report


#: The default executor: serial, uncached, unjournaled.
SERIAL = Executor()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class _Task:
    index: int
    key: str | None
    attempts: int = 0
    ready_at: float = 0.0


class WorkResults(list):
    """The results of one :func:`supervise_work_items` call, in item
    order, plus ``origins``: for each result, whether it was
    :data:`COMPUTED` by this run, read from the :data:`CACHED` result
    cache (or from an earlier item with the same key), or replayed from
    the :data:`JOURNALED` run journal."""

    def __init__(self, results: list[Any], origins: list[str]) -> None:
        super().__init__(results)
        self.origins = origins


def _bump(stats: Any, attribute: str, metric: str,
          amount: float = 1) -> None:
    obs.metric(metric, amount)
    if stats is not None:
        setattr(stats, attribute, getattr(stats, attribute) + amount)


class TaskLedger:
    """The work-item bookkeeping the serial loop and the batch
    scheduler share.

    Cache probe, journal resume, completion checkpointing and cache
    store, the retry/degrade ladder, deterministic-failure latching,
    per-item origins and result ordering all live here;
    :meth:`run_serial` and :class:`repro.engine.scheduler.BatchScheduler`
    are pure execution strategies over one ledger — which is what makes
    their verdicts identical by construction.
    """

    def __init__(self, worker, work: Sequence[Any], context: Any,
                 stats: Any, policy: SupervisorPolicy, journal,
                 keys: Sequence[str] | None, fallback_worker,
                 plan: FaultPlan | None, cache=None,
                 stop: Callable[[Any], bool] | None = None) -> None:
        self.worker = worker
        # Items that share a key share one result: the ledger runs,
        # caches and journals each distinct key once, and
        # ordered_results() fans it out to every item carrying the key.
        self.slots = list(range(len(work)))
        if keys is not None:
            position: dict[str, int] = {}
            distinct = []
            self.slots = []
            for item, key in zip(work, keys):
                if key not in position:
                    position[key] = len(distinct)
                    distinct.append(item)
                self.slots.append(position[key])
            work, keys = distinct, list(position)
        self.work = work
        self.context = context
        self.stats = stats
        self.policy = policy
        self.journal = journal
        self.cache = cache
        self.keys = keys
        self.fallback_worker = fallback_worker or worker
        self.plan = plan
        self.stop = stop
        self.results: dict[int, Any] = {}
        self.origins: dict[int, str] = {}
        self.failure: WorkerFailure | None = None

    def key(self, index: int) -> str | None:
        return self.keys[index] if self.keys is not None else None

    def answer(self, index: int) -> bool:
        """Answer item *index* from the cache, else from the journal;
        ``False`` when it still has to run."""
        key = self.key(index)
        if key is None:
            return False
        if self.cache is not None:
            value = self.cache.get(key, _MISS)
            if value is not _MISS:
                _bump(self.stats, "cache_hits", "engine.cache_hits")
                self._settle(index, value, CACHED)
                return True
            _bump(self.stats, "cache_misses", "engine.cache_misses")
        if self.journal is not None and key in self.journal.completed:
            _bump(self.stats, "supervisor_resumed", "supervisor.resumed")
            obs.event("task-resumed", index=index, key=key)
            value = self.journal.completed[key]
            self._settle(index, value, JOURNALED)
            if self.cache is not None:
                # A resumed run leaves the cache as full as an
                # uninterrupted one would.
                self.cache.put(key, value)
            return True
        return False

    def _settle(self, index: int, value: Any, origin: str) -> None:
        self.results[index] = value
        self.origins[index] = origin
        live.note(done=1, resumed=1)

    def resume_completed(self) -> list[_Task]:
        """Answer what the cache and journal can; the rest still runs."""
        return [_Task(index=index, key=self.key(index))
                for index in range(len(self.work))
                if not self.answer(index)]

    def complete(self, task: _Task, result: Any) -> None:
        live.note(done=1)
        self.results[task.index] = result
        self.origins[task.index] = COMPUTED
        if self.journal is not None and task.key is not None:
            before = self.journal.stats.entries_recorded
            self.journal.record(task.key, result)
            # record() already emits the ambient supervisor.checkpoints
            # metric; only mirror actual appends into the run's stats.
            if self.stats is not None:
                self.stats.supervisor_checkpoints += (
                    self.journal.stats.entries_recorded - before)
            if self.plan is not None:
                # The injector's contract is "die after N *durable*
                # checkpoints": commit any group-commit buffer before
                # the (possibly hard) death so resume sees exactly N.
                self.journal.flush()
                self.plan.on_checkpoint(
                    self.journal.stats.entries_recorded)
        if self.cache is not None and task.key is not None:
            self.cache.put(task.key, result)

    def record_failure(self, task: _Task, failure: WorkerFailure) -> None:
        """A deterministic worker exception: latch the first one."""
        if self.failure is None:
            self.failure = failure
        self.results[task.index] = None

    def degrade(self, task: _Task, reason: str) -> None:
        """Retry budget exhausted: run in-parent via the fallback."""
        if not self.policy.degrade:
            raise SupervisorError(
                f"work item {task.index} failed after "
                f"{task.attempts} attempts ({reason}) and degradation "
                f"is disabled")
        obs.event("task-degraded", level="warning", index=task.index,
                  key=task.key, attempts=task.attempts, reason=reason)
        _bump(self.stats, "supervisor_degraded", "supervisor.degraded")
        live.note(degraded=1)
        with obs.span("supervisor.degraded", index=task.index,
                      reason=reason):
            self.complete(task, self.fallback_worker(
                self.context, self.work[task.index]))

    def retry_or_degrade(self, task: _Task, reason: str) -> _Task | None:
        """Spend one unit of *task*'s retry budget.

        Returns the task (with its backoff ``ready_at`` stamped) when
        it should be requeued, or ``None`` when it was degraded and is
        already complete.
        """
        task.attempts += 1
        if task.attempts > self.policy.retries:
            self.degrade(task, reason)
            return None
        delay = self.policy.delay_before(task.attempts)
        task.ready_at = time.monotonic() + delay
        obs.event("task-retry", level="warning", index=task.index,
                  key=task.key, attempt=task.attempts, reason=reason,
                  delay_seconds=delay)
        _bump(self.stats, "supervisor_retries", "supervisor.retries")
        live.note(retried=1)
        return task

    # -- serial mode (no children needed / no fork available) ----------
    def run_serial(self, pending: list[_Task] | None, reason: str) -> None:
        """Run in-parent, in item order; *reason* says why no child was
        forked (``jobs<=1``, ``single-item`` or ``no-fork``).

        With *pending* ``None`` every item is probed lazily — cache,
        journal, then the worker — and the loop ends at the first
        result the ledger's stop predicate accepts.
        """
        if reason == "no-fork":
            obs.event("pool-fallback", level="warning", reason=reason,
                      items=len(pending))
            _bump(self.stats, "pool_fallbacks", "pool.fallbacks")
        items = len(self.work) if pending is None else len(pending)
        with obs.span("supervisor.serial", reason=reason, items=items):
            for task in (self._walk() if pending is None else pending):
                if self.plan is not None:
                    self.plan.child_delay()
                self.complete(task, self.worker(
                    self.context, self.work[task.index]))
                live.tick(lambda: live.cache_payload(self.stats))

    def _walk(self):
        """The lazily probed items still to run, in order, up to the
        first result the stop predicate accepts."""
        for index in range(len(self.work)):
            if not self.answer(index):
                yield _Task(index=index, key=self.key(index))
            if self._stops(index):
                return

    def _stops(self, index: int) -> bool:
        return self.stop is not None and self.stop(self.results[index])

    def ordered_results(self) -> WorkResults:
        """Results and origins in item order, truncated after the first
        result the stop predicate accepts.  An item whose key an earlier
        item carries reads that item's result with origin
        :data:`CACHED`, so callers count the work once."""
        results, origins, seen = [], [], set()
        for slot in self.slots:
            results.append(self.results[slot])
            origins.append(CACHED if slot in seen else self.origins[slot])
            seen.add(slot)
            if self._stops(slot):
                break
        return WorkResults(results, origins)


def _spawn_dispatchable(ledger: "TaskLedger", portable) -> bool:
    """Whether spawn-mode batch dispatch can carry this workload.

    Spawn workers receive their payload by pickle, so beyond the
    platform offering the spawn method the worker function, the
    portable context recipe, the item list and the fault plan must all
    round-trip; anything that does not keeps the serial fallback.
    """
    if start_method() != "spawn" or not spawn_dispatch_available():
        return False
    import pickle

    try:
        pickle.dumps((ledger.worker, portable, ledger.work, ledger.plan))
    except Exception:
        return False
    return True


def supervise_work_items(worker: Callable[[Any, Any], Any],
                         items: Iterable[Any],
                         jobs: int = 1,
                         context: Any = None,
                         stats: Any = None,
                         policy: SupervisorPolicy | None = None,
                         journal=None,
                         keys: Sequence[str] | None = None,
                         fallback_worker: Callable[[Any, Any], Any]
                         | None = None,
                         plan: FaultPlan | None = None,
                         batch_size: int | None = None,
                         prewarm: Callable[[], None] | None = None,
                         portable=None,
                         cache=None,
                         stop: Callable[[Any], bool] | None = None,
                         ) -> WorkResults:
    """Apply ``worker(context, item)`` to every item; results in order.

    *worker* must be a module-level function when spawn dispatch is in
    play; under fork, *worker*, *context* and *items* may hold
    unpicklable objects, but each **result** must pickle (an unpicklable
    result degrades that task to the in-parent fallback).

    *keys* (one per item) address *cache* (a
    :class:`repro.engine.ResultCache`) and *journal*: an item is
    answered from the cache, else replayed from the journal (and
    stored in the cache), else run; a computed result is checkpointed,
    then cached exactly as the worker returned it.  Items with equal
    keys are one work item: the first is answered or run, the rest
    read its result.  The returned :class:`WorkResults` carries each
    item's origin.

    The items left to run fork — through
    :class:`repro.engine.scheduler.BatchScheduler` — when ``jobs > 1``
    and more than one item is pending, when *policy* sets a timeout, or
    when a fault *plan* is injected; otherwise they run in the parent's
    serial loop.  Either way they run under *policy*'s retry/degradation
    ladder (the default :class:`SupervisorPolicy` when ``None``).
    *stop*, when given, truncates the results after the first one it
    accepts; the ``jobs <= 1`` serial loop also stops computing there,
    a forking run computes every item speculatively.  *batch_size* pins
    the scheduler's batch size.  *stats*, when given, is an
    :class:`repro.engine.EngineStats`.

    *prewarm*, when given, is called once in the parent immediately
    before children are forked — the engine call sites compile the
    protocol's kernels here so every worker inherits hot caches through
    fork instead of recompiling per task.

    *fallback_worker* is what a degraded task runs in-parent (the
    engine call sites pass the serial naive backend); it defaults to
    *worker*.  On a platform without ``fork`` everything runs serially
    in-parent (journaling still works; timeouts cannot be enforced and
    a ``pool-fallback`` event with reason ``no-fork`` says so) — unless
    *portable* (a :class:`repro.engine.pool.PortableContext`) is given
    and the whole worker payload pickles, in which case the scheduler
    runs **spawned** persistent workers that rebuild the context from
    the portable recipe and attach the parent's published artifacts by
    fingerprint instead of recompiling.
    """
    work = list(items)
    if plan is None:
        plan = FaultPlan.from_env()
    if (journal is not None or cache is not None) \
            and (keys is None or len(keys) != len(work)):
        raise ValueError("caching and journaling need one key per work "
                         "item")
    policy = policy or SupervisorPolicy()

    ledger = TaskLedger(worker, work, context, stats, policy, journal,
                        keys, fallback_worker, plan, cache=cache,
                        stop=stop)
    live.begin_stage(getattr(worker, "__name__", "supervised.map"),
                     total=len(ledger.work))
    live.tick()
    if jobs <= 1 and policy.timeout is None and plan is None:
        ledger.run_serial(None, "jobs<=1")
        return ledger.ordered_results()
    pending = ledger.resume_completed()
    if pending:
        forks = (len(pending) > 1 or policy.timeout is not None
                 or plan is not None)
        fork = forks and parallelism_available()
        spawn = (forks and not fork and portable is not None
                 and _spawn_dispatchable(ledger, portable))
        if not forks:
            ledger.run_serial(pending, "single-item")
        elif not (fork or spawn):
            ledger.run_serial(pending, "no-fork")
        else:
            if prewarm is not None:
                # Fork workers inherit what prewarm compiles; spawn
                # workers attach what prewarm *publishes* to the
                # artifact store.
                with obs.span("scheduler.prewarm"):
                    prewarm()
            from repro.engine.scheduler import BatchScheduler

            BatchScheduler(ledger, jobs=jobs, batch_size=batch_size,
                           start_method="fork" if fork else "spawn",
                           portable=portable if not fork else None,
                           ).run(pending)
    if ledger.failure is not None:
        ledger.failure.reraise()
    return ledger.ordered_results()
