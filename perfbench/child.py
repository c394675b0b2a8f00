"""Run one benchmark job in a fresh interpreter and report on it.

    python3 perfbench/child.py REPORT TRACE KIND ARG...

``KIND`` is ``cli`` (ARGs are a ``repro`` command line, run through
``repro.cli.main``) or ``api`` (ARGs are ``FUNCTION FACTORY
[FACTORY_ARG...]``: ``getattr(repro, FUNCTION)`` applied to the protocol
``getattr(repro.protocols, FACTORY)`` builds).  The launcher takes a
timestamp when the interpreter reaches this file and another once
``repro.cli`` (cli) or ``repro`` (api) is imported.

With ``TRACE`` = 1 the job runs with wrappers installed around each
layer's public entry points, at the module the caller looks the name up
in.  Spans and counts stay in memory and are written to the JSON file
``REPORT`` when the job ends, together with the timestamps (the job's
work returns at ``returned``; what follows is interpreter exit), the
provenance of the imported ``repro`` package and, for api jobs, the
result fields the verdict table checks.
"""

import time

FIRST = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402


class Tracer:
    """Spans ``[name, start, end, parent]`` (monotonic seconds; parent
    is an index into ``spans`` or -1) and named counts, recorded only in
    the job's own process: pool workers forked from it skip recording,
    since their memory is lost when they exit."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self.stats: Counter = Counter()
        self.entries_open = 0

    def recording(self) -> bool:
        return os.getpid() == self.pid

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.open[-1] if self.open else -1
        self.spans.append([name, time.monotonic(), None, parent])
        self.open.append(index)
        return index

    def end(self, index: int) -> float:
        self.open.pop()
        span = self.spans[index]
        span[2] = time.monotonic()
        return span[2] - span[1]

    def absorb_stats(self, stats) -> None:
        """Sum the numeric counters and stage timings of an engine
        ``EngineStats`` returned by an outermost entry point."""
        if stats is None:
            return
        data = stats.to_dict()
        for name, seconds in data.pop("stage_seconds", {}).items():
            self.stats["stage." + name] += seconds
        for name, value in data.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.stats[name] += value


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _wrap(tracer: Tracer, owner, attr: str, name: str,
          after=None, before=None, entry: bool = False) -> None:
    """Replace ``owner.attr`` with a recording wrapper.

    *name* is the span name; ``before(args, kwargs)`` returns a token
    handed to ``after(tracer, args, kwargs, result, token, seconds)``.
    An *entry* wrapper also sums the ``stats`` of its result when no
    other entry point is open, so nested entry points are not counted
    twice.
    """
    original = getattr(owner, attr)  # a renamed entry point fails here

    def wrapper(*args, **kwargs):
        if not tracer.recording():
            return original(*args, **kwargs)
        token = before(args, kwargs) if before is not None else None
        outermost = entry and tracer.entries_open == 0
        tracer.entries_open += entry
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            seconds = tracer.end(index)
            tracer.entries_open -= entry
        if after is not None:
            after(tracer, args, kwargs, result, token, seconds)
        if outermost:
            tracer.absorb_stats(getattr(result, "stats", None))
        return result

    setattr(owner, attr, wrapper)


def _wrap_lazy_property(tracer: Tracer, cls, attr: str, memo: str,
                        name: str, count: str) -> None:
    """Trace the first, computing access of a memoizing property and
    count the items it produces."""
    prop = cls.__dict__[attr]
    compute = prop.fget

    def traced(self):
        if getattr(self, memo) is not None or not tracer.recording():
            return compute(self)
        index = tracer.begin(name)
        try:
            value = compute(self)
        finally:
            tracer.end(index)
        tracer.counts[count] += len(value)
        return value

    setattr(cls, attr, property(traced, prop.fset, prop.fdel, prop.__doc__))


def _count(key: str, measure=lambda args, result: 1):
    def after(tracer, args, kwargs, result, token, seconds):
        tracer.counts[key] += measure(args, result)
    return after


def _cache_lookup(tracer, args, kwargs, result, token, seconds):
    tracer.counts["cache.misses" if result is None else "cache.hits"] += 1


def _dispatch_before(args, kwargs):
    return _cpu_seconds()


def _dispatch_after(tracer, args, kwargs, result, cpu_before, seconds):
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    tracer.counts["dispatch.busy_s"] += _cpu_seconds() - cpu_before
    tracer.counts["dispatch.capacity_s"] += max(jobs, 1) * seconds


def _audit_after(tracer, args, kwargs, report, token, seconds):
    tracer.counts["randomgen.samples"] += report.samples
    tracer.counts["randomgen.discrepancies"] += len(report.discrepancies)


#: (module[:Class], attribute, span name, after-hook, entry point?).
#: Each target is the name the caller looks up: functions bound by
#: ``from ... import`` are wrapped in the importing module.
_ENTRY_POINTS = (
    ("repro.cli", "get_protocol", "protocol.build", None, False),
    ("repro.protocols", "gouda_acharya_matching", "protocol.build",
     None, False),
    ("repro.protocols", "coloring", "protocol.build", None, False),
    ("repro.cli", "verify_convergence", "core.verify", None, True),
    ("repro.cli", "synthesize_convergence", "core.synthesize", None, True),
    ("repro", "synthesize_convergence", "core.synthesize", None, True),
    ("repro", "certify_livelock_freedom", "core.certify", None, True),
    ("repro.core.deadlock:DeadlockAnalyzer", "analyze", "core.deadlock",
     None, False),
    ("repro.core.livelock", "pseudo_livelock_supports",
     "core.pseudolivelock.supports",
     _count("supports", lambda args, result: len(result)), False),
    ("repro.core.trail:ContiguousTrailSearcher", "find_trail",
     "core.trail.search", None, False),
    ("repro.engine.localkernel:LocalKernel", "find_trail",
     "engine.localkernel.find_trail", None, False),
    ("repro.cli", "check_instance", "checker.check", None, True),
    ("repro.checker.sweep", "sweep_verify", "checker.sweep", None, True),
    ("repro.checker.statespace:StateGraph", "__init__",
     "checker.statespace.build",
     _count("states", lambda args, result: len(args[0])), False),
    ("repro.checker.convergence", "illegitimate_deadlocks",
     "checker.deadlock", None, False),
    ("repro.checker.convergence", "livelock_cycles", "checker.livelock",
     None, False),
    ("repro.checker.statespace:StateGraph", "distances_to_invariant",
     "checker.recovery", None, False),
    ("repro.randomgen", "audit_theorems", "randomgen.audit", _audit_after,
     True),
    ("repro.engine.cache:ResultCache", "get", "engine.cache.get",
     _cache_lookup, False),
    ("repro.engine.cache:ResultCache", "put", "engine.cache.put",
     _count("cache.stores"), False),
    ("repro.obs.live:LiveRun", "publish", "obs.live.publish",
     _count("live.snapshots", lambda args, result: int(bool(result))),
     False),
    ("repro.obs.ledger", "append", "obs.ledger.append", None, False),
    ("repro.cli", "build_parser", "startup.parser", None, False),
    ("repro.engine.artifacts", "open_store", "engine.artifacts.open",
     None, False),
    ("repro.engine.artifacts", "enforce_directory_limit",
     "engine.artifacts.limit", None, False),
) + tuple(
    (module, "supervise_work_items", "engine.dispatch", _dispatch_after,
     False)
    for module in ("repro.checker.sweep", "repro.randomgen"))


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer: Tracer) -> None:
    for target, attr, name, after, entry in _ENTRY_POINTS:
        _wrap(tracer, _resolve(target), attr, name, after=after,
              before=_dispatch_before if after is _dispatch_after else None,
              entry=entry)
    _wrap_lazy_property(tracer, _resolve("repro.protocol.localstate:"
                                         "LocalStateSpace"),
                        "states", "_states", "protocol.local_space",
                        "local_states")


#: What an api job reports for the verdict table to check.
_API_RESULTS = {
    "certify_livelock_freedom": lambda r: {
        "verdict": r.verdict.value, "supports_checked": r.supports_checked,
        "trail_witnesses": len(r.trail_witnesses)},
    "synthesize_convergence": lambda r: {
        "outcome": r.outcome.value, "chosen": len(r.chosen),
        "rejected": len(r.rejected)},
}


def main() -> int:
    report_path, trace, kind, *args = sys.argv[1:]
    if kind == "cli":
        import repro.cli
    else:
        import repro
    report = {"first": FIRST, "imported": time.monotonic(),
              "repro_file": sys.modules["repro"].__file__,
              "repro_modules": sum(1 for name in sys.modules
                                   if name == "repro"
                                   or name.startswith("repro.")),
              "error": None}
    tracer = None
    if trace == "1":
        tracer = Tracer()
        index = tracer.begin("trace.install")
        install(tracer)
        tracer.end(index)
    code = 1
    try:
        if kind == "cli":
            code = repro.cli.main(args)
        else:
            import repro.protocols

            function, factory, *factory_args = args
            protocol = getattr(repro.protocols, factory)(
                *(int(value) for value in factory_args))
            result = getattr(repro, function)(protocol)
            report["result"] = _API_RESULTS[function](result)
            print(json.dumps(report["result"]))
            code = 0
    except SystemExit as exc:  # argparse rejects a command line
        code = exc.code if isinstance(exc.code, int) else 1
        report["error"] = f"exit {exc.code}"
    except Exception:
        report["error"] = traceback.format_exc()
        traceback.print_exc()
    finally:
        report["returned"] = time.monotonic()
        if tracer is not None:
            report["spans"] = tracer.spans
            report["counts"] = dict(tracer.counts)
            report["stats"] = dict(tracer.stats)
        sys.stdout.flush()
        with open(report_path, "w") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
