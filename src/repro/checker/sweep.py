"""Cutoff-style sweep verification (the related-work baseline of §7).

Cutoff methods (Emerson–Kahlon, Emerson–Namjoshi) reduce parameterized
verification to model checking every size up to a cutoff.  The paper
argues local reasoning is cheaper than "verification for every K smaller
than or equal to the cutoff"; this module implements that baseline —
verify ``p(K)`` for each ``K`` in a range — so the comparison can be
made concretely (benchmark X2 and the ablation benches use it).

Each ``p(K)`` is an independent work item of
:func:`repro.engine.supervise_work_items`, which reuses prior per-K
results through a :class:`repro.engine.ResultCache` and fans the rest
out when ``jobs > 1``; verdicts are identical to the serial, uncached
run by construction (deterministic result ordering, whole-result
caching).

No general cutoff theorem applies to arbitrary convergence properties,
so a sweep result is evidence for the checked range only; contrast with
:func:`repro.core.verify_convergence`, whose verdicts quantify over all
ring sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import repro.engine.artifacts as artifact_plane
from repro.checker.convergence import GlobalReport, check_instance
from repro.engine import EngineStats, analysis_key, supervise_work_items
from repro.engine.pool import PortableContext
from repro.engine.supervisor import CACHED, COMPUTED, SERIAL, Executor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol


@dataclass(frozen=True)
class SweepResult:
    """Per-size reports plus the aggregate verdict for the range."""

    reports: tuple[GlobalReport, ...]
    elapsed_seconds: tuple[float, ...]
    stats: EngineStats | None = field(default=None, compare=False)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(r.ring_size for r in self.reports)

    @property
    def all_self_stabilizing(self) -> bool:
        return all(r.self_stabilizing for r in self.reports)

    @property
    def failing_sizes(self) -> tuple[int, ...]:
        return tuple(r.ring_size for r in self.reports
                     if not r.self_stabilizing)

    @property
    def total_states_explored(self) -> int:
        return sum(r.state_count for r in self.reports)

    def summary(self) -> str:
        lines = [f"sweep over K = {self.sizes[0]}..{self.sizes[-1]}: "
                 + ("self-stabilizing throughout"
                    if self.all_self_stabilizing
                    else f"fails at K = {list(self.failing_sizes)}")]
        for report, elapsed in zip(self.reports, self.elapsed_seconds):
            lines.append(
                f"  K={report.ring_size}: {report.state_count} states, "
                f"{'ok' if report.self_stabilizing else 'FAIL'} "
                f"({elapsed * 1e3:.1f} ms)")
        lines.append(f"total states explored: "
                     f"{self.total_states_explored}")
        if self.stats is not None:
            lines.append(self.stats.summary())
        return "\n".join(lines)


def _sweep_key(protocol: "RingProtocol", size: int,
               symmetry: bool = False) -> str:
    # Backend choice never perturbs the report (the kernel reproduces
    # the naive graph state for state) so it stays out of the key;
    # the quotient changes state/witness counts and gets its own keys.
    # The entry is the worker's ``(report, elapsed)`` pair, hence the
    # kind: the bare reports stored under "check-instance" never alias.
    if symmetry:
        return analysis_key("checked-size", protocol, ring_size=size,
                            symmetry=True)
    return analysis_key("checked-size", protocol, ring_size=size)


def sweep_fingerprint(protocol: "RingProtocol", up_to: int,
                      start: int | None = None,
                      symmetry: bool = False) -> str:
    """The identity of one sweep for journal pinning: resuming a run
    recorded for a different protocol or range is refused."""
    first = protocol.process.window_width if start is None else start
    return analysis_key("sweep", protocol, start=first, up_to=up_to,
                        symmetry=symmetry)


def _checked_sizes(protocol: "RingProtocol", sizes: list[int], check,
                   stats: EngineStats, backend: str, symmetry: bool,
                   executor: Executor, stop=None,
                   ) -> list[tuple[GlobalReport, float]]:
    """Check *sizes* through :func:`supervise_work_items` and fold the
    per-size work this run did into *stats*."""

    def prewarm() -> None:
        # Artifact traffic inside the per-K checks is attributed to the
        # per-report stats (folded below); only the parent-side prewarm
        # publishes are counted here, so nothing is counted twice.
        with artifact_plane.absorb_into(stats):
            _sweep_prewarm(protocol, backend)

    keys = ([_sweep_key(protocol, size, symmetry) for size in sizes]
            if executor.keyed else None)
    outcomes = supervise_work_items(
        _sweep_worker, sizes, context=(protocol, check, backend, symmetry),
        stats=stats, fallback_worker=_sweep_fallback_worker,
        prewarm=prewarm,
        portable=_sweep_portable(protocol, backend, symmetry), stop=stop,
        **executor.options(keys))
    for (report, _elapsed), origin in zip(outcomes, outcomes.origins):
        if origin == COMPUTED:
            stats.work_items += 1
            stats.states_explored += report.state_count
        if origin != CACHED:
            # A journaled report carries the partial stats of the run
            # that computed it; fold those into this run's counters.
            stats.merge_kernel_counters(getattr(report, "stats", None))
    return outcomes


def check_size(protocol: "RingProtocol", size: int,
               check=check_instance,
               backend: str = "auto",
               symmetry: bool = False,
               executor: Executor = SERIAL,
               ) -> tuple[GlobalReport, EngineStats]:
    """Model-check ``p(size)`` as a one-size sweep, through the same
    work item and cache entry as :func:`sweep_verify`.  *check* is the
    instance checker the item calls; ``repro check`` passes the one it
    imported, so instrumentation wrapping that name (the benchmark's
    tracer) sees the call.  Returns the report and this run's
    :class:`EngineStats` (a cache hit counts as one, never as the stats
    of the run that computed the report)."""
    stats = EngineStats()
    [(report, _elapsed)] = _checked_sizes(
        protocol, [size], check, stats, backend, symmetry, executor)
    return report, stats


def sweep_verify(protocol: "RingProtocol", up_to: int,
                 start: int | None = None,
                 stop_on_failure: bool = False,
                 backend: str = "auto",
                 symmetry: bool = False,
                 executor: Executor = SERIAL) -> SweepResult:
    """Model-check every ring size from *start* (default: the read-window
    width) through *up_to*.

    Each size is one work item of
    :func:`repro.engine.supervise_work_items` run by *executor*
    (:class:`repro.engine.supervisor.Executor`): answered from its cache
    (per-K entries keyed on the protocol fingerprint and the ring
    size), else from its journal (a prior run's finished sizes, whose
    partial :class:`EngineStats` merge into this run's counters), else
    checked — in worker processes when ``jobs > 1`` — and checkpointed.
    With ``stop_on_failure`` the sweep ends at the first
    non-stabilizing size — the typical bug-hunting mode; a serial sweep
    checks no later size, a forking one checks every size speculatively
    and truncates afterwards, so the results are equal.  *backend* and
    *symmetry* are forwarded to
    :func:`repro.checker.convergence.check_instance` — the compiled
    kernel (and, opt-in, its rotation quotient) replaces the naive
    per-state interpretation with identical verdicts.

    The executor's policy supervises the per-K checks (timeouts, crash
    retry, degradation to the in-parent naive backend — see
    :mod:`repro.engine.supervisor`).
    """
    first = protocol.process.window_width if start is None else start
    if first > up_to:
        raise ValueError(f"empty sweep range {first}..{up_to}")
    stats = EngineStats(jobs=executor.jobs)
    with stats.stage("sweep", start=first, up_to=up_to,
                     jobs=executor.jobs):
        outcomes = _checked_sizes(
            protocol, list(range(first, up_to + 1)), check_instance,
            stats, backend, symmetry, executor,
            stop=_fails if stop_on_failure else None)
    return SweepResult(
        reports=tuple(report for report, _elapsed in outcomes),
        elapsed_seconds=tuple(elapsed for _report, elapsed in outcomes),
        stats=stats)


def _fails(outcome: tuple[GlobalReport, float]) -> bool:
    return not outcome[0].self_stabilizing


def _sweep_prewarm(protocol: "RingProtocol", backend: str) -> None:
    """Compile the protocol's kernel once in the parent so forked
    workers inherit a hot compile cache instead of recompiling per K —
    and, with an artifact store active, so the compiled table is
    *published* for spawn workers and later runs to attach.

    The kernel-support probe runs on a throwaway smallest instance:
    :func:`supports_kernel` classifies instances, not protocols.
    """
    if backend not in ("auto", "kernel"):
        return
    from repro.engine.kernel import compile_protocol, supports_kernel

    try:
        probe = protocol.instantiate(protocol.process.window_width)
    except Exception:
        return
    if supports_kernel(probe):
        compile_protocol(protocol)


def _rebuild_sweep_context(payload) -> tuple:
    """Spawn-side builder: re-hydrate the sweep worker context."""
    from repro.serialization import protocol_from_dict

    data, backend, symmetry = payload
    return (protocol_from_dict(data), check_instance, backend, symmetry)


def _sweep_portable(protocol: "RingProtocol", backend: str,
                    symmetry: bool) -> PortableContext | None:
    """A portable recipe for the sweep context, when one exists.

    DSL-defined protocols round-trip through their serialized form;
    protocols carrying opaque predicate callables (e.g. sampled ones)
    do not, and return ``None`` — those keep the serial no-fork
    fallback.
    """
    from repro.serialization import protocol_to_dict

    try:
        payload = protocol_to_dict(protocol)
    except Exception:
        return None
    return PortableContext(_rebuild_sweep_context,
                           (payload, backend, symmetry))


def _sweep_worker(context, size: int) -> tuple[GlobalReport, float]:
    """Module-level worker for :func:`repro.engine.supervise_work_items`:
    the report for ``p(size)`` and the seconds it took."""
    protocol, check, backend, symmetry = context
    began = time.perf_counter()
    report = check(protocol.instantiate(size), backend=backend,
                   symmetry=symmetry)
    return report, time.perf_counter() - began


def _sweep_fallback_worker(context, size: int,
                           ) -> tuple[GlobalReport, float]:
    """A degraded work item: re-run in-parent on the reference naive
    backend (reports are backend-identical, so the sweep result does
    not change).  The rotation quotient exists only in the kernel, so
    ``symmetry`` runs keep their requested backend."""
    protocol, check, backend, symmetry = context
    return _sweep_worker(
        (protocol, check, backend if symmetry else "naive", symmetry),
        size)
