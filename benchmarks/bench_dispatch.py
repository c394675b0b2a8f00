"""Dispatch smoke: the batch scheduler against the in-parent serial loop.

Every engine fan-out reaches child processes through one path, the
batch scheduler's persistent supervised workers.  This benchmark runs
the same sweep of N micro model-checking tasks through the in-parent
serial loop (``jobs=1``) and through the scheduler (``jobs=4``), asserts
the verdicts are byte-identical and that the scheduler really batched,
then repeats the scheduler run with the live telemetry plane on and off
(interleaved, :data:`REPEATS` runs per side) to gate the plane's
overhead on the median wall times.  It emits ``BENCH_dispatch.json`` at
the repository root.

``REPRO_BENCH_DISPATCH_ITEMS`` sets N (CI uses 200; the full default of
500 carries the live-overhead gate).
"""

import json
import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.engine import EngineStats, SupervisorPolicy, \
    supervise_work_items
from repro.obs import live
from repro.protocols import generalizable_matching
from repro.serialization import global_report_to_dict

ITEMS = int(os.environ.get("REPRO_BENCH_DISPATCH_ITEMS", "500"))
JOBS = 4
#: Runs per side of the live-on/live-off comparison; the gate compares
#: medians, not single runs.
REPEATS = 5
#: Ring sizes the micro tasks cycle over — small enough that one check
#: costs well under a millisecond, so dispatch overhead dominates.
MICRO_SIZES = (3, 4)
REPO_ROOT = Path(__file__).resolve().parent.parent
#: Publishing live status snapshots must stay within 2% of the plain
#: scheduler run's median wall clock.  Only gated on the full 500-item
#: configuration — shorter CI runs are too noisy for a 2% bound.
MAX_LIVE_OVERHEAD = 1.02


def _micro_worker(context, size: int):
    from repro.checker import check_instance

    protocol = context
    return check_instance(protocol.instantiate(size), backend="kernel")


def _verdict_bytes(reports) -> bytes:
    """The dispatch-invariant content of a result list, serialized.

    Run-local ``stats`` are timing-dependent by design and excluded;
    everything the analysis concluded must match byte for byte.
    """
    rows = []
    for report in reports:
        row = global_report_to_dict(report)
        row.pop("stats", None)
        rows.append(row)
    return json.dumps(rows, sort_keys=True).encode("ascii")


def _run(jobs: int, live_dir=None):
    protocol = generalizable_matching()
    sizes = [MICRO_SIZES[i % len(MICRO_SIZES)] for i in range(ITEMS)]
    stats = EngineStats(jobs=jobs)
    policy = (SupervisorPolicy(timeout=60, retries=2) if jobs > 1
              else None)
    live_run = None
    if live_dir is not None:
        live_run = live.LiveRun(live_dir, "bench-dispatch-live",
                                command="bench")
        live.activate(live_run)
    began = time.perf_counter()
    try:
        results = supervise_work_items(
            _micro_worker, sizes, jobs=jobs, context=protocol,
            stats=stats, policy=policy)
    finally:
        elapsed = time.perf_counter() - began
        if live_run is not None:
            live_run.finish()
            live.deactivate(live_run)
    return results, elapsed, stats, live_run


def _spread(samples: list[float]) -> dict:
    """Median and interquartile range, in seconds."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": round(statistics.median(samples), 4),
            "iqr_s": round(q3 - q1, 4),
            "runs_s": [round(s, 4) for s in samples]}


def collect():
    serial_results, serial_s, serial_stats, _ = _run(1)
    plain_s: list[float] = []
    live_s: list[float] = []
    snapshots: list[int] = []
    batch_results = live_results = batch_stats = None
    for _ in range(REPEATS):
        batch_results, elapsed, batch_stats, _ = _run(JOBS)
        plain_s.append(elapsed)
        with tempfile.TemporaryDirectory() as scratch:
            live_results, elapsed, _, live_run = _run(
                JOBS, live_dir=scratch)
        live_s.append(elapsed)
        snapshots.append(live_run.snapshots)
    return {
        "serial": (serial_results, serial_s, serial_stats),
        "batch": (batch_results, plain_s, batch_stats),
        "live": (live_results, live_s, snapshots),
    }


def test_dispatch_perf_smoke(benchmark, write_artifact):
    outcome = benchmark.pedantic(collect, rounds=1, iterations=1)
    serial_results, serial_s, serial_stats = outcome["serial"]
    batch_results, plain_s, stats = outcome["batch"]
    live_results, live_s, snapshots = outcome["live"]
    plain = _spread(plain_s)
    observed = _spread(live_s)
    live_overhead = observed["median_s"] / plain["median_s"]

    # Byte-identical verdicts whichever way the work ran: the serial
    # loop and the scheduler share one TaskLedger.
    assert serial_stats.scheduler_batches == 0
    assert _verdict_bytes(batch_results) == _verdict_bytes(serial_results)
    # The live telemetry plane observes but never participates: with a
    # publisher active the verdicts stay byte-identical ...
    assert _verdict_bytes(live_results) == _verdict_bytes(batch_results)
    assert min(snapshots) > 0, "live plane never published a snapshot"
    # ... and (on the full configuration, where noise is amortized)
    # publishing costs under 2% of the median wall clock.
    if ITEMS >= 500:
        assert live_overhead <= MAX_LIVE_OVERHEAD, (
            f"live plane cost {(live_overhead - 1) * 100:.1f}% over the "
            f"plain scheduler run (median of {REPEATS}; budget "
            f"{(MAX_LIVE_OVERHEAD - 1) * 100:.0f}%)")
    # The batch scheduler actually batched (not 1 task per dispatch).
    assert stats.scheduler_batches > 0
    assert stats.scheduler_batch_items == ITEMS
    assert stats.scheduler_batches < ITEMS, (
        "adaptive batching degenerated to one item per batch")

    payload = {
        "protocol": "matching-ex4.2",
        "items": ITEMS,
        "jobs": JOBS,
        "micro_sizes": list(MICRO_SIZES),
        "repeats": REPEATS,
        "serial_s": round(serial_s, 4),
        "batch": plain,
        "batch_live": observed,
        "live_overhead": round(live_overhead, 4),
        "live_overhead_gate": MAX_LIVE_OVERHEAD if ITEMS >= 500 else None,
        "live_snapshots": min(snapshots),
        "scheduler": {
            "batches": stats.scheduler_batches,
            "batch_items": stats.scheduler_batch_items,
            "mean_batch_size": round(
                stats.scheduler_batch_items
                / max(1, stats.scheduler_batches), 2),
            "steals": stats.scheduler_steals,
            "requeued": stats.scheduler_requeued,
        },
    }
    (REPO_ROOT / "BENCH_dispatch.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    write_artifact(
        "dispatch_overhead.txt",
        f"{ITEMS} micro tasks; scheduler at jobs={JOBS}, "
        f"median (IQR) of {REPEATS} runs\n"
        f"  serial loop    {serial_s * 1e3:9.1f} ms  (one run, jobs=1)\n"
        f"  batch          {plain['median_s'] * 1e3:9.1f} ms  "
        f"(IQR {plain['iqr_s'] * 1e3:.1f} ms, "
        f"{payload['scheduler']['batches']} batches, "
        f"mean {payload['scheduler']['mean_batch_size']} items)\n"
        f"  batch + live   {observed['median_s'] * 1e3:9.1f} ms  "
        f"(IQR {observed['iqr_s'] * 1e3:.1f} ms, "
        f"{(live_overhead - 1) * 100:+.1f}%, "
        f"{min(snapshots)} snapshots)")
