"""A3 — the fuzzing audit as a benchmark.

Random protocols, local verdicts vs brute force (Theorem 4.2 exactness,
Theorem 5.14 soundness).  The audit must come back clean; the benchmark
reports its throughput, serial and parallel (per-protocol audits are
independent work items for the ``repro.engine`` pool).
"""

import time

from repro.engine import Executor
from repro.randomgen import audit_theorems
from repro.viz import render_table


def test_a3_fuzz_audit_clean(benchmark, write_artifact):
    report = benchmark.pedantic(
        lambda: audit_theorems(samples=40, max_ring_size=4, seed=123),
        rounds=1, iterations=1)
    assert report.clean
    assert report.samples == 40

    serial_s = report.stats.total_seconds
    began = time.perf_counter()
    parallel = audit_theorems(samples=40, max_ring_size=4, seed=123,
                              executor=Executor(jobs=2))
    parallel_s = time.perf_counter() - began
    assert parallel.clean
    assert (parallel.samples, parallel.certificates_issued,
            parallel.deadlock_checks, parallel.discrepancies) == (
        report.samples, report.certificates_issued,
        report.deadlock_checks, report.discrepancies)

    # Brute force rides the compiled kernel: every explored state was
    # kernel-encoded, and the counters travel on the report stats.
    stats = report.stats
    assert stats.states_encoded == stats.states_explored > 0

    write_artifact(
        "a3_fuzzing.txt",
        report.summary() + "\n\n"
        + render_table(
            ["metric", "value"],
            [("samples", report.samples),
             ("per-size deadlock comparisons", report.deadlock_checks),
             ("livelock certificates confirmed",
              report.certificates_issued),
             ("discrepancies", len(report.discrepancies)),
             ("serial audit wall time", f"{serial_s * 1e3:.1f} ms"),
             ("parallel audit wall time (jobs=2)",
              f"{parallel_s * 1e3:.1f} ms"),
             ("kernel-encoded states", stats.states_encoded),
             ("kernel encode rate",
              f"{stats.encode_rate / 1e3:.0f}k states/s"),
             ("kernel compile time",
              f"{stats.compile_seconds * 1e3:.1f} ms")]))
