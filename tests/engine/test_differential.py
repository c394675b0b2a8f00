"""Differential test harness: three verification routes, one truth.

Seeded random small protocols are cross-validated three ways —

1. the **local certifier** (Theorem 4.2 deadlock prediction plus the
   Theorem 5.14 livelock certificate),
2. an explicit **serial per-K sweep** (the cutoff-style baseline), and
3. the **parallel sweep** through the ``repro.engine`` process pool —

asserting verdict agreement on every instance: the deadlock prediction
must match the swept per-K deadlocks exactly (the theorem is exact both
ways), a livelock-freedom certificate must never coexist with a swept
livelock (the theorem is sound), and the parallel sweep must reproduce
the serial sweep's reports verbatim.
"""

from __future__ import annotations

import pytest

from repro.checker.sweep import SweepResult, sweep_verify
from repro.core.deadlock import DeadlockAnalyzer
from repro.core.livelock import LivelockCertifier, LivelockVerdict
from repro.engine import Executor
from repro.randomgen import ProtocolSampler

MAX_K = 4
SEEDS = (0, 17, 42)
SAMPLES_PER_SEED = 8


def _sampled_protocols():
    for seed in SEEDS:
        sampler = ProtocolSampler(seed=seed)
        for index in range(SAMPLES_PER_SEED):
            yield pytest.param(sampler.sample(),
                               id=f"seed{seed}-sample{index}")


@pytest.mark.parametrize("protocol", _sampled_protocols())
def test_three_routes_agree(protocol):
    serial = sweep_verify(protocol, up_to=MAX_K)
    parallel = sweep_verify(protocol, up_to=MAX_K,
                            executor=Executor(jobs=2))
    predicted = DeadlockAnalyzer(protocol).deadlocked_ring_sizes(MAX_K)
    certificate = LivelockCertifier(
        protocol, max_ring_size=MAX_K + 1).analyze()
    certified = certificate.verdict is LivelockVerdict.CERTIFIED_FREE

    # Route 3 == route 2, report for report.
    assert parallel.reports == serial.reports
    assert parallel.sizes == serial.sizes

    for report in serial.reports:
        # Theorem 4.2 is exact: the local prediction and the explicit
        # per-K check must agree on every instance, in both directions.
        assert bool(report.deadlocks_outside) == (
            report.ring_size in predicted), (
            f"deadlock mismatch at K={report.ring_size}:\n"
            f"{protocol.pretty()}")
        # Theorem 5.14 is sound: a certificate forbids real livelocks.
        if certified:
            assert not report.livelock_cycles, (
                f"livelock under certificate at K={report.ring_size}:\n"
                f"{protocol.pretty()}")


def test_differential_verdict_aggregates():
    """The aggregate sweep verdict is a pure function of the per-K
    reports, so serial/parallel agreement extends to the aggregates."""
    sampler = ProtocolSampler(seed=7)
    for _ in range(SAMPLES_PER_SEED):
        protocol = sampler.sample()
        serial = sweep_verify(protocol, up_to=MAX_K)
        parallel = sweep_verify(protocol, up_to=MAX_K,
                                executor=Executor(jobs=3))
        assert isinstance(parallel, SweepResult)
        assert parallel.all_self_stabilizing == serial.all_self_stabilizing
        assert parallel.failing_sizes == serial.failing_sizes
        assert (parallel.total_states_explored
                == serial.total_states_explored)
