"""Cache keys, invalidation, and corruption handling.

The fingerprint must change whenever anything verdict-relevant changes —
an action, the invariant, an analysis parameter — and must *not* change
for presentation details (protocol name, action labels).  The disk layer
must shrug off corrupted entries rather than raising.
"""

from __future__ import annotations

from repro.checker.sweep import sweep_verify
from repro.engine import (
    Executor,
    ResultCache,
    analysis_key,
    protocol_fingerprint,
)
from repro.engine.cache import CacheStats
from repro.protocol.process import ProcessTemplate
from repro.protocol.ring import RingProtocol
from repro.protocol.variables import ranged
from repro.protocols import agreement, stabilizing_agreement


def _protocol(legitimacy="x[0] == x[-1]", actions=(), name="p"):
    x = ranged("x", 2)
    process = ProcessTemplate(variables=(x,))
    protocol = RingProtocol(name, process, legitimacy)
    if actions:
        protocol = protocol.extended_with(actions, name=name)
    return protocol


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_stable_across_rebuilds():
    assert (protocol_fingerprint(stabilizing_agreement())
            == protocol_fingerprint(stabilizing_agreement()))


def test_fingerprint_ignores_presentation():
    assert (protocol_fingerprint(_protocol(name="a"))
            == protocol_fingerprint(_protocol(name="b")))


def test_fingerprint_changes_with_actions():
    # agreement vs its synthesized stabilizing variant differ only in
    # recovery actions — the fingerprint must see that.
    assert (protocol_fingerprint(agreement())
            != protocol_fingerprint(stabilizing_agreement()))


def test_fingerprint_changes_with_invariant():
    assert (protocol_fingerprint(_protocol("x[0] == x[-1]"))
            != protocol_fingerprint(_protocol("x[0] != x[-1]")))


def test_fingerprint_covers_callable_legitimacy():
    dsl = _protocol("x[0] == x[-1]")
    by_callable = RingProtocol(
        "q", ProcessTemplate(variables=(ranged("x", 2),)),
        lambda view: view.state.cell(0) == view.state.cell(-1))
    assert protocol_fingerprint(dsl) == protocol_fingerprint(by_callable)


def test_analysis_key_varies_with_parameters():
    protocol = stabilizing_agreement()
    base = analysis_key("check-instance", protocol, ring_size=5)
    assert base != analysis_key("check-instance", protocol, ring_size=6)
    assert base != analysis_key("livelock", protocol, ring_size=5)
    assert base == analysis_key("check-instance", protocol, ring_size=5)


def test_mutations_force_sweep_recompute(tmp_path):
    """End to end: action/invariant/parameter mutations miss the cache."""
    cache = ResultCache(tmp_path / "cache")
    cached = Executor(cache=cache)
    sweep_verify(agreement(), up_to=4, executor=cached)
    baseline_stores = cache.stats.stores

    mutated_actions = sweep_verify(stabilizing_agreement(), up_to=4,
                                   executor=cached)
    assert mutated_actions.stats.cache_hits == 0
    assert cache.stats.stores > baseline_stores

    mutated_invariant = sweep_verify(
        _protocol("x[0] != x[-1]"), up_to=4, executor=cached)
    assert mutated_invariant.stats.cache_hits == 0

    wider = sweep_verify(agreement(), up_to=5, executor=cached)
    assert wider.stats.cache_hits == 3  # K=2..4 reused, K=5 fresh
    assert wider.stats.cache_misses == 1


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
def test_memory_roundtrip_and_stats():
    cache = ResultCache()
    assert cache.get("missing") is None
    assert cache.get("missing", default=7) == 7
    cache.put("k", {"verdict": "ok"})
    assert cache.get("k") == {"verdict": "ok"}
    assert "k" in cache and "missing" not in cache
    assert cache.stats == CacheStats(hits=1, misses=2, stores=1)


def test_disk_roundtrip_across_instances(tmp_path):
    directory = tmp_path / "cache"
    ResultCache(directory).put("deadbeef" * 8, ("report", 42))
    reloaded = ResultCache(directory)
    assert reloaded.get("deadbeef" * 8) == ("report", 42)
    assert reloaded.stats.disk_hits == 1


def test_corrupted_disk_entry_discarded(tmp_path):
    directory = tmp_path / "cache"
    key = "cafebabe" * 8
    writer = ResultCache(directory)
    writer.put(key, ("precious", "result"))
    entry = directory / key[:2] / f"{key}.pkl"
    assert entry.exists()

    entry.write_bytes(b"this is not a cache entry")
    reader = ResultCache(directory)
    assert reader.get(key) is None  # a miss, not an exception
    assert reader.stats.corrupt_entries == 1
    assert not entry.exists()  # the bad entry is gone
    # A store/load cycle works again afterwards.
    reader.put(key, ("fresh", "result"))
    assert ResultCache(directory).get(key) == ("fresh", "result")


def test_truncated_payload_detected_by_checksum(tmp_path):
    directory = tmp_path / "cache"
    key = "0badf00d" * 8
    ResultCache(directory).put(key, list(range(100)))
    entry = directory / key[:2] / f"{key}.pkl"
    entry.write_bytes(entry.read_bytes()[:-10])

    reader = ResultCache(directory)
    assert reader.get(key, default="fallback") == "fallback"
    assert reader.stats.corrupt_entries == 1


def test_clear_memory_keeps_disk(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put("feedface" * 8, "value")
    cache.clear_memory()
    assert cache.get("feedface" * 8) == "value"
    assert cache.stats.disk_hits == 1


def test_memory_only_cache_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = ResultCache()
    cache.put("a" * 64, "value")
    assert list(tmp_path.iterdir()) == []
