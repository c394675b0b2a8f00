"""The --trace/--log-json flags, `repro report`, and --json stats."""

import json

import pytest

from repro.cli import main
from repro.obs import runtime as obs, validate


@pytest.fixture(autouse=True)
def _no_leaked_run():
    assert obs.active() is None
    yield
    if obs.active() is not None:  # pragma: no cover - test bug guard
        obs.finish(obs.active())
        pytest.fail("CLI leaked an active observability run")


def test_sweep_trace_and_log_artifacts_validate(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    log = tmp_path / "run.jsonl"
    # sum-not-two (the unstabilized variant) diverges, hence exit 1 —
    # the artifacts must be written regardless of the verdict.
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--jobs", "2",
                 "--trace", str(trace), "--log-json", str(log)]) == 1
    err = capsys.readouterr().err
    assert "wrote Chrome trace" in err and "wrote run log" in err

    trace_counts = validate.validate_chrome_trace(trace)
    assert trace_counts["X"] >= 3  # root + sweep + per-K checks
    log_counts = validate.validate_run_log(log)
    assert log_counts["run"] == 1 and log_counts["end"] == 1
    assert log_counts["span"] == trace_counts["X"]

    data = json.loads(trace.read_text())
    names = [e["name"] for e in data["traceEvents"] if e["ph"] == "X"]
    assert names[0] == "repro sweep"
    assert "sweep" in names and "check" in names
    # The protocol fingerprint rides on the root span and the gauges.
    root = next(e for e in data["traceEvents"]
                if e["ph"] == "X" and e["name"] == "repro sweep")
    assert root["args"]["protocol"] == "sum-not-two"
    assert len(root["args"]["fingerprint"]) == 64  # sha-256 hex
    metrics = data["otherData"]["metrics"]
    assert metrics["protocol.name"] == "sum-not-two"
    assert metrics["protocol.fingerprint"] == root["args"]["fingerprint"]

    # The root span covers (almost) all recorded wall time.
    last_end = max(e["ts"] + e["dur"] for e in data["traceEvents"]
                   if e["ph"] == "X")
    assert root["dur"] >= 0.95 * (last_end - root["ts"])


def test_trace_written_even_when_command_fails(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["check", "matching-gouda-acharya", "-K", "5",
                 "--trace", str(trace)]) == 1
    assert validate.validate_chrome_trace(trace)["X"] >= 2


def test_verify_json_includes_stats(capsys):
    assert main(["verify", "agreement-ss", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    stats = data["stats"]
    assert "closure" in stats["stage_seconds"]
    assert "livelock" in stats["stage_seconds"]
    assert stats["total_seconds"] > 0
    assert stats["metrics"]["engine.work_items"] == stats["work_items"]


def test_check_json_includes_stats(capsys):
    assert main(["check", "agreement-ss", "-K", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stats"]["stage_seconds"]["check"] > 0


def _run_log_metrics(path):
    (metrics,) = [json.loads(line)["values"]
                  for line in path.read_text().splitlines()
                  if json.loads(line)["type"] == "metrics"]
    return metrics


def test_warm_check_reports_its_own_cache_hit(tmp_path, capsys):
    # A warm `repro check` answers from the result cache: its metrics,
    # engine line and ledger record are this run's, not a replay of the
    # cold run's counters.
    cache_dir = tmp_path / "cache"
    runs = []
    for name in ("cold", "warm"):
        log = tmp_path / f"{name}.jsonl"
        assert main(["check", "agreement-ss", "-K", "6", "--cache-dir",
                     str(cache_dir), "--log-json", str(log)]) == 0
        runs.append((_run_log_metrics(log), capsys.readouterr().out))
    (cold, cold_out), (warm, warm_out) = runs
    assert cold["engine.cache_misses"] == 1
    assert cold.get("engine.cache_hits", 0) == 0
    assert "1 work items; 64 states explored; cache 0 hits / 1 misses" \
        in cold_out
    assert warm["engine.cache_hits"] == 1
    assert warm.get("engine.cache_misses", 0) == 0
    assert warm.get("engine.work_items", 0) == 0
    assert "engine: serial; 0 work items; 0 states explored; " \
        "cache 1 hits / 0 misses\n" in warm_out
    records = [json.loads(line) for line in
               (cache_dir / "ledger.jsonl").read_text().splitlines()]
    counters = [record["counters"] for record in records]
    assert [c["work_items"] for c in counters] == [1, 0]
    assert [c["cache_hits"] for c in counters] == [0, 1]


def test_report_renders_run_log(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    assert main(["check", "agreement-ss", "-K", "4",
                 "--log-json", str(log)]) == 0
    capsys.readouterr()
    assert main(["report", str(log)]) == 0
    out = capsys.readouterr().out
    assert "== run: repro check ==" in out
    assert "check" in out
    assert "wall time:" in out


def test_report_validate_exit_codes(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["check", "agreement-ss", "-K", "4",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", "--validate", str(trace)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["report", "--validate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_no_obs_flags_leaves_runtime_untouched(capsys):
    assert main(["check", "agreement-ss", "-K", "3"]) == 0
    assert obs.active() is None
