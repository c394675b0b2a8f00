"""The command-line interface end to end."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "matching-ex4.2" in out
    assert "sum-not-two" in out


def test_show(capsys):
    assert main(["show", "agreement-ss"]) == 0
    out = capsys.readouterr().out
    assert "protocol agreement-ss" in out
    assert "t01" in out


def test_verify_converging_protocol(capsys):
    assert main(["verify", "agreement-ss"]) == 0
    out = capsys.readouterr().out
    assert "verdict: converges" in out


def test_verify_diverging_protocol_reports_sizes(capsys):
    assert main(["verify", "matching-ex4.3", "--max-sizes", "8"]) == 1
    out = capsys.readouterr().out
    assert "verdict: diverges" in out
    assert "deadlocked ring sizes" in out
    assert "4" in out and "6" in out


def test_check(capsys):
    assert main(["check", "agreement-ss", "-K", "5"]) == 0
    out = capsys.readouterr().out
    assert "K=5" in out
    assert "strong convergence: True" in out


def test_check_failing_instance(capsys):
    assert main(["check", "matching-gouda-acharya", "-K", "5"]) == 1


def test_synthesize_success(capsys):
    assert main(["synthesize", "sum-not-two"]) == 0
    out = capsys.readouterr().out
    assert "success" in out
    assert "protocol sum-not-two_ss" in out


def test_synthesize_failure(capsys):
    assert main(["synthesize", "3-coloring"]) == 1
    out = capsys.readouterr().out
    assert "failure" in out


def test_simulate(capsys):
    assert main(["simulate", "agreement-ss", "-K", "6",
                 "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "20/20 converged" in out


def test_figures(tmp_path, capsys):
    assert main(["figures", "--out", str(tmp_path)]) == 0
    written = {p.name for p in tmp_path.iterdir()}
    assert "fig01_rcg_matching.dot" in written
    assert "fig04_ltg_ex42.dot" in written
    for path in tmp_path.iterdir():
        assert path.read_text().startswith("digraph")


def test_unknown_protocol_exit_code(capsys):
    assert main(["verify", "no-such-protocol"]) == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["sweep", "agreement-ss", "--up-to", "4", "--timeout", "0"],
    ["sweep", "agreement-ss", "--up-to", "4", "--timeout", "-1"],
    ["sweep", "agreement-ss", "--up-to", "4", "--timeout", "soon"],
    ["sweep", "agreement-ss", "--up-to", "4", "--retries", "-1"],
    ["sweep", "agreement-ss", "--up-to", "4", "--jobs", "0"],
    ["sweep", "agreement-ss", "--up-to", "4", "--jobs", "-3"],
    ["sweep", "agreement-ss", "--up-to", "4", "--cache-limit", "-1"],
    ["fuzz", "--samples", "-1"],
    ["fuzz", "--samples", "0"],
    ["check", "agreement-ss", "-K", "4", "--jobs", "0"],
    ["verify", "agreement-ss", "--timeout", "0"],
    ["verify", "agreement-ss", "--max-ring-size", "0"],
    ["hybrid", "agreement-ss", "--max-ring-size", "1"],
    ["synthesize", "3-coloring", "--max-ring-size", "1"],
    ["fuzz", "--max-ring-size", "-4"],
    ["simulate", "agreement-ss", "-K", "4", "--samples", "0"],
    ["cache", "--cache-limit", "-5"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_numeric_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    flag = argv[-2]
    (message,) = [line for line in err.splitlines()
                  if line.startswith("repro ")]
    assert f"error: argument {flag}" in message


def test_batch_size_flag_is_gone(capsys):
    # Batch sizes come from measured task durations; nothing pins them.
    with pytest.raises(SystemExit) as exited:
        main(["sweep", "agreement-ss", "--up-to", "4", "--batch-size", "2"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --batch-size 2" in capsys.readouterr().err


def test_library_error_is_a_one_line_message(capsys):
    # A degenerate ring size is a ProtocolDefinitionError, not a crash.
    assert main(["check", "agreement-ss", "-K", "1", "--no-live",
                 "--no-ledger"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: ring size 1 smaller than the read window (2); the "
        "instance would be degenerate"]


@pytest.mark.parametrize("live", ["--live", "--no-live"])
def test_resume_of_an_unknown_run_is_refused(live, tmp_path, capsys):
    # The live plane names its status directory after the resume id;
    # that directory must not pass for the run being resumed.
    assert main(["sweep", "agreement-ss", "--up-to", "4", "--resume",
                 "nope", "--cache-dir", str(tmp_path), live]) == 2
    captured = capsys.readouterr()
    assert "error: no run 'nope'" in captured.err
    assert "resuming run" not in captured.err
    assert "per-size sweep" not in captured.out


@pytest.mark.parametrize("live", ["--live", "--no-live"])
def test_refused_resume_leaves_no_run_behind(live, tmp_path, capsys):
    assert main(["sweep", "agreement-ss", "--up-to", "4", "--resume",
                 "nope", "--cache-dir", str(tmp_path), live]) == 2
    capsys.readouterr()
    assert not (tmp_path / "runs" / "nope").exists()
    assert main(["ps", "--cache-dir", str(tmp_path)]) == 0
    assert "nope" not in capsys.readouterr().out
