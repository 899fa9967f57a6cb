"""CLI resilience flags: fault injection, on-task-error, checkpoint,
resume, and their usage-error paths.

The autouse fixtures isolate the cache (and thus the journal root,
which lives under it) per test.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIGURE = [
    "figure", "shared", "--queries", "Q1", "--deltas", "2", "--csv",
]

#: At seed 9, task 0's first attempt of a raise:0.3 plan is injected
#: and its second attempt is clean — one retry recovers the run.
RAISY = ["--seed", "9", "--inject-faults", "raise:0.3"]


def _manifest(path="run-manifest.json"):
    return json.loads(Path(path).read_text())


def test_bad_fault_spec_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(FIGURE + ["--inject-faults", "bogus:0.5"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "bad fault entry" in err and "raise, hang, kill" in err


def test_bad_on_task_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(FIGURE + ["--on-task-error", "explode"])
    assert excinfo.value.code == 2


def test_repro_faults_env_is_ignored(capsys, monkeypatch):
    """Faults come from ``--inject-faults`` alone: a spec in the
    ``REPRO_FAULTS`` environment variable, valid or not, changes
    nothing."""
    # The same spec and seed as RAISY, which aborts the run when
    # passed as a flag.
    monkeypatch.setenv("REPRO_FAULTS", "raise:0.3")
    assert main(FIGURE + ["--seed", "9"]) == 0
    counters = _manifest()["metrics"]["counters"]
    assert "engine.faults_injected" not in counters
    monkeypatch.setenv("REPRO_FAULTS", "bogus:0.5")
    assert main(FIGURE) == 0
    assert "bad fault entry" not in capsys.readouterr().err


def test_injected_fault_aborts_by_default(capsys):
    with pytest.raises(Exception, match="injected task exception"):
        main(FIGURE + RAISY)


def test_injected_fault_retry_recovers_with_digest_parity(capsys):
    assert main(FIGURE + ["--manifest", "clean.json"]) == 0
    clean_out = capsys.readouterr().out
    assert main(
        FIGURE + RAISY
        + ["--on-task-error", "retry", "--retries", "3",
           "--manifest", "faulted.json"]
    ) == 0
    faulted_out = capsys.readouterr().out
    assert faulted_out == clean_out
    clean, faulted = _manifest("clean.json"), _manifest("faulted.json")
    assert faulted["result_digests"] == clean["result_digests"]
    assert faulted["tasks"]["retried"] == 1
    counters = faulted["metrics"]["counters"]
    assert counters["engine.task_retries"] == 1
    assert counters["engine.faults_injected"] >= 1


def test_skip_mode_records_holes_and_warns(capsys):
    assert main(
        FIGURE + RAISY
        + ["--on-task-error", "skip", "--retries", "0"]
    ) == 0
    err = capsys.readouterr().err
    assert "1 task(s) failed and were skipped" in err
    manifest = _manifest()
    assert manifest["tasks"]["planned"] == 1
    assert manifest["tasks"]["completed"] == 0
    failed = manifest["tasks"]["failed"]
    assert len(failed) == 1
    assert failed[0]["label"] == "figure[0]"
    assert "InjectedFault" in failed[0]["error"]
    assert manifest["metrics"]["counters"]["engine.task_failures"] == 1


def test_checkpoint_then_resume_digest_parity(capsys):
    assert main(
        FIGURE + ["--checkpoint", "--manifest", "first.json"]
    ) == 0
    err = capsys.readouterr().err
    assert "checkpoint: run" in err and "--resume" in err
    assert main(
        FIGURE + ["--resume", "--manifest", "second.json"]
    ) == 0
    first, second = _manifest("first.json"), _manifest("second.json")
    assert second["result_digests"] == first["result_digests"]
    assert second["tasks"]["resumed"] == 1
    assert (
        second["metrics"]["counters"]["engine.journal_hits"] == 1
    )


def test_resume_mismatch_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(FIGURE + ["--resume", "0123456789abcdef"])
    assert excinfo.value.code == 2
    assert "content-addressed" in capsys.readouterr().err


def test_journal_lands_under_the_cache_dir(tmp_path, capsys):
    assert main(
        FIGURE + ["--checkpoint", "--cache-dir", str(tmp_path / "c")]
    ) == 0
    runs = list((tmp_path / "c" / "runs").iterdir())
    assert len(runs) == 1
    assert (runs[0] / "meta.json").exists()
    assert (runs[0] / "task-0.pkl").exists()
    meta = json.loads((runs[0] / "meta.json").read_text())
    assert meta["experiment"] == "figure" and meta["n_tasks"] == 1


def test_report_renders_failed_tasks(capsys):
    assert main(
        FIGURE + RAISY
        + ["--on-task-error", "skip", "--retries", "0"]
    ) == 0
    capsys.readouterr()
    assert main(["report", "run-manifest.json"]) == 0
    out = capsys.readouterr().out
    assert "0/1 completed" in out
    assert "FAILED figure[0]" in out
