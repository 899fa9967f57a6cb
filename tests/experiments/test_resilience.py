"""The resilience layer: retries, timeouts, kills, checkpoint/resume.

The promises under test: a fault-injected run with retries produces
bit-identical results to a clean run (fault decisions and backoff are
pure functions of the seed); hung tasks are interrupted; a worker
killed mid-task respawns the pool instead of deadlocking; ``skip``
finishes with holes recorded in the report; and a run SIGKILLed
mid-sweep resumes from its journal re-executing only the unfinished
tasks, with digests identical to an uninterrupted run.
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments import (
    ResumeMismatchError,
    RunContext,
    RunJournal,
    TaskRunReport,
    parallel_map,
    run_experiment,
    run_key,
)
from repro.experiments.engine import (
    _REGISTRY,
    Experiment,
    register_experiment,
)
from repro.obs.faults import (
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    TaskTimeout,
)
from repro.obs.metrics import METRICS

SRC = Path(__file__).resolve().parents[2] / "src"

#: Tiny catalog so every worker init is cheap.
SCALE = 1.0

#: At seed 5, tasks 1/2 of a kill:0.2,raise:0.1 plan are killed on
#: their first attempt (see test_faults.py for the determinism proof).
KILL_SEED = 5


def _square(item):
    return item * item


def _flaky(item):
    """Fails (marker file counts attempts) until the third attempt."""
    root, index = item
    marker = Path(root) / f"attempts-{index}"
    count = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(count + 1))
    if count < 2:
        raise RuntimeError(f"flaky task {index}, attempt {count}")
    return index


def _sleepy(item):
    index, nap = item
    time.sleep(nap)
    return index


@dataclass(frozen=True)
class ToyParams:
    n: int = 4
    factor: int = 3


class ToySpec(Experiment):
    name = "resilience-toy"
    help = "i*factor for i < n"
    params_type = ToyParams
    uses_scenario = False

    def plan_tasks(self, ctx, params):
        return [(i, params.factor) for i in range(params.n)]

    def run_task(self, ctx, params, task):
        index, factor = task
        return index * factor

    def reduce(self, ctx, params, results):
        return sum(results)

    def digest_payloads(self, ctx, params, reduced):
        return {"toy_total": str(reduced)}


@pytest.fixture
def toy_spec():
    register_experiment(ToySpec)
    try:
        yield "resilience-toy"
    finally:
        _REGISTRY.pop("resilience-toy", None)


# ----------------------------------------------------------------------
# Retry semantics (serial path — same code as the pool's scheduler)
# ----------------------------------------------------------------------
def test_abort_mode_fails_fast_ignoring_retries(tmp_path):
    policy = RetryPolicy(on_error="abort", retries=5)
    with pytest.raises(RuntimeError, match="flaky task"):
        parallel_map(
            _flaky, [(str(tmp_path), 0)], catalog_spec=SCALE,
            policy=policy,
        )
    assert (tmp_path / "attempts-0").read_text() == "1"


def test_retry_mode_retries_until_success(tmp_path):
    policy = RetryPolicy(
        on_error="retry", retries=3, backoff_base=0.001
    )
    report = TaskRunReport()
    results = parallel_map(
        _flaky, [(str(tmp_path), 0), (str(tmp_path), 1)],
        catalog_spec=SCALE, policy=policy, report=report,
    )
    assert results == [0, 1]
    assert (tmp_path / "attempts-0").read_text() == "3"
    assert report.retried == 4 and report.completed == 2
    assert not report.failures


def test_retry_mode_aborts_after_exhausting_attempts(tmp_path):
    policy = RetryPolicy(
        on_error="retry", retries=1, backoff_base=0.001
    )
    with pytest.raises(RuntimeError, match="flaky task"):
        parallel_map(
            _flaky, [(str(tmp_path), 0)], catalog_spec=SCALE,
            policy=policy,
        )
    assert (tmp_path / "attempts-0").read_text() == "2"


def test_skip_mode_finishes_with_holes(tmp_path):
    policy = RetryPolicy(
        on_error="skip", retries=0, backoff_base=0.001
    )
    report = TaskRunReport()
    results = parallel_map(
        _flaky,
        [(str(tmp_path), 0), (str(tmp_path), 1), (str(tmp_path), 2)],
        catalog_spec=SCALE, policy=policy,
        labels=["a", "b", "c"], report=report,
    )
    assert results == []  # every task fails its single attempt
    assert [f.label for f in report.failures] == ["a", "b", "c"]
    assert all(f.attempts == 1 for f in report.failures)
    assert "flaky task" in report.failures[0].error


def test_skip_holes_preserve_order_of_survivors():
    policy = RetryPolicy(on_error="skip", retries=0)
    faults = FaultPlan.parse("raise:0.5", seed=2)
    report = TaskRunReport()
    results = parallel_map(
        _square, list(range(6)), catalog_spec=SCALE,
        policy=policy, faults=faults, report=report,
    )
    survivors = [i for i in range(6) if faults.decide(i, 0) is None]
    assert results == [i * i for i in survivors]
    assert len(report.failures) == 6 - len(survivors)
    assert 0 < len(report.failures) < 6


def test_retry_metrics_are_counted(tmp_path):
    METRICS.reset()
    policy = RetryPolicy(
        on_error="skip", retries=1, backoff_base=0.001
    )
    parallel_map(
        _flaky, [(str(tmp_path), 0)], catalog_spec=SCALE,
        policy=policy,
    )
    snapshot = METRICS.snapshot()["counters"]
    assert snapshot["engine.task_retries"] == 1
    assert snapshot["engine.task_failures"] == 1


# ----------------------------------------------------------------------
# Timeouts
# ----------------------------------------------------------------------
def test_timeout_interrupts_hung_task_serial():
    policy = RetryPolicy(
        on_error="skip", retries=0, task_timeout=0.2
    )
    report = TaskRunReport()
    started = time.monotonic()
    results = parallel_map(
        _sleepy, [(0, 0.0), (1, 30.0), (2, 0.0)],
        catalog_spec=SCALE, policy=policy, report=report,
    )
    assert time.monotonic() - started < 15.0
    assert results == [0, 2]
    assert len(report.failures) == 1
    assert "task-timeout" in report.failures[0].error


def test_timeout_interrupts_hung_task_in_workers():
    policy = RetryPolicy(
        on_error="skip", retries=0, task_timeout=0.5
    )
    report = TaskRunReport()
    started = time.monotonic()
    results = parallel_map(
        _sleepy, [(0, 0.0), (1, 60.0), (2, 0.0)],
        jobs=2, catalog_spec=SCALE, policy=policy, report=report,
    )
    assert time.monotonic() - started < 30.0
    assert results == [0, 2]
    assert len(report.failures) == 1


def test_injected_hang_is_killed_by_the_timeout():
    policy = RetryPolicy(
        on_error="retry", retries=3, task_timeout=0.3,
        backoff_base=0.001,
    )

    # hang:1.0 would hang every retry too; this plan hangs only the
    # first attempt of each task, so retries succeed.
    class FirstAttemptOnly:
        hang_seconds = 60.0
        seed = 0

        def decide(self, index, attempt):
            return "hang" if attempt == 0 else None

    report = TaskRunReport()
    results = parallel_map(
        _square, [1, 2], catalog_spec=SCALE,
        policy=policy, faults=FirstAttemptOnly(), report=report,
    )
    assert results == [1, 4]
    assert report.retried == 2


# ----------------------------------------------------------------------
# Dead-worker detection (injected kills)
# ----------------------------------------------------------------------
def test_worker_kill_respawns_pool_and_retries():
    policy = RetryPolicy(
        on_error="retry", retries=5, backoff_base=0.001, seed=KILL_SEED
    )
    faults = FaultPlan.parse("kill:0.2,raise:0.1", seed=KILL_SEED)
    assert any(
        faults.decide(i, 0) == "kill" for i in range(4)
    ), "seed must kill at least one first attempt"
    report = TaskRunReport()
    results = parallel_map(
        _square, list(range(4)), jobs=2, catalog_spec=SCALE,
        policy=policy, faults=faults, report=report,
    )
    assert results == [0, 1, 4, 9]
    assert report.retried > 0
    assert not report.failures


def test_worker_kill_aborts_without_retries():
    policy = RetryPolicy(on_error="abort", seed=KILL_SEED)
    faults = FaultPlan.parse("kill:1.0", seed=KILL_SEED)
    with pytest.raises(Exception) as excinfo:
        parallel_map(
            _square, list(range(4)), jobs=2, catalog_spec=SCALE,
            policy=policy, faults=faults,
        )
    assert "worker process died" in str(excinfo.value)


def test_fault_injected_run_matches_clean_run_bitwise():
    """The acceptance property: same results with and without chaos."""
    clean = parallel_map(
        _square, list(range(6)), jobs=2, catalog_spec=SCALE
    )
    chaotic = parallel_map(
        _square, list(range(6)), jobs=2, catalog_spec=SCALE,
        policy=RetryPolicy(
            on_error="retry", retries=5, backoff_base=0.001,
            seed=KILL_SEED,
        ),
        faults=FaultPlan.parse("kill:0.2,raise:0.1", seed=KILL_SEED),
    )
    assert clean == chaotic


# ----------------------------------------------------------------------
# Journal + resume
# ----------------------------------------------------------------------
def test_journal_roundtrip_and_corruption_recovery(tmp_path):
    journal = RunJournal("abc123", root=tmp_path)
    journal.store(0, {"x": 1})
    journal.store(3, [1, 2])
    assert journal.completed() == {0, 3}
    assert journal.load(0) == (True, {"x": 1})
    assert journal.load(1) == (False, None)
    journal.task_path(3).write_bytes(b"not a pickle")
    assert journal.load(3) == (False, None)


def test_journal_serves_completed_tasks_without_execution(tmp_path):
    journal = RunJournal("run1", root=tmp_path)
    journal.store(1, 111)  # pre-journaled with a sentinel value
    report = TaskRunReport()
    results = parallel_map(
        _square, [2, 3, 4], catalog_spec=SCALE,
        journal=journal, report=report,
    )
    # Task 1 came from the journal (111), the others were computed.
    assert results == [4, 111, 16]
    assert report.resumed == 1 and report.completed == 3
    assert journal.completed() == {0, 1, 2}


def test_run_key_is_sensitive_to_configuration():
    from repro.optimizer.config import DEFAULT_PARAMETERS

    base = run_key("figure", "params", DEFAULT_PARAMETERS, "cat", 0)
    assert base == run_key(
        "figure", "params", DEFAULT_PARAMETERS, "cat", 0
    )
    assert base != run_key(
        "census", "params", DEFAULT_PARAMETERS, "cat", 0
    )
    assert base != run_key(
        "figure", "params2", DEFAULT_PARAMETERS, "cat", 0
    )
    assert base != run_key(
        "figure", "params", DEFAULT_PARAMETERS, "cat2", 0
    )
    assert base != run_key(
        "figure", "params", DEFAULT_PARAMETERS, "cat", 1
    )


def test_run_key_moves_with_the_journal_format(monkeypatch):
    """A format-1 journal, whose decision deltas still carried lookup
    paths, never resumes into a current run: its run id differs."""
    from repro.experiments import journal
    from repro.optimizer.config import DEFAULT_PARAMETERS

    current = run_key("figure", "params", DEFAULT_PARAMETERS, "cat", 0)
    assert journal._FORMAT_VERSION == 2
    monkeypatch.setattr(journal, "_FORMAT_VERSION", 1)
    assert current != run_key(
        "figure", "params", DEFAULT_PARAMETERS, "cat", 0
    )


def test_resume_mismatch_is_rejected(tmp_path, toy_spec):
    ctx = RunContext(
        scale=SCALE, queries={}, resume="not-the-right-id",
        journal_root=tmp_path,
    )
    with pytest.raises(ResumeMismatchError, match="not-the-right"):
        run_experiment(toy_spec, ToyParams(), ctx)


def test_checkpoint_then_resume_reexecutes_only_unfinished(
    tmp_path, toy_spec
):
    params = ToyParams(n=4, factor=3)
    first = RunContext(
        scale=SCALE, queries={}, checkpoint=True,
        journal_root=tmp_path,
    )
    total = run_experiment(toy_spec, params, first)
    assert first.run_id is not None
    journal = RunJournal(first.run_id, root=tmp_path)
    assert journal.completed() == {0, 1, 2, 3}
    # Drop two entries to simulate a run killed mid-sweep.
    journal.task_path(2).unlink()
    journal.task_path(3).unlink()
    second = RunContext(
        scale=SCALE, queries={}, resume="auto",
        journal_root=tmp_path,
    )
    assert run_experiment(toy_spec, params, second) == total
    assert second.result_digests == first.result_digests
    assert second.task_stats["resumed"] == 2
    assert second.task_stats["completed"] == 4
    assert journal.completed() == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# SIGKILL mid-run, then --resume: the acceptance scenario end-to-end
# ----------------------------------------------------------------------
_CRASH_SCRIPT = """
import os, sys
from dataclasses import dataclass

from repro.experiments import RunContext, run_experiment
from repro.experiments.engine import Experiment, register_experiment


@dataclass(frozen=True)
class CrashParams:
    n: int = 5


@register_experiment
class CrashSpec(Experiment):
    name = "crash-test"
    help = "SIGKILLs the whole process at task 3 when asked"
    params_type = CrashParams
    uses_scenario = False

    def plan_tasks(self, ctx, params):
        return list(range(params.n))

    def run_task(self, ctx, params, task):
        if task == 3 and os.environ.get("CRASH_AT_3"):
            os.kill(os.getpid(), 9)  # SIGKILL: no cleanup, no atexit
        return task * 10

    def digest_payloads(self, ctx, params, reduced):
        return {"crash_total": repr(reduced)}


mode = sys.argv[1]
ctx = RunContext(
    scale=1.0, queries={},
    checkpoint=(mode == "checkpoint"),
    resume=("auto" if mode == "resume" else None),
    journal_root=sys.argv[2],
)
result = run_experiment("crash-test", CrashParams(), ctx)
print(result)
print(sorted(ctx.result_digests.items()))
print(ctx.task_stats["resumed"])
"""


def _run_crash_script(tmp_path, mode, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    script = tmp_path / "crash_script.py"
    script.write_text(_CRASH_SCRIPT)
    return subprocess.run(
        [sys.executable, str(script), mode, str(tmp_path / "runs")],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_sigkill_midrun_then_resume_matches_clean_run(tmp_path):
    # 1. A checkpointed run SIGKILLed at task 3 dies with journaled
    #    tasks 0-2 on disk.
    crashed = _run_crash_script(
        tmp_path, "checkpoint", {"CRASH_AT_3": "1"}
    )
    assert crashed.returncode == -signal.SIGKILL
    runs = list((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    journaled = {
        int(p.stem.split("-")[1]) for p in runs[0].glob("task-*.pkl")
    }
    assert journaled == {0, 1, 2}

    # 2. Resuming re-executes only tasks 3 and 4.
    resumed = _run_crash_script(tmp_path, "resume")
    assert resumed.returncode == 0, resumed.stderr

    # 3. An uninterrupted run in a fresh journal dir for comparison.
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    clean = subprocess.run(
        [sys.executable, str(tmp_path / "crash_script.py"),
         "checkpoint", str(clean_dir / "runs")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": str(SRC) + os.pathsep
             + os.environ.get("PYTHONPATH", "")},
    )
    assert clean.returncode == 0, clean.stderr

    resumed_lines = resumed.stdout.strip().splitlines()
    clean_lines = clean.stdout.strip().splitlines()
    assert resumed_lines[0] == clean_lines[0]  # same reduced result
    assert resumed_lines[1] == clean_lines[1]  # same digests
    assert resumed_lines[2] == "3"  # tasks 0-2 came from the journal
    assert clean_lines[2] == "0"
