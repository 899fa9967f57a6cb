"""The resilient serial-or-process-pool executor for experiment tasks.

Every experiment sweep is embarrassingly parallel over queries, and
every one of them fans out through :func:`parallel_map` — the engine
(:mod:`repro.experiments.engine`) hands it one shared worker function
that dispatches to the registered spec, so no runner owns pool code.
Each worker needs the TPC-H catalog — a few kilobytes of statistics
that every query shares.  Rather than pickling it into every task,
:func:`parallel_map` ships a *catalog spec* (usually just the scale
factor) once per worker process through a
:class:`~concurrent.futures.ProcessPoolExecutor` initializer; the
worker builds the catalog a single time and parks it, together with an
arbitrary experiment payload, in the module-global ``_STATE``.

``jobs=1`` (the default everywhere) never spawns a process: the same
worker function runs serially in-process through the same ``_STATE``
protocol, so serial and parallel paths execute identical code and
produce identical results — ``--jobs N`` is a wall-clock knob, not a
semantics knob.  Results keep input order regardless of worker
scheduling or retries.

On top of the plain fan-out sits the resilience layer:

* a :class:`~repro.obs.faults.RetryPolicy` adds per-task retries with
  seeded exponential backoff, a per-attempt ``--task-timeout``
  (SIGALRM inside the worker, so hung tasks are interrupted rather
  than wedged), and the ``on_error`` verdict — ``abort`` fails fast
  (the historical behaviour), ``retry`` retries then aborts, ``skip``
  records the failure in a :class:`TaskRunReport` and lets the sweep
  finish with holes;
* a **dead-worker detector**: a worker that dies mid-task (injected
  ``kill`` fault, segfault, OOM) breaks the pool — the parent catches
  :class:`~concurrent.futures.process.BrokenProcessPool`, respawns the
  pool, and reschedules the in-flight tasks instead of deadlocking.
  With a task timeout set, a parent-side deadline additionally
  backstops workers too wedged to deliver their own ``SIGALRM``;
* an optional :class:`~repro.experiments.journal.RunJournal` persists
  each finished task atomically, and already-journaled tasks are
  served from disk before any worker is spawned (``--resume``);
* a :class:`~repro.obs.faults.FaultPlan` injects deterministic,
  seeded failures (raise/hang/kill) into task execution so every one
  of the paths above is testable on demand.

Observability crosses the process boundary in both directions.  On the
way out, workers inherit the parent's tracing flag and log level; on
the way back, every task ships its metric delta, span sub-tree and (under
``--profile``) folded-stack profile delta with its result, and the
parent :meth:`~repro.obs.metrics.MetricsRegistry.merge`\\ s,
:meth:`~repro.obs.trace.Tracer.graft`\\ s and
:meth:`~repro.obs.profile.SamplingProfiler.merge`\\ s them.  A ``--jobs N`` run
therefore reports the *same metric totals* and the *same span-tree
shape* as the serial run — only the timings differ
(``tests/experiments/test_parallel_obs.py``).  Only a task's
*successful* attempt contributes metrics and spans, so fault-injected
runs converge to the same task-level totals as clean ones.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..catalog.statistics import Catalog
from ..catalog.tpch import build_tpch_catalog
from ..obs.faults import (
    FaultPlan,
    RetryPolicy,
    TaskTimeout,
    apply_fault,
    time_limit,
)
from ..obs.decisions import DECISIONS
from ..obs.logs import configure_logging, configured_log_level
from ..obs.metrics import METRICS
from ..obs.profile import PROFILER
from ..obs.trace import TRACER, span
from .journal import RunJournal

__all__ = [
    "TaskFailure",
    "TaskRunReport",
    "WorkerCrash",
    "parallel_map",
    "worker_catalog",
    "worker_payload",
]

logger = logging.getLogger(__name__)

#: Parent-side grace on top of ``task_timeout`` before a worker that
#: never reported back is presumed dead and the pool is respawned.
_DEADLINE_GRACE = 5.0

#: Poll interval of the parallel scheduler loop.
_POLL_SECONDS = 0.05

#: Per-process experiment state:
#: ``{"catalog": ..., "payload": ..., "worker": ..., "task_span": ...,
#: "faults": ..., "timeout": ...}``.
_STATE: dict[str, Any] = {}


class WorkerCrash(RuntimeError):
    """A worker process died mid-task (kill fault, segfault, OOM)."""


@dataclass
class TaskFailure:
    """One task that exhausted its attempts under ``on_error=skip``."""

    index: int
    label: str
    error: str
    attempts: int

    def as_manifest(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class TaskRunReport:
    """What happened to every task of one sweep (manifest fodder)."""

    planned: int = 0
    completed: int = 0
    resumed: int = 0
    retried: int = 0
    failures: list[TaskFailure] = field(default_factory=list)

    def as_manifest(self) -> dict[str, Any]:
        return {
            "planned": self.planned,
            "completed": self.completed,
            "resumed": self.resumed,
            "retried": self.retried,
            "failed": [f.as_manifest() for f in self.failures],
        }


def _init_worker(
    catalog_spec: "Catalog | float",
    payload: Mapping[str, Any],
    worker: "Callable[[Any], Any] | None" = None,
    task_span: str = "parallel.task",
    obs_config: "Mapping[str, Any] | None" = None,
) -> None:
    """Build the catalog once for this process and park the payload."""
    if isinstance(catalog_spec, Catalog):
        catalog = catalog_spec
    else:
        catalog = build_tpch_catalog(catalog_spec)
    _STATE.clear()
    _STATE["catalog"] = catalog
    _STATE["payload"] = dict(payload)
    _STATE["worker"] = worker
    _STATE["task_span"] = task_span
    _STATE["faults"] = None
    _STATE["timeout"] = None
    if obs_config is not None:
        # Child process: mirror the parent's observability settings.
        TRACER.reset()
        TRACER.enabled = bool(obs_config.get("trace", False))
        level = obs_config.get("log_level")
        if level is not None:
            configure_logging(level)
        profile_hz = obs_config.get("profile_hz")
        if profile_hz:
            # Child process: sample this worker's own main thread and
            # ship the folded stacks back with each task result.
            PROFILER.enable(profile_hz)
        decisions = obs_config.get("decisions")
        if decisions is not None:
            DECISIONS.configure(**decisions)
            DECISIONS.enable()
        _STATE["faults"] = obs_config.get("faults")
        _STATE["timeout"] = obs_config.get("timeout")


def worker_catalog() -> Catalog:
    """The catalog this worker process was initialised with."""
    return _STATE["catalog"]


def worker_payload() -> dict[str, Any]:
    """The experiment payload this worker process was initialised with."""
    return _STATE["payload"]


def _maybe_inject(
    faults: "FaultPlan | None",
    index: int,
    attempt: int,
    allow_kill: bool,
) -> None:
    """Carry out the (deterministic) injected fault for this attempt."""
    if faults is None:
        return
    kind = faults.decide(index, attempt)
    if kind is None:
        return
    METRICS.counter("engine.faults_injected").inc()
    logger.info(
        "injecting %s fault into task %d attempt %d", kind, index, attempt
    )
    apply_fault(kind, faults.hang_seconds, allow_kill=allow_kill)


def _instrumented_call(task: tuple[int, Any, int]):
    """One task attempt in a worker: run it, ship result + spans + metrics.

    The registry is reset per attempt so each snapshot is exactly this
    attempt's delta; the parent merges only successful deltas, which
    sums to the same totals the serial path accumulates directly.
    """
    index, item, attempt = task
    worker = _STATE["worker"]
    METRICS.reset()
    TRACER.reset()
    if PROFILER.enabled:
        PROFILER.reset()
    DECISIONS.begin_task(index)
    with span(_STATE["task_span"], index=index):
        with time_limit(_STATE.get("timeout")):
            _maybe_inject(
                _STATE.get("faults"), index, attempt, allow_kill=True
            )
            result = worker(item)
    profile = PROFILER.snapshot() if PROFILER.enabled else None
    return (
        result, TRACER.export(), METRICS.snapshot(), profile,
        DECISIONS.take_task(),
    )


@dataclass
class _TaskState:
    """Parent-side bookkeeping for one not-yet-finished task."""

    index: int
    item: Any
    label: str
    attempt: int = 0
    #: Earliest monotonic time the next attempt may be submitted
    #: (backoff); 0.0 = immediately.
    ready_at: float = 0.0
    #: Monotonic deadline of the in-flight attempt (None = no timeout).
    deadline: "float | None" = None


class _Scheduler:
    """Shared retry/skip/abort bookkeeping for both execution paths.

    With a ``consume`` callback the scheduler is a *streaming* sink:
    finished results enter a reorder buffer and are emitted to
    ``consume(index, item, result)`` in strict task-index order as the
    watermark advances — never materialised in a results dict.  Tasks
    that ultimately fail under ``on_error=skip`` become holes the
    watermark steps over.  Without ``consume`` the historical contract
    holds: results collect in input order and come back as a list.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        report: TaskRunReport,
        journal: "RunJournal | None",
        progress: Any,
        consume: "Callable[[int, Any, Any], None] | None" = None,
        skip_before: int = 0,
    ) -> None:
        self.policy = policy
        self.report = report
        self.journal = journal
        self.progress = progress
        self.consume = consume
        self.results: dict[int, Any] = {}
        #: Next index to hand to ``consume`` (streaming mode only).
        self.watermark = skip_before
        self._buffer: dict[int, tuple[Any, Any, Any]] = {}
        self._holes: set[int] = set()
        #: Batch-mode decision deltas, merged in index order at the end
        #: so any ``--jobs`` value folds the sample identically.
        self._decisions: dict[int, Any] = {}

    def succeed(
        self, state: _TaskState, result: Any, decisions: Any = None
    ) -> None:
        self.report.completed += 1
        if self.journal is not None:
            self.journal.store(state.index, result)
            if decisions is not None:
                self.journal.store_decisions(state.index, decisions)
        self._deliver(state.index, state.item, result, decisions)
        if self.progress is not None:
            self.progress.advance()

    def resume(self, index: int, item: Any, result: Any) -> None:
        self.report.completed += 1
        self.report.resumed += 1
        decisions = None
        if self.journal is not None and DECISIONS.enabled:
            decisions = self.journal.load_decisions(index)
        self._deliver(index, item, result, decisions)
        if self.progress is not None:
            self.progress.advance()

    def skip_absorbed(self, index: int) -> None:
        """A task below the snapshot watermark: its result is already
        folded into the resumed accumulator, so it is counted as
        resumed without being re-read or re-absorbed."""
        self.report.completed += 1
        self.report.resumed += 1
        if self.progress is not None:
            self.progress.advance()

    def _deliver(
        self, index: int, item: Any, result: Any, decisions: Any = None
    ) -> None:
        if self.consume is None:
            self.results[index] = result
            if decisions is not None:
                self._decisions[index] = decisions
            return
        self._buffer[index] = (item, result, decisions)
        self._drain()

    def _hole(self, index: int) -> None:
        """A permanently skipped task: advance the watermark past it."""
        if self.consume is not None:
            self._holes.add(index)
            self._drain()

    def _drain(self) -> None:
        while True:
            entry = self._buffer.pop(self.watermark, None)
            if entry is not None:
                # Decision deltas merge in strict watermark order, so
                # the fold order (and the bottom-k sample) is the same
                # for serial, --jobs N and resumed runs.
                if entry[2] is not None:
                    DECISIONS.merge(entry[2])
                self.consume(self.watermark, entry[0], entry[1])
                self.watermark += 1
            elif self.watermark in self._holes:
                self._holes.discard(self.watermark)
                self.watermark += 1
            else:
                return

    def flush_decisions(self) -> None:
        """Batch mode: fold buffered decision deltas in index order."""
        for index in sorted(self._decisions):
            DECISIONS.merge(self._decisions.pop(index))

    def fail(self, state: _TaskState, exc: BaseException) -> "float | None":
        """Handle one failed attempt.

        Returns the backoff delay when the task should be retried,
        None when it was skipped, and re-raises under ``abort``.
        """
        state.attempt += 1
        if state.attempt < self.policy.max_attempts:
            self.report.retried += 1
            METRICS.counter("engine.task_retries").inc()
            delay = self.policy.delay(state.index, state.attempt)
            logger.warning(
                "task %s attempt %d/%d failed (%s: %s); retrying "
                "in %.2fs",
                state.label, state.attempt, self.policy.max_attempts,
                type(exc).__name__, exc, delay,
            )
            return delay
        if self.policy.on_error == "skip":
            METRICS.counter("engine.task_failures").inc()
            failure = TaskFailure(
                index=state.index,
                label=state.label,
                error=f"{type(exc).__name__}: {exc}",
                attempts=state.attempt,
            )
            self.report.failures.append(failure)
            logger.warning(
                "task %s failed after %d attempt(s); skipping (%s)",
                state.label, state.attempt, failure.error,
            )
            self._hole(state.index)
            if self.progress is not None:
                self.progress.advance()
            return None
        raise exc

    def ordered_results(self) -> list[Any]:
        return [self.results[i] for i in sorted(self.results)]


def _run_serial(
    worker: Callable[[Any], Any],
    states: "Iterable[_TaskState]",
    task_span: str,
    faults: "FaultPlan | None",
    sched: _Scheduler,
) -> None:
    """In-process execution with the same retry/skip/timeout semantics.

    ``kill`` faults degrade to exceptions here (killing the only
    process would end the run, not exercise recovery), and backoff
    sleeps block — both are inherent to running in-process.
    """
    policy = sched.policy
    for state in states:
        while True:
            # Route decisions into a per-task buffer so only the
            # successful attempt contributes (same contract as
            # metrics/spans) and serial runs fold deltas exactly like
            # --jobs N runs do.
            DECISIONS.begin_task(state.index)
            try:
                with span(task_span, index=state.index):
                    with time_limit(policy.task_timeout):
                        _maybe_inject(
                            faults, state.index, state.attempt,
                            allow_kill=False,
                        )
                        result = worker(state.item)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                DECISIONS.take_task()  # drop the failed attempt
                delay = sched.fail(state, exc)
                if delay is None:
                    break
                time.sleep(delay)
                continue
            sched.succeed(state, result, decisions=DECISIONS.take_task())
            break


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly wedged) pool down without waiting on it."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - racing exit
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_pool(
    worker: Callable[[Any], Any],
    states: "Iterable[_TaskState]",
    jobs: int,
    catalog_spec: "Catalog | float",
    payload: Mapping[str, Any],
    task_span: str,
    faults: "FaultPlan | None",
    sched: _Scheduler,
    workers: "int | None" = None,
    reorder_cap: "int | None" = None,
) -> None:
    """Process-pool execution with retries and a dead-worker detector.

    At most one task is in flight per worker, so a submitted attempt
    is running (not queued) and its parent-side deadline is
    meaningful.  A broken pool (worker died) is respawned and the
    in-flight attempts rescheduled; overdue attempts (timeout plus
    grace with no word from the worker) terminate the pool the same
    way.

    ``states`` is pulled lazily, in index order, so a lazy task source
    is never materialised.  In streaming mode ``reorder_cap`` bounds
    how far ahead of the scheduler's watermark new tasks may be
    pulled — the reorder buffer (results finished out of order but not
    yet consumable) can therefore never exceed ``reorder_cap``
    entries, which is what keeps a million-task sweep's memory flat.
    """
    policy = sched.policy
    obs_config = {
        "trace": TRACER.enabled,
        "log_level": configured_log_level(),
        "profile_hz": PROFILER.hz if PROFILER.enabled else None,
        "decisions": (
            {
                "sample_k": DECISIONS.sample_k,
                "epsilon": DECISIONS.epsilon,
                "seed": DECISIONS.seed,
            }
            if DECISIONS.enabled else None
        ),
        "faults": faults,
        "timeout": policy.task_timeout,
    }
    if workers is None:
        workers = jobs
    initargs = (catalog_spec, payload, worker, task_span, obs_config)

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=initargs,
        )

    source = iter(states)
    exhausted = False
    last_pulled = -1
    pending: deque[_TaskState] = deque()
    in_flight: dict[Any, _TaskState] = {}

    def refill() -> None:
        """Pull new tasks while worker slots could use them.

        Stops at the reorder cap: a task more than ``reorder_cap``
        indices ahead of the watermark stays unpulled until the
        stream catches up.
        """
        nonlocal exhausted, last_pulled
        while (
            not exhausted
            and len(pending) + len(in_flight) < workers
        ):
            if (
                reorder_cap is not None
                and (pending or in_flight)
                and last_pulled + 1 - sched.watermark >= reorder_cap
            ):
                # Cap reached with work still outstanding; with no
                # work outstanding the stream has fully drained, so
                # pulling is always allowed (progress guarantee).
                return
            try:
                state = next(source)
            except StopIteration:
                exhausted = True
                return
            last_pulled = state.index
            pending.append(state)

    pool = make_pool()

    def reschedule(state: _TaskState, exc: BaseException) -> None:
        delay = sched.fail(state, exc)  # raises under abort
        if delay is not None:
            state.ready_at = time.monotonic() + delay
            pending.append(state)

    def crash_in_flight(message: str) -> None:
        crashed = list(in_flight.values())
        in_flight.clear()
        for state in crashed:
            reschedule(state, WorkerCrash(message))

    try:
        while True:
            refill()
            if not pending and not in_flight:
                break  # refill pulls whenever work remains
            now = time.monotonic()
            # Submit every ready task while a worker slot is free.
            submitted_any = False
            for _ in range(len(pending)):
                if len(in_flight) >= workers:
                    break
                state = pending.popleft()
                if state.ready_at > now:
                    pending.append(state)
                    continue
                try:
                    future = pool.submit(
                        _instrumented_call,
                        (state.index, state.item, state.attempt),
                    )
                except BrokenProcessPool:
                    pending.append(state)
                    crash_in_flight("worker process died (broken pool)")
                    pool = make_pool()
                    break
                if policy.task_timeout:
                    state.deadline = (
                        now + policy.task_timeout + _DEADLINE_GRACE
                    )
                in_flight[future] = state
                submitted_any = True
            if not in_flight:
                if pending and not submitted_any:
                    # Everything is backing off; sleep to the nearest
                    # ready time instead of spinning.
                    wake = min(s.ready_at for s in pending)
                    time.sleep(
                        min(max(wake - time.monotonic(), 0.0), 1.0)
                        + 0.001
                    )
                continue
            done, _ = wait(
                set(in_flight),
                timeout=_POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            broken = False
            for future in done:
                state = in_flight.pop(future)
                try:
                    (result, spans, snapshot, profile,
                     decisions) = future.result()
                except BrokenProcessPool:
                    reschedule(
                        state, WorkerCrash("worker process died mid-task")
                    )
                    broken = True
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    reschedule(state, exc)
                else:
                    TRACER.graft(spans)
                    METRICS.merge(snapshot)
                    PROFILER.merge(profile)
                    sched.succeed(state, result, decisions=decisions)
            if broken:
                crash_in_flight("worker process died (broken pool)")
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
                continue
            # Dead-worker backstop: in-flight attempts past their
            # deadline mean a worker too wedged to raise its own
            # SIGALRM timeout — kill the pool and reschedule.
            now = time.monotonic()
            overdue = [
                state for state in in_flight.values()
                if state.deadline is not None and now > state.deadline
            ]
            if overdue:
                METRICS.counter("engine.pool_respawns").inc()
                logger.warning(
                    "%d in-flight task(s) exceeded the task timeout "
                    "with no word from their worker; respawning the "
                    "pool", len(overdue),
                )
                _kill_pool(pool)
                stale = list(in_flight.values())
                in_flight.clear()
                for state in stale:
                    reschedule(
                        state,
                        TaskTimeout(
                            f"task exceeded --task-timeout "
                            f"{policy.task_timeout:g}s (worker "
                            "unresponsive)"
                        ),
                    )
                pool = make_pool()
    except BaseException:
        _kill_pool(pool)
        raise
    pool.shutdown()


def parallel_map(
    worker: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: int = 1,
    catalog_spec: "Catalog | float" = 100.0,
    payload: "Mapping[str, Any] | None" = None,
    task_span: str = "parallel.task",
    progress: Any = None,
    policy: "RetryPolicy | None" = None,
    faults: "FaultPlan | None" = None,
    journal: "RunJournal | None" = None,
    labels: "Sequence[str] | Callable[[int], str] | None" = None,
    report: "TaskRunReport | None" = None,
    consume: "Callable[[int, Any, Any], None] | None" = None,
    skip_before: int = 0,
) -> list[Any]:
    """Map ``worker`` over ``items``, optionally across processes.

    ``worker`` must be a module-level function (picklable) that reads
    the catalog and payload via :func:`worker_catalog` /
    :func:`worker_payload`.  ``catalog_spec`` is either a TPC-H scale
    factor (each worker builds its own catalog — cheap, and avoids
    pickling assumptions) or a prebuilt :class:`Catalog` for callers
    that customised statistics.  ``task_span`` names the per-item span
    recorded around each task (identical for serial and parallel runs).
    ``progress`` is an optional task-completion sink (anything with an
    ``advance()`` method — normally a
    :class:`~repro.obs.progress.ProgressTask`), advanced once per
    finished item on the parent process for both execution paths.

    The resilience knobs are all optional and default to the
    historical semantics (fail fast, no faults, no checkpointing):
    ``policy`` governs retries/timeouts/skips, ``faults`` injects
    deterministic failures, ``journal`` persists finished tasks and
    serves already-journaled ones without executing them, ``labels``
    names tasks in logs and the failure report, and ``report``
    (mutated in place) receives the per-task outcome accounting.

    Streaming mode: with a ``consume`` callback, finished results are
    handed to ``consume(index, item, result)`` in strict task-index
    order (via a bounded reorder buffer) instead of being collected —
    ``items`` may then be an arbitrarily long lazy iterable, pulled on
    demand, and the return value is an empty list.  ``skip_before``
    marks a prefix of indices as already absorbed by a resumed
    accumulator snapshot: they are counted as resumed without being
    loaded or consumed.  ``labels`` may be a callable ``index ->
    label`` so lazy sources need no label list.

    Returns the successful results in input order; under
    ``on_error=skip``, ultimately-failed tasks are simply absent (the
    holes are listed in ``report.failures``).
    """
    streaming = consume is not None
    if not streaming:
        items = list(items)
    payload = payload or {}
    policy = policy or RetryPolicy()
    if report is None:
        report = TaskRunReport()
    if not streaming:
        report.planned += len(items)
    sched = _Scheduler(
        policy, report, journal, progress,
        consume=consume, skip_before=skip_before,
    )

    def label_for(index: int) -> str:
        if labels is None:
            return f"task-{index}"
        if callable(labels):
            return labels(index)
        return labels[index]

    def states() -> "Iterable[_TaskState]":
        # Serve journaled results first: a resumed task never reaches
        # a worker at all, and a task below the snapshot watermark is
        # never even loaded.
        for index, item in enumerate(items):
            if streaming:
                report.planned += 1
                if index < skip_before:
                    sched.skip_absorbed(index)
                    continue
            if journal is not None:
                hit, value = journal.load(index)
                if hit:
                    sched.resume(index, item, value)
                    continue
            yield _TaskState(
                index=index, item=item, label=label_for(index)
            )

    if not streaming:
        runnable = list(states())
        if runnable:
            if jobs <= 1 or len(runnable) <= 1:
                _init_worker(catalog_spec, payload)
                _run_serial(worker, runnable, task_span, faults, sched)
            else:
                _run_pool(
                    worker, runnable, jobs, catalog_spec, payload,
                    task_span, faults, sched,
                    workers=min(jobs, len(runnable)),
                )
        sched.flush_decisions()
        return sched.ordered_results()

    if jobs <= 1:
        _init_worker(catalog_spec, payload)
        _run_serial(worker, states(), task_span, faults, sched)
    else:
        _run_pool(
            worker, states(), jobs, catalog_spec, payload,
            task_span, faults, sched,
            workers=jobs,
            reorder_cap=max(4 * jobs, 64),
        )
    return []
