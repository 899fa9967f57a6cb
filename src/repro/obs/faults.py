"""Deterministic fault injection, retry policy and task timeouts.

A crashed or hung worker used to abort an entire figure/census sweep
and throw away every finished task.  Making the engine survivable
first requires making failure *testable*: this module provides a
seeded, fully deterministic fault-injection harness plus the policy
objects the executor consults when a task goes wrong.

* :class:`FaultPlan` — parsed from a spec string such as
  ``"kill:0.2,raise:0.1,hang:0.05"`` (CLI ``--inject-faults``).
  Every decision is a pure
  function of ``(seed, task_index, attempt)`` — no global RNG is ever
  touched — so a rerun with the same seed injects exactly the same
  faults, and a worker process reaches the same verdict as the parent
  would.
* :class:`RetryPolicy` — per-task retries with exponential backoff
  (jitter derived from the same seeded hash, so the retry *schedule*
  is reproducible too), an optional per-task timeout, and the
  ``on_error`` mode (``abort``/``retry``/``skip``) that decides what
  happens when attempts are exhausted.
* :func:`time_limit` — a SIGALRM-based deadline that raises
  :class:`TaskTimeout` inside the running task, so a hung task is
  interrupted instead of wedging its worker forever.

Everything here is stdlib-only: the obs layer stays at rank 0 of the
import DAG and any layer above may use it.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FAULT_KINDS",
    "ON_ERROR_MODES",
    "FaultSpecError",
    "InjectedFault",
    "TaskTimeout",
    "FaultPlan",
    "RetryPolicy",
    "apply_fault",
    "backoff_delay",
    "fault_roll",
    "time_limit",
]

#: The injectable failure modes, in cumulative-probability order.
FAULT_KINDS = ("raise", "hang", "kill")

#: What the executor does once a task's attempts are exhausted.
ON_ERROR_MODES = ("abort", "retry", "skip")

#: Exit status of a worker killed by an injected ``kill`` fault —
#: distinctive on purpose, so a post-mortem can tell an injected death
#: from a real one.
KILL_EXIT_CODE = 77


class FaultSpecError(ValueError):
    """A ``--inject-faults`` spec that does not parse."""


class InjectedFault(RuntimeError):
    """The error raised by an injected ``raise`` (or degraded) fault."""


class TaskTimeout(RuntimeError):
    """A task exceeded its ``--task-timeout`` deadline."""


def fault_roll(seed: int, salt: str, task_index: int, attempt: int) -> float:
    """A deterministic uniform draw in ``[0, 1)``.

    The single source of randomness for fault decisions and backoff
    jitter: a SHA-256 of ``seed:salt:task_index:attempt``.  Pure, so
    parent and worker processes agree without sharing RNG state.
    """
    material = f"{seed}:{salt}:{task_index}:{attempt}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of injected failures.

    ``rates`` maps each fault kind to its per-attempt probability; the
    decision for one ``(task_index, attempt)`` pair never changes for
    a given seed.  ``hang_seconds`` bounds how long an injected hang
    sleeps — after that it surfaces as :class:`InjectedFault` rather
    than wedging an un-timed-out run forever.
    """

    rates: tuple[tuple[str, float], ...] = ()
    seed: int = 0
    hang_seconds: float = 3600.0

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a spec such as ``"kill:0.2,raise:0.1,hang=30"``.

        Grammar: comma-separated entries, each either ``KIND:RATE``
        (``raise``/``hang``/``kill``, rate in ``[0, 1]``) or
        ``hang=SECONDS`` to bound injected hangs.  Kinds may appear at
        most once and the rates may sum to at most 1.
        """
        rates: dict[str, float] = {}
        hang_seconds = 3600.0
        for raw_entry in spec.split(","):
            entry = raw_entry.strip()
            if not entry:
                continue
            if entry.startswith("hang="):
                try:
                    hang_seconds = float(entry[len("hang="):])
                except ValueError:
                    raise FaultSpecError(
                        f"bad hang duration {entry!r}; expected "
                        "hang=SECONDS"
                    ) from None
                if hang_seconds <= 0:
                    raise FaultSpecError(
                        "hang duration must be positive"
                    )
                continue
            kind, sep, rate_text = entry.partition(":")
            kind = kind.strip()
            if not sep or kind not in FAULT_KINDS:
                raise FaultSpecError(
                    f"bad fault entry {entry!r}; expected KIND:RATE "
                    f"with KIND one of {', '.join(FAULT_KINDS)} "
                    "(or hang=SECONDS)"
                )
            if kind in rates:
                raise FaultSpecError(
                    f"fault kind {kind!r} given more than once"
                )
            try:
                rate = float(rate_text)
            except ValueError:
                raise FaultSpecError(
                    f"bad fault rate {rate_text!r} for {kind!r}; "
                    "expected a number in [0, 1]"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(
                    f"fault rate for {kind!r} must be in [0, 1], "
                    f"got {rate:g}"
                )
            rates[kind] = rate
        if sum(rates.values()) > 1.0 + 1e-9:
            raise FaultSpecError(
                f"fault rates sum to {sum(rates.values()):g} > 1"
            )
        ordered = tuple(
            (kind, rates[kind]) for kind in FAULT_KINDS if kind in rates
        )
        return cls(rates=ordered, seed=seed, hang_seconds=hang_seconds)

    def describe(self) -> str:
        """The canonical spec string (manifest/log form)."""
        parts = [f"{kind}:{rate:g}" for kind, rate in self.rates]
        if self.hang_seconds != 3600.0:
            parts.append(f"hang={self.hang_seconds:g}")
        return ",".join(parts)

    def decide(self, task_index: int, attempt: int) -> "str | None":
        """The fault (if any) for one execution of one task.

        Deterministic: the same ``(seed, task_index, attempt)`` always
        yields the same verdict, in any process.
        """
        if not self.rates:
            return None
        roll = fault_roll(self.seed, "fault", task_index, attempt)
        edge = 0.0
        for kind, rate in self.rates:
            edge += rate
            if roll < edge:
                return kind
        return None


def apply_fault(
    kind: str,
    hang_seconds: float = 3600.0,
    allow_kill: bool = True,
) -> None:
    """Carry out one injected fault.

    ``raise`` raises :class:`InjectedFault`; ``hang`` sleeps (an
    active :func:`time_limit` interrupts it with :class:`TaskTimeout`,
    otherwise it surfaces as :class:`InjectedFault` after
    ``hang_seconds``); ``kill`` hard-exits the process —  the worker
    dies without cleanup, exactly like a segfault or an OOM kill.
    With ``allow_kill=False`` (serial, in-process execution) a kill
    degrades to a raise, since killing the only process would take the
    whole run down rather than exercise recovery.
    """
    if kind == "raise":
        raise InjectedFault("injected task exception")
    if kind == "hang":
        time.sleep(hang_seconds)
        raise InjectedFault(
            f"injected hang expired after {hang_seconds:g}s"
        )
    if kind == "kill":
        if allow_kill:
            os._exit(KILL_EXIT_CODE)
        raise InjectedFault(
            "injected worker kill (degraded to an exception: task ran "
            "in-process)"
        )
    raise ValueError(f"unknown fault kind {kind!r}")


def backoff_delay(
    attempt: int,
    base: float = 0.05,
    cap: float = 30.0,
    seed: int = 0,
    task_index: int = 0,
) -> float:
    """Jittered exponential backoff before retry number ``attempt``.

    ``base * 2**(attempt-1)`` capped at ``cap``, scaled by a
    deterministic jitter factor in ``[0.5, 1.0)`` drawn from the
    seeded hash — so the whole retry schedule of a run is a pure
    function of its seed.
    """
    if attempt < 1:
        raise ValueError("attempt counts from 1")
    raw = min(float(cap), float(base) * (2.0 ** (attempt - 1)))
    jitter = 0.5 + 0.5 * fault_roll(seed, "backoff", task_index, attempt)
    return raw * jitter


@dataclass(frozen=True)
class RetryPolicy:
    """What the executor does when a task raises, hangs or dies.

    ``on_error`` semantics:

    * ``abort`` (default) — the first failure aborts the run
      immediately; ``retries`` is ignored.  The historical behaviour.
    * ``retry`` — re-run the task up to ``retries`` times with
      backoff; abort if it still fails.
    * ``skip`` — retry the same way, but a task that exhausts its
      attempts is recorded as failed and the sweep continues without
      it (the manifest lists the holes).

    ``task_timeout`` bounds one attempt's wall time; ``seed`` drives
    the deterministic backoff jitter.
    """

    on_error: str = "abort"
    retries: int = 2
    task_timeout: "float | None" = None
    backoff_base: float = 0.05
    backoff_cap: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"unknown on_error mode {self.on_error!r}; choose "
                + ", ".join(ON_ERROR_MODES)
            )
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be >= 0")

    @property
    def max_attempts(self) -> int:
        """Total executions allowed per task (1 under ``abort``)."""
        return 1 if self.on_error == "abort" else self.retries + 1

    def delay(self, task_index: int, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` of a task."""
        return backoff_delay(
            attempt,
            base=self.backoff_base,
            cap=self.backoff_cap,
            seed=self.seed,
            task_index=task_index,
        )


def _can_alarm() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def time_limit(seconds: "float | None") -> Iterator[None]:
    """Raise :class:`TaskTimeout` if the body runs past ``seconds``.

    Implemented with ``SIGALRM``/``setitimer``, so it interrupts pure
    sleeps and Python loops alike.  A no-op when ``seconds`` is None,
    on platforms without ``SIGALRM``, or off the main thread (worker
    processes run tasks on their main thread, so the limit is always
    armed where it matters).
    """
    if not seconds or seconds <= 0 or not _can_alarm():
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise TaskTimeout(f"task exceeded --task-timeout {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
