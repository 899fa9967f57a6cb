"""Checkpoint/resume journal: per-task results in a run directory.

A 20-minute sweep that dies at task 19 of 22 used to lose everything.
The journal makes completed work durable: as the engine finishes each
task it pickles the result into a *content-addressed run directory*,
and ``--resume`` replays those entries instead of re-executing the
tasks — producing digests identical to an uninterrupted run.

The run id is a SHA-256 over everything that determines the task
results (experiment name, its frozen params dataclass, the system
cost-model parameters, the catalog digest, the run seed, package and
format versions).  Content addressing is the safety property: a resume
can only ever pick up results computed under the *same* configuration,
and passing an explicit ``--resume RUN_ID`` that does not match the
current configuration is rejected rather than silently mixed.

Layout (under ``<cache-root>/runs`` by default, next to the plan
cache)::

    <root>/<run_id>/meta.json        # human-readable provenance
    <root>/<run_id>/task-<index>.pkl # one atomic pickle per task
    <root>/<run_id>/acc.pkl          # latest accumulator snapshot

The accumulator snapshot is the streaming-reducer checkpoint: it
holds the reducer state after absorbing every task below its
watermark, so a resumed run replays one pickle instead of every
per-task artifact — and the engine prunes the absorbed per-task
pickles, keeping a million-task journal directory small.  A corrupt
or missing snapshot degrades gracefully to per-task replay (or
recomputation, for pruned tasks).

Writes reuse the :mod:`~repro.optimizer.plancache` atomic-write
machinery (temp file + ``os.replace``), so a SIGKILL mid-write never
leaves a half-entry a resume would trip over; corrupt entries are
treated as unfinished tasks and recomputed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
from pathlib import Path
from typing import Any

from ..obs.metrics import METRICS
from ..optimizer.config import SystemParameters
from ..optimizer.plancache import (
    PICKLE_LOAD_ERRORS,
    atomic_write_pickle,
    default_cache_dir,
)

__all__ = ["RunJournal", "run_key"]

logger = logging.getLogger(__name__)

#: Bump when the journal payload or key material changes shape.  v2:
#: journaled decision deltas lost their lookup-path fields, so a v1
#: journal must not resume into a v2 run's decision records.
_FORMAT_VERSION = 2

#: Bump when the accumulator-snapshot payload changes shape.
_SNAPSHOT_VERSION = 1


def _params_material(params: Any) -> Any:
    """A JSON-able fingerprint of an experiment params object."""
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        return {
            key: repr(value)
            for key, value in sorted(
                dataclasses.asdict(params).items()
            )
        }
    return repr(params)


def run_key(
    experiment: str,
    params: Any,
    system_params: SystemParameters,
    catalog_sha: "str | None",
    seed: int = 0,
) -> str:
    """SHA-256 run id over everything that determines task results."""
    from .. import __version__

    material = json.dumps(
        {
            "format": _FORMAT_VERSION,
            "version": __version__,
            "experiment": experiment,
            "params": _params_material(params),
            "system_params": _params_material(system_params),
            "catalog": catalog_sha,
            "seed": seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()


def default_journal_root() -> Path:
    """``<cache dir>/runs`` — journals live next to the plan cache."""
    return Path(default_cache_dir()) / "runs"


class RunJournal:
    """The checkpoint store of one content-addressed run directory."""

    #: Sentinel distinguishing "no entry" from a journaled ``None``.
    _MISSING = object()

    def __init__(
        self, run_id: str, root: "str | os.PathLike | None" = None
    ) -> None:
        self.run_id = run_id
        self.root = (
            Path(root) if root is not None else default_journal_root()
        )
        self.dir = self.root / run_id

    def task_path(self, index: int) -> Path:
        return self.dir / f"task-{index}.pkl"

    def decisions_path(self, index: int) -> Path:
        return self.dir / f"decisions-{index}.pkl"

    def write_meta(
        self, experiment: str, n_tasks: "int | None" = None
    ) -> None:
        """Record human-readable provenance once per run directory."""
        meta = self.dir / "meta.json"
        if meta.exists():
            return
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            meta.write_text(
                json.dumps(
                    {
                        "run_id": self.run_id,
                        "experiment": experiment,
                        "n_tasks": n_tasks,
                        "journal_format": _FORMAT_VERSION,
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
        except OSError as exc:
            logger.warning(
                "could not write journal meta %s (%s: %s)",
                meta, type(exc).__name__, exc,
            )

    def load(self, index: int) -> tuple[bool, Any]:
        """``(True, result)`` for a journaled task, ``(False, None)``
        for an unfinished (or corrupt — recompute) one."""
        path = self.task_path(index)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return False, None
        except PICKLE_LOAD_ERRORS as exc:
            METRICS.counter("engine.journal_corrupt").inc()
            logger.warning(
                "corrupt journal entry %s (%s: %s); re-running the task",
                path, type(exc).__name__, exc,
            )
            return False, None
        if payload is self._MISSING:  # pragma: no cover - paranoia
            return False, None
        METRICS.counter("engine.journal_hits").inc()
        return True, payload

    def store(self, index: int, result: Any) -> None:
        """Atomically journal one finished task (best effort)."""
        path = self.task_path(index)
        try:
            atomic_write_pickle(path, result)
        except (OSError, TypeError, AttributeError) as exc:
            # Unwritable filesystem or an unpicklable result must never
            # fail the experiment — the run just loses resumability.
            METRICS.counter("engine.journal_store_errors").inc()
            logger.warning(
                "could not journal task %d to %s (%s: %s)",
                index, path, type(exc).__name__, exc,
            )
            return
        METRICS.counter("engine.journal_stores").inc()

    # ------------------------------------------------------------------
    # Decision-provenance side files (``--decisions`` + checkpointing)
    # ------------------------------------------------------------------
    def store_decisions(self, index: int, delta: Any) -> None:
        """Journal one task's decision-log delta next to its result.

        Best effort, like :meth:`store` — losing a side file costs a
        resumed run its decision telemetry for that task, never the
        task result itself.
        """
        path = self.decisions_path(index)
        try:
            atomic_write_pickle(path, delta)
        except (OSError, TypeError, AttributeError) as exc:
            METRICS.counter("engine.decisions_store_errors").inc()
            logger.warning(
                "could not journal decisions for task %d to %s "
                "(%s: %s)",
                index, path, type(exc).__name__, exc,
            )

    def load_decisions(self, index: int) -> Any:
        """The journaled decision delta for a task, or ``None`` when
        absent/corrupt (replayed tasks then simply contribute no
        decision telemetry)."""
        path = self.decisions_path(index)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except PICKLE_LOAD_ERRORS as exc:
            METRICS.counter("engine.decisions_corrupt").inc()
            logger.warning(
                "corrupt decisions entry %s (%s: %s); dropping it",
                path, type(exc).__name__, exc,
            )
            return None

    # ------------------------------------------------------------------
    # Accumulator snapshots (streaming-reducer checkpoints)
    # ------------------------------------------------------------------
    def snapshot_path(self) -> Path:
        return self.dir / "acc.pkl"

    def store_snapshot(
        self, watermark: int, acc: Any, decisions: Any = None
    ) -> None:
        """Atomically persist the reducer state below ``watermark``.

        Only the latest snapshot is kept — it subsumes every earlier
        one.  Best effort, like :meth:`store`: an unpicklable
        accumulator or a read-only filesystem costs resumability, not
        the run.  ``decisions`` optionally rides along (the decision
        log's merged state at the watermark), so snapshot-pruned
        tasks' decision telemetry survives a resume; old snapshots
        without the key load fine (``payload.get``).
        """
        payload = {
            "format": _SNAPSHOT_VERSION,
            "watermark": int(watermark),
            "acc": acc,
        }
        if decisions is not None:
            payload["decisions"] = decisions
        try:
            atomic_write_pickle(self.snapshot_path(), payload)
        except (OSError, TypeError, AttributeError) as exc:
            METRICS.counter("engine.snapshot_store_errors").inc()
            logger.warning(
                "could not snapshot accumulator at watermark %d to "
                "%s (%s: %s)",
                watermark, self.snapshot_path(),
                type(exc).__name__, exc,
            )
            return
        METRICS.counter("engine.snapshot_stores").inc()

    def load_snapshot(self) -> tuple[int, Any, Any]:
        """``(watermark, accumulator, decisions)``; ``(0, None, None)``
        when absent.

        A corrupt or format-mismatched snapshot is treated as absent
        (the run falls back to per-task replay/recomputation).  The
        third slot is the decision-log state stored alongside the
        accumulator, ``None`` for snapshots taken without
        ``--decisions``.
        """
        path = self.snapshot_path()
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return 0, None, None
        except PICKLE_LOAD_ERRORS as exc:
            METRICS.counter("engine.snapshot_corrupt").inc()
            logger.warning(
                "corrupt accumulator snapshot %s (%s: %s); falling "
                "back to per-task replay",
                path, type(exc).__name__, exc,
            )
            return 0, None, None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _SNAPSHOT_VERSION
            or not isinstance(payload.get("watermark"), int)
            or payload["watermark"] <= 0
        ):
            METRICS.counter("engine.snapshot_corrupt").inc()
            return 0, None, None
        METRICS.counter("engine.snapshot_hits").inc()
        return (
            payload["watermark"],
            payload.get("acc"),
            payload.get("decisions"),
        )

    def prune_tasks_below(self, watermark: int) -> int:
        """Delete per-task entries a snapshot has absorbed; returns
        how many were removed (best effort).  Decision side files are
        pruned with their task — the snapshot's ``decisions`` payload
        subsumes them."""
        removed = 0
        for index in sorted(self.completed()):
            if index >= watermark:
                continue
            try:
                self.task_path(index).unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
            try:
                self.decisions_path(index).unlink()
            except OSError:
                pass
        if removed:
            METRICS.counter("engine.journal_pruned").inc(removed)
        return removed

    def completed(self) -> set[int]:
        """Indices with a journal entry on disk (corrupt ones count —
        :meth:`load` re-vets them before use)."""
        found = set()
        if not self.dir.is_dir():
            return found
        for path in self.dir.glob("task-*.pkl"):
            stem = path.stem[len("task-"):]
            if stem.isdigit():
                found.add(int(stem))
        return found
