"""Decision provenance: what the optimizer chose, and by how much.

Every plan lookup is an ``argmin(C @ U.T)`` — and the quantities the
paper actually studies are the *by-products* of that argmin: the
runner-up, the relative margin between the two, and the distance from
the probe to the nearest switchover plane.  This module captures them.

``DECISIONS`` is a process-global :class:`DecisionLog`, off by default
and free when off (null-object pattern, same contract as
``trace.TRACER`` and ``progress.PROGRESS``): each instrumented lookup
site makes one call per batch, which returns at once while the log is
off.  When enabled (``--decisions``), that call hands over the
already-materialized totals matrix and the log

* aggregates mergeable fragility statistics per context (margin
  decade-histograms, fraction of probes within ``epsilon`` of a plane,
  wrong-choice counts vs a reference plan), and
* keeps a deterministic bottom-k-by-hash sample of full explain
  records, keyed by ``(task, context, sequence)`` — *values never
  enter the key*, so serial, ``--jobs N``, and checkpoint→resume runs
  retain the identical sample.

State lives in per-task delta buffers (``begin_task``/``take_task``)
that ride the same worker merge channel as metrics and spans; the
parent folds deltas in task-index order, which makes the aggregates
bit-identical for any job count.

Geometry (see ``core/switching.py``): for winner ``w`` and rival ``j``
the switchover plane is ``(U_j - U_w) · C = 0``; the normalized
distance from probe ``C`` to that plane is
``(t_j - t_w) / (‖U_j - U_w‖ · ‖C‖)``, zero exactly on a tie.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from .metrics import Histogram

__all__ = [
    "DECISIONS",
    "DecisionLog",
    "decision_instant_events",
    "explain_probe",
    "margins_from_totals",
    "plane_distances",
    "probe_decision",
    "validate_decision_records",
    "write_decision_records",
]

#: Relative plane distance below which a probe counts as "near" a plane.
DEFAULT_EPSILON = 1e-3
#: Default size of the bottom-k-by-hash record sample.
DEFAULT_SAMPLE_K = 64

#: Margin-decade bucket for exact ties (margin == 0 has no decade).
TIE_DECADE = "tie"


# ----------------------------------------------------------------------
# Margin / plane-distance extraction (vectorized, no second kernel pass)
# ----------------------------------------------------------------------
def margins_from_totals(totals: np.ndarray):
    """Per-row winner, winner/runner-up totals, and relative margins.

    ``margin = (runner_up - winner) / |winner|`` — always >= 0; rows
    whose candidate set has a single plan have no runner-up and get
    ``margin = inf``.  Ties (runner-up total equal to the winner's)
    get exactly ``0.0``.
    """
    totals = np.asarray(totals, dtype=float)
    with np.errstate(invalid="ignore"):
        winners = np.argmin(totals, axis=1)
    rows = np.arange(totals.shape[0])
    winner_totals = totals[rows, winners]
    if totals.shape[1] < 2:
        infinite = np.full(totals.shape[0], np.inf)
        return winners, winner_totals, infinite, infinite.copy()
    runner_totals = np.partition(totals, 1, axis=1)[:, 1]
    gaps = runner_totals - winner_totals
    scale = np.abs(winner_totals)
    # over="ignore": a denormal winner total overflows the quotient to
    # inf, which is exactly the "margin is effectively unbounded" case.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        margins = np.where(
            gaps == 0.0,
            0.0,
            np.where(scale > 0.0, gaps / scale, np.inf),
        )
    return winners, winner_totals, runner_totals, margins


def plane_distances(
    matrix: np.ndarray,
    costs: np.ndarray,
    totals: np.ndarray,
    winners: np.ndarray,
    margins: np.ndarray,
) -> np.ndarray:
    """Normalized distance from each probe to its nearest switchover
    plane: ``min over rivals j of (t_j - t_w) / (‖U_j - U_w‖·‖C‖)``.

    Exactly ``0.0`` iff the probe lies on a plane (``margin == 0``);
    ``inf`` when the candidate set has a single distinct usage vector.
    Rivals are grouped by distinct winner so the whole batch costs one
    pass over the totals that the kernel already produced.
    """
    matrix = np.asarray(matrix, dtype=float)
    costs = np.asarray(costs, dtype=float)
    totals = np.asarray(totals, dtype=float)
    out = np.full(len(costs), np.inf)
    if len(costs) and matrix.shape[0] >= 2:
        cost_norms = np.linalg.norm(costs, axis=1)
        for winner in np.unique(winners):
            rows = np.flatnonzero(winners == winner)
            diffs = matrix - matrix[winner]
            norms = np.linalg.norm(diffs, axis=1)
            rivals = np.flatnonzero(norms > 0.0)
            if not rivals.size:
                continue
            gaps = (
                totals[np.ix_(rows, rivals)]
                - totals[rows, winner][:, None]
            )
            nearest = (gaps / norms[rivals]).min(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                out[rows] = np.where(
                    cost_norms[rows] > 0.0,
                    nearest / cost_norms[rows],
                    np.inf,
                )
        out = np.maximum(out, 0.0)
    return np.where(np.asarray(margins) == 0.0, 0.0, out)


def _probe_decision(
    matrix: np.ndarray, cost: np.ndarray
) -> "tuple[dict[str, Any], np.ndarray]":
    """:func:`probe_decision` and the totals row it was read off."""
    matrix = np.asarray(matrix, dtype=float)
    cost = np.asarray(cost, dtype=float).ravel()
    totals = (cost[None, :] @ matrix.T)[0]
    order = np.argsort(totals, kind="stable")
    winner = int(order[0])
    result: dict[str, Any] = {
        "candidates": int(matrix.shape[0]),
        "winner": winner,
        "winner_total": float(totals[winner]),
        "runner_up": None,
        "runner_up_total": None,
        "margin": None,
        "plane_distance": None,
        "nearest_rival": None,
    }
    if order.size < 2:
        return result, totals
    runner = int(order[1])
    result["runner_up"] = runner
    result["runner_up_total"] = float(totals[runner])
    # The scalar forms of margins_from_totals and plane_distances:
    # the same IEEE operations on the same operands, so the batch
    # extraction reproduces every field bit for bit.
    gap = result["runner_up_total"] - result["winner_total"]
    scale = abs(result["winner_total"])
    if gap == 0.0:
        margin = 0.0
    elif scale > 0.0:
        margin = gap / scale
    else:
        margin = math.inf
    if math.isfinite(margin):
        result["margin"] = margin
    distance = math.inf
    norms = np.linalg.norm(matrix - matrix[winner], axis=1)
    rivals = np.flatnonzero(norms > 0.0)
    if rivals.size:
        scaled = (totals[rivals] - totals[winner]) / norms[rivals]
        nearest = int(np.argmin(scaled))
        result["nearest_rival"] = int(rivals[nearest])
        cost_norm = float(np.linalg.norm(cost[None, :], axis=1)[0])
        if cost_norm > 0.0:
            distance = max(float(scaled[nearest]) / cost_norm, 0.0)
    if margin == 0.0:
        distance = 0.0
    if math.isfinite(distance):
        result["plane_distance"] = distance
    return result, totals


def probe_decision(
    matrix: np.ndarray, cost: np.ndarray
) -> dict[str, Any]:
    """The decision of one dense lookup, from one ``C @ U.T`` product.

    Returns the candidate count, winner and runner-up ids with their
    totals, the relative margin, and the nearest switchover plane
    (rival id + normalized distance) — the fields of a decide
    response.  ``margin`` is None without a runner-up or for a zero
    winner total; ``plane_distance`` is None when no rival has a
    distinct usage vector (0.0 on an exact tie); ``nearest_rival``
    is None then too.
    """
    return _probe_decision(matrix, cost)[0]


def explain_probe(
    matrix: np.ndarray, cost: np.ndarray
) -> dict[str, Any]:
    """:func:`probe_decision` plus the single-coordinate cost
    perturbations that cross the nearest switchover plane."""
    result, totals = _probe_decision(matrix, cost)
    result["crossings"] = []
    nearest = result["nearest_rival"]
    if nearest is None:
        return result
    matrix = np.asarray(matrix, dtype=float)
    cost = np.asarray(cost, dtype=float).ravel()
    winner = result["winner"]

    # Which single-coordinate perturbation of C crosses that plane:
    # solve (U_j - U_w)·C' = 0 varying only coordinate k.
    diff = matrix[nearest] - matrix[winner]
    gap = float(totals[nearest] - totals[winner])
    crossings = []
    for axis in np.flatnonzero(diff != 0.0).tolist():
        delta = -gap / float(diff[axis])
        new_value = float(cost[axis]) + delta
        relative = delta / float(cost[axis]) if cost[axis] else None
        crossings.append({
            "coordinate": int(axis),
            "delta": delta,
            "new_value": new_value,
            "relative": relative,
            "feasible": new_value >= 0.0,
        })
    crossings.sort(
        key=lambda c: (
            c["relative"] is None,
            abs(c["relative"]) if c["relative"] is not None else 0.0,
        )
    )
    result["crossings"] = crossings
    return result


# ----------------------------------------------------------------------
# Deterministic bottom-k-by-hash sampling
# ----------------------------------------------------------------------
def _mix64(lanes: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 lanes (wrapping
    arithmetic — platform-stable, no per-row hashlib cost)."""
    lanes = lanes + np.uint64(0x9E3779B97F4A7C15)
    lanes = (lanes ^ (lanes >> np.uint64(30))) * np.uint64(
        0xBF58476D1CE4E5B9
    )
    lanes = (lanes ^ (lanes >> np.uint64(27))) * np.uint64(
        0x94D049BB133111EB
    )
    return lanes ^ (lanes >> np.uint64(31))


def _context_base(seed: int, task: int, context: str) -> np.uint64:
    digest = hashlib.blake2b(
        f"{seed}|{task}|{context}".encode(), digest_size=8
    ).digest()
    return np.uint64(int.from_bytes(digest, "big"))


def _record_order(record: Mapping[str, Any]):
    return (
        record["sample_hash"], record["task"],
        record["context"], record["seq"],
    )


# ----------------------------------------------------------------------
# Mergeable per-context aggregates
# ----------------------------------------------------------------------
def _context_live() -> dict[str, Any]:
    return {
        "probes": 0,
        "with_reference": 0,
        "wrong": 0,
        "near_plane": 0,
        "margin": Histogram(),
        "decades": {},
    }


def _export_context(ctx: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "probes": ctx["probes"],
        "with_reference": ctx["with_reference"],
        "wrong": ctx["wrong"],
        "near_plane": ctx["near_plane"],
        "margin": ctx["margin"].state(),
        "decades": {
            key: list(pair) for key, pair in ctx["decades"].items()
        },
    }


def _merge_context(
    live: dict[str, Any], exported: Mapping[str, Any]
) -> None:
    for key in ("probes", "with_reference", "wrong", "near_plane"):
        live[key] += int(exported.get(key, 0))
    live["margin"].merge_state(exported.get("margin") or {})
    for decade, pair in (exported.get("decades") or {}).items():
        bucket = live["decades"].setdefault(decade, [0, 0])
        bucket[0] += int(pair[0])
        bucket[1] += int(pair[1])


class _NullScope:
    """Shared no-op context handed out while the log is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class _Scope:
    """Context manager labelling observations with a query/scenario."""

    __slots__ = ("_log", "_context", "_previous")

    def __init__(self, log: "DecisionLog", context: str) -> None:
        self._log = log
        self._context = context
        self._previous = "run"

    def __enter__(self) -> "_Scope":
        self._previous = self._log._context
        self._log._context = self._context
        return self

    def __exit__(self, *exc: object) -> bool:
        self._log._context = self._previous
        return False


class DecisionLog:
    """Process-global decision-provenance collector.

    ``enabled`` gates everything: each lookup site makes one call per
    batch, which returns at once while the log is off, and hands over
    only the totals its kernel computed anyway.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.sample_k = DEFAULT_SAMPLE_K
        self.epsilon = DEFAULT_EPSILON
        self.seed = 0
        self._context = "run"
        self._task_index = -1
        self._seq: dict[str, int] = {}
        self._main = self._empty_sink()
        self._sink = self._main

    @staticmethod
    def _empty_sink() -> dict[str, Any]:
        return {"contexts": {}, "records": []}

    # -- lifecycle -----------------------------------------------------
    def configure(
        self,
        sample_k: int = DEFAULT_SAMPLE_K,
        epsilon: float = DEFAULT_EPSILON,
        seed: int = 0,
    ) -> None:
        self.sample_k = max(int(sample_k), 0)
        self.epsilon = float(epsilon)
        self.seed = int(seed)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded state; enabled flag and config are kept."""
        self._context = "run"
        self._task_index = -1
        self._seq = {}
        self._main = self._empty_sink()
        self._sink = self._main

    # -- context labelling --------------------------------------------
    def scoped(self, context: str):
        """Label observations made inside the ``with`` block."""
        if not self.enabled:
            return _NULL_SCOPE
        return _Scope(self, str(context))

    # -- per-task delta channel ---------------------------------------
    def begin_task(self, index: int) -> None:
        """Route observations into a fresh per-task delta buffer."""
        if not self.enabled:
            return
        self._task_index = int(index)
        self._seq = {}
        self._sink = self._empty_sink()

    def take_task(self) -> "dict[str, Any] | None":
        """Detach and return the current task delta (exported form)."""
        if not self.enabled:
            return None
        delta = self._sink
        self._sink = self._main
        self._task_index = -1
        self._seq = {}
        return {
            "contexts": {
                label: _export_context(ctx)
                for label, ctx in delta["contexts"].items()
            },
            "records": delta["records"],
        }

    # -- observation ---------------------------------------------------
    def observe_batch(
        self,
        matrix: np.ndarray,
        costs: np.ndarray,
        totals: np.ndarray,
        winners: "np.ndarray | None" = None,
        reference: "int | np.ndarray | None" = None,
        context: "str | None" = None,
    ) -> None:
        """Record one batch of lookups from its totals matrix.

        ``totals`` is the already-materialized ``C @ U.T`` product —
        margins and plane distances are extracted from it without a
        second kernel pass.  ``reference`` (scalar or per-row) marks
        the plan a non-drifted optimizer would pick, enabling
        wrong-choice accounting.
        """
        if not self.enabled:
            return
        totals = np.asarray(totals, dtype=float)
        if totals.ndim != 2 or not totals.size:
            return
        costs = np.asarray(costs, dtype=float)
        argmin, _, runner_totals, margins = margins_from_totals(totals)
        if winners is None:
            winners = argmin
        winners = np.asarray(winners)
        distances = plane_distances(
            matrix, costs, totals, winners, margins
        )
        reference_rows = None
        if reference is not None:
            reference_rows = np.broadcast_to(
                np.asarray(reference), winners.shape
            )
        label = self._context if context is None else str(context)
        self._aggregate(
            label, margins, distances, winners, reference_rows
        )
        self._sample(
            label, costs, totals, winners, margins, distances,
            reference_rows,
        )

    def observe_one(
        self,
        matrix: np.ndarray,
        cost: np.ndarray,
        totals: np.ndarray,
        winner: int,
        reference: "int | None" = None,
        context: "str | None" = None,
    ) -> None:
        """Single-probe convenience wrapper over a 1-D totals row."""
        if not self.enabled:
            return
        cost = np.asarray(cost, dtype=float).ravel()
        self.observe_batch(
            matrix,
            cost[None, :],
            np.asarray(totals, dtype=float).ravel()[None, :],
            winners=np.array([int(winner)]),
            reference=reference,
            context=context,
        )

    def _aggregate(
        self, label, margins, distances, winners, reference_rows
    ) -> None:
        ctx = self._sink["contexts"].setdefault(label, _context_live())
        count = int(margins.size)
        ctx["probes"] += count
        ctx["near_plane"] += int(
            np.count_nonzero(distances <= self.epsilon)
        )
        finite = np.isfinite(margins)
        ctx["margin"].observe_many(margins[finite])

        wrong_mask = None
        if reference_rows is not None:
            wrong_mask = winners != reference_rows
            ctx["with_reference"] += count
            ctx["wrong"] += int(np.count_nonzero(wrong_mask))

        positive = finite & (margins > 0.0)
        decades = ctx["decades"]

        def _bump(mask, column):
            if mask is None:
                return
            ties = int(np.count_nonzero(mask & finite & (margins <= 0.0)))
            if ties:
                decades.setdefault(TIE_DECADE, [0, 0])[column] += ties
            selected = margins[mask & positive]
            if not selected.size:
                return
            exponents = np.floor(np.log10(selected)).astype(int)
            for exponent, bucket_count in zip(
                *np.unique(exponents, return_counts=True)
            ):
                bucket = decades.setdefault(str(int(exponent)), [0, 0])
                bucket[column] += int(bucket_count)

        _bump(np.ones_like(finite), 0)
        _bump(wrong_mask, 1)

    def _sample(
        self, label, costs, totals, winners, margins, distances,
        reference_rows,
    ) -> None:
        if not self.sample_k:
            return
        count = len(winners)
        start = self._seq.get(label, 0)
        self._seq[label] = start + count
        base = _context_base(self.seed, self._task_index, label)
        lanes = _mix64(
            base ^ np.arange(start, start + count, dtype=np.uint64)
        )
        records = self._sink["records"]
        if len(records) >= self.sample_k:
            threshold = np.uint64(
                max(record["sample_hash"] for record in records)
            )
            rows = np.flatnonzero(lanes < threshold)
        else:
            rows = np.arange(count)
        if not rows.size:
            return
        for row in rows.tolist():
            row_totals = totals[row]
            order = np.argsort(row_totals, kind="stable")
            runner = int(order[1]) if order.size > 1 else None
            winner = int(winners[row])
            margin = float(margins[row])
            distance = float(distances[row])
            wrong = None
            reference = None
            if reference_rows is not None:
                reference = int(reference_rows[row])
                wrong = bool(winner != reference)
            records.append({
                "sample_hash": int(lanes[row]),
                "task": int(self._task_index),
                "context": label,
                "seq": start + row,
                "cost": [float(value) for value in costs[row]],
                "winner": winner,
                "winner_total": float(row_totals[winner]),
                "runner_up": runner,
                "runner_up_total": (
                    float(row_totals[runner])
                    if runner is not None else None
                ),
                "margin": margin if np.isfinite(margin) else None,
                "plane_distance": (
                    distance if np.isfinite(distance) else None
                ),
                "reference": reference,
                "wrong": wrong,
            })
        records.sort(key=_record_order)
        del records[self.sample_k:]

    # -- merge / state -------------------------------------------------
    def merge(self, delta: "Mapping[str, Any] | None") -> None:
        """Fold an exported task delta (or snapshot state) in."""
        if not self.enabled or not delta:
            return
        main = self._main
        for label, exported in (delta.get("contexts") or {}).items():
            live = main["contexts"].setdefault(label, _context_live())
            _merge_context(live, exported)
        records = main["records"]
        records.extend(delta.get("records") or ())
        records.sort(key=_record_order)
        del records[self.sample_k:]

    def export_state(self) -> dict[str, Any]:
        """The merged main state as plain JSON-ready dicts (snapshot
        form; feed back through :meth:`load_state` or :meth:`merge`)."""
        return {
            "contexts": {
                label: _export_context(ctx)
                for label, ctx in self._main["contexts"].items()
            },
            "records": [dict(r) for r in self._main["records"]],
        }

    def load_state(self, state: "Mapping[str, Any] | None") -> None:
        """Replace the main state (checkpoint→resume restore)."""
        self._main = self._empty_sink()
        if self._task_index < 0:
            self._sink = self._main
        self.merge(state)

    # -- rendering -----------------------------------------------------
    def records(self) -> list[dict[str, Any]]:
        return [dict(r) for r in self._main["records"]]

    def summary(self) -> dict[str, Any]:
        """The manifest ``decisions`` block: run-level fragility totals
        plus per-context aggregates and the sampled records."""
        state = self.export_state()
        totals = {"probes": 0, "with_reference": 0, "wrong": 0,
                  "near_plane": 0}
        for ctx in state["contexts"].values():
            for key in totals:
                totals[key] += int(ctx[key])
        return {
            "sample_k": self.sample_k,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "probes": totals["probes"],
            "with_reference": totals["with_reference"],
            "wrong": totals["wrong"],
            "near_plane": totals["near_plane"],
            "sampled": len(state["records"]),
            "contexts": dict(sorted(state["contexts"].items())),
            "records": state["records"],
        }


#: The process-global decision log all instrumentation writes to.
DECISIONS = DecisionLog()


# ----------------------------------------------------------------------
# Export / validation helpers
# ----------------------------------------------------------------------
def write_decision_records(
    records: Iterable[Mapping[str, Any]], path
) -> Path:
    """Write sampled explain records as JSONL (one decision per line,
    stable key order)."""
    target = Path(path)
    lines = [
        json.dumps(dict(record), sort_keys=True) for record in records
    ]
    target.write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    return target


_RECORD_FIELDS: dict[str, tuple] = {
    "sample_hash": (int,),
    "task": (int,),
    "context": (str,),
    "seq": (int,),
    "cost": (list,),
    "winner": (int,),
    "winner_total": (int, float),
    "runner_up": (int, type(None)),
    "runner_up_total": (int, float, type(None)),
    "margin": (int, float, type(None)),
    "plane_distance": (int, float, type(None)),
    "reference": (int, type(None)),
    "wrong": (bool, type(None)),
}


def validate_decision_records(records) -> list[str]:
    """Schema-check decision records (dicts or JSONL lines); returns a
    list of human-readable errors, empty when valid."""
    errors: list[str] = []
    for position, record in enumerate(records):
        if isinstance(record, (str, bytes)):
            try:
                record = json.loads(record)
            except ValueError:
                errors.append(f"records[{position}] is not valid JSON")
                continue
        if not isinstance(record, Mapping):
            errors.append(f"records[{position}] must be an object")
            continue
        for field, kinds in _RECORD_FIELDS.items():
            if field not in record:
                errors.append(
                    f"records[{position}] missing field: {field}"
                )
                continue
            value = record[field]
            if isinstance(value, bool) and bool not in kinds:
                errors.append(
                    f"records[{position}].{field} has wrong type"
                )
            elif not isinstance(value, kinds):
                errors.append(
                    f"records[{position}].{field} has wrong type"
                )
        for field in ("margin", "plane_distance"):
            value = record.get(field)
            if isinstance(value, (int, float)) and value < 0:
                errors.append(
                    f"records[{position}].{field} must be >= 0"
                )
        unknown = set(record) - set(_RECORD_FIELDS)
        for field in sorted(unknown):
            errors.append(
                f"records[{position}] unknown field: {field}"
            )
    return errors


def decision_instant_events(
    records: Iterable[Mapping[str, Any]], pid: int = 1, tid: int = 0
) -> list[dict[str, Any]]:
    """Sampled decisions as Chrome Trace Event instant events (ph "i").

    Timestamps are the deterministic sample positions, not wall-clock
    times, so decorated runs stay byte-reproducible.
    """
    return [
        {
            "name": f"decision:{record['context']}",
            "ph": "i",
            "ts": position,
            "pid": pid,
            "tid": tid,
            "s": "t",
            "args": {
                "winner": record["winner"],
                "runner_up": record["runner_up"],
                "margin": record["margin"],
                "plane_distance": record["plane_distance"],
                "seq": record["seq"],
            },
        }
        for position, record in enumerate(records)
    ]
