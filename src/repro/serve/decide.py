"""The per-tick decide kernel: one dgemm sweep + canonical provenance.

Each micro-batch tick hands this module the unique quantized probes
of one ``(query, scenario)`` group.  Two passes answer them:

* **The batched winner sweep** — one ``C @ U.T`` dgemm over the whole
  group (the same kernel shape ``optimize_batch`` and the figure
  sweeps use), from which winners, margins and switchover-plane
  distances are extracted vectorized via the ``obs/decisions`` helpers
  with no second kernel pass.  This is what the serving metrics see:
  near-plane fractions, margin histograms, batch sizes.
* **Canonical per-probe provenance** — the response payload for each
  unique probe is recomputed with :func:`repro.obs.explain_probe`,
  the exact single-probe computation behind offline ``repro explain``.

The second pass is not redundancy for its own sake: BLAS dgemm is
*not* row-wise bitwise reproducible across batch shapes (the same
probe row multiplied inside a 500-row batch and alone differs in the
last ulp), so any response field derived from the batched totals would
change with the accidental composition of its micro-batch — and the
offline digest gate would be unsatisfiable.  ``explain_probe`` always
runs the same fixed-shape product for a given candidate set, so a
response is a pure function of ``(query, scenario, quantized C)`` and
digests match offline recomputation bit for bit.  Near-ties can still
make the *batched* argmin disagree with the canonical one (margins at
double-precision noise); those rows are counted in
``serve.winner_mismatches`` and the canonical answer wins.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..obs.decisions import (
    explain_probe,
    margins_from_totals,
    plane_distances,
)
from ..obs.metrics import METRICS
from .protocol import SERVE_SCHEMA_VERSION

__all__ = ["decide_group", "decide_one", "verify_offline"]


def decide_one(
    entry: Any, cost: Sequence[float]
) -> dict[str, Any]:
    """The canonical decide response for one quantized probe.

    ``entry`` is a :class:`repro.serve.store.StoreEntry` (anything
    with ``query``, ``scenario``, ``matrix`` and ``signatures``).
    This is the function the offline verifier replays — the server
    returns exactly its output.
    """
    probe = np.asarray(cost, dtype=float)
    info = explain_probe(entry.matrix, probe)
    winner = info["winner"]
    runner = info["runner_up"]
    return {
        "serve_schema_version": SERVE_SCHEMA_VERSION,
        "query": entry.query,
        "scenario": entry.scenario,
        "cost": [float(value) for value in cost],
        "candidates": info["candidates"],
        "winner": winner,
        "winner_signature": entry.signatures[winner],
        "winner_total": info["winner_total"],
        "runner_up": runner,
        "runner_up_signature": (
            entry.signatures[runner] if runner is not None else None
        ),
        "runner_up_total": info["runner_up_total"],
        "margin": info["margin"],
        "plane_distance": info["plane_distance"],
        "nearest_rival": info["nearest_rival"],
    }


def decide_group(
    entry: Any, costs: Sequence[Sequence[float]]
) -> list[dict[str, Any]]:
    """Decide every unique probe of one ``(query, scenario)`` group.

    Issues the group's single batched dgemm winner sweep (metrics
    source), then builds each response through :func:`decide_one`.
    Returns responses in probe order.
    """
    matrix = entry.matrix
    stacked = np.asarray(costs, dtype=float)
    totals = stacked @ matrix.T
    METRICS.counter("serve.dgemm_calls").inc()
    METRICS.counter("serve.probes").inc(len(costs))
    winners, _, _, margins = margins_from_totals(totals)
    distances = plane_distances(
        matrix, stacked, totals, winners, margins
    )
    finite = np.isfinite(margins)
    METRICS.histogram("serve.margin").observe_many(margins[finite])
    METRICS.counter("serve.near_plane").inc(
        int(np.count_nonzero(distances <= 1e-3))
    )

    responses = [decide_one(entry, cost) for cost in costs]
    mismatches = sum(
        int(response["winner"]) != int(winner)
        for response, winner in zip(responses, winners)
    )
    if mismatches:
        # Batched argmin disagreed with the canonical single-probe
        # argmin — only possible on margins at double-precision noise.
        METRICS.counter("serve.winner_mismatches").inc(mismatches)
    return responses


def verify_offline(
    entries: Mapping[tuple, Any],
    requests: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Replay requests through the canonical kernel, no batching.

    ``entries`` maps ``(query, scenario)`` to store entries; each
    request is a parsed/quantized protocol request.  The returned
    responses digest-match what the server produced for the same
    request stream — that equality is the serve-smoke CI gate.
    """
    return [
        decide_one(
            entries[(request["query"], request["scenario"])],
            request["cost"],
        )
        for request in requests
    ]
