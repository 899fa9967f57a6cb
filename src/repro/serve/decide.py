"""The decide kernel: one ``C @ U.T`` product per probe.

Each probe is answered by :func:`repro.obs.decisions.probe_decision`,
the same single-probe computation offline ``repro explain`` runs
(``explain_probe`` is that helper plus its crossings).  The product
always has the shape ``1×d · d×m`` for a given candidate set, so a
response is a pure function of ``(query, scenario, quantized C)``
and digests match offline recomputation bit for bit.  The serving
metrics (margin histogram, near-plane count) are read off the
responses, so no probe is computed twice.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..obs.decisions import DEFAULT_EPSILON, probe_decision
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
    info = probe_decision(entry.matrix, cost)
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
    """Decide each probe of one ``(query, scenario)`` group, in order.

    The server calls this with one probe per request.  Counts the call
    in ``serve.batches``/``serve.batch_size`` and its products in
    ``serve.dgemm_calls``, and reads ``serve.margin`` and
    ``serve.near_plane`` off the responses.
    """
    responses = [decide_one(entry, cost) for cost in costs]
    METRICS.counter("serve.batches").inc()
    METRICS.histogram("serve.batch_size").observe(len(costs))
    METRICS.counter("serve.dgemm_calls").inc(len(costs))
    margins = METRICS.histogram("serve.margin")
    near = 0
    for response in responses:
        if response["margin"] is not None:
            margins.observe(response["margin"])
        distance = response["plane_distance"]
        if distance is not None and distance <= DEFAULT_EPSILON:
            near += 1
    METRICS.counter("serve.near_plane").inc(near)
    return responses


def verify_offline(
    entries: Mapping[tuple, Any],
    requests: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Replay requests through the canonical kernel.

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
