"""The `/v1/decide` wire protocol: quantization, validation, digests.

The online gate the service must pass is *bitwise*: a served decide
response has to carry exactly the numbers offline ``repro explain``
would print for the same ``(query, C)`` probe.  Two protocol rules
make that possible:

* **Cost quantization.**  Incoming cost vectors are rounded to
  ``QUANT_DIGITS`` significant digits before anything touches them.
  The quantized floats survive a JSON round-trip exactly (floats in
  this range serialize shortest-repr and parse back bit-identically),
  so the server, the load generator and the offline verifier all
  operate on the same probe.  Two requests that agree to nine
  significant digits are one decision (:func:`request_key`).
* **Canonical response core.**  :func:`response_core` projects a
  response onto the fields that define the decision (ids, totals,
  margin, plane distance) — dropping serving metadata like plan
  signatures — and :func:`decisions_digest` hashes the cores in request
  order as canonical JSON.  Equal digests mean equal decisions, field
  for field, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, Mapping

__all__ = [
    "QUANT_DIGITS",
    "SERVE_SCHEMA_VERSION",
    "CORE_FIELDS",
    "RequestError",
    "decisions_digest",
    "parse_decide_request",
    "quantize_costs",
    "request_key",
    "response_core",
]

#: Bump when the decide response shape changes (v2 dropped the
#: plan-index activity flag).
SERVE_SCHEMA_VERSION = 2

#: Significant digits a probe cost vector is quantized to.  Nine
#: digits is far below any physically meaningful calibration error and
#: far above double-precision noise, so quantization never moves a
#: probe across a switchover plane that matters while making equal
#: requests exactly equal.
QUANT_DIGITS = 9

#: The fields of a decide response that define the decision itself.
#: Everything else (serving metadata, signatures' rendering) rides
#: outside the digest.
CORE_FIELDS = (
    "query",
    "scenario",
    "cost",
    "candidates",
    "winner",
    "winner_total",
    "runner_up",
    "runner_up_total",
    "margin",
    "plane_distance",
    "nearest_rival",
)


class RequestError(ValueError):
    """A malformed or unserveable decide request (HTTP 400)."""


def quantize_costs(
    values: Iterable[float], digits: int = QUANT_DIGITS
) -> tuple[float, ...]:
    """Round each cost to ``digits`` significant digits.

    Deterministic (decimal formatting, not arithmetic) and idempotent;
    positive inputs stay positive.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return tuple(
        float(f"{float(value):.{digits - 1}e}") for value in values
    )


def parse_decide_request(
    payload: Any, digits: int = QUANT_DIGITS
) -> "dict[str, Any]":
    """Validate one decide request body into its canonical form.

    Returns ``{"query", "scenario", "cost"}`` with the cost already
    quantized; raises :class:`RequestError` with a one-line message on
    any malformation (the server maps that to HTTP 400).  Scenario
    resolution (aliases, unknown keys) and dimension checks happen at
    the store layer, which knows the candidate sets.
    """
    if not isinstance(payload, Mapping):
        raise RequestError("request body must be a JSON object")
    unknown = sorted(
        set(payload) - {"query", "scenario", "cost_vector"}
    )
    if unknown:
        raise RequestError(
            "unknown request field(s): " + ", ".join(unknown)
        )
    query = payload.get("query")
    if not isinstance(query, str) or not query:
        raise RequestError("'query' must be a non-empty string")
    scenario = payload.get("scenario", "split")
    if not isinstance(scenario, str) or not scenario:
        raise RequestError("'scenario' must be a non-empty string")
    cost = payload.get("cost_vector")
    if not isinstance(cost, (list, tuple)) or not cost:
        raise RequestError(
            "'cost_vector' must be a non-empty array of numbers"
        )
    values = []
    for position, value in enumerate(cost):
        if isinstance(value, bool) or not isinstance(
            value, (int, float)
        ):
            raise RequestError(
                f"cost_vector[{position}] must be a number"
            )
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise RequestError(
                f"cost_vector[{position}] must be finite and > 0"
            )
        values.append(value)
    return {
        "query": query,
        "scenario": scenario,
        "cost": quantize_costs(values, digits),
    }


def request_key(request: Mapping[str, Any]) -> tuple:
    """The decision key: requests with equal keys get equal answers."""
    return (
        request["query"],
        request["scenario"],
        tuple(request["cost"]),
    )


def response_core(response: Mapping[str, Any]) -> dict[str, Any]:
    """The digest-relevant projection of one decide response."""
    return {field: response[field] for field in CORE_FIELDS}


def decisions_digest(responses: Iterable[Mapping[str, Any]]) -> str:
    """SHA-256 over the canonical JSON of response cores, in order.

    The load generator digests what it received; the offline verifier
    digests what ``explain_probe`` recomputes.  Equality is the CI
    gate.
    """
    hasher = hashlib.sha256()
    for response in responses:
        line = json.dumps(
            response_core(response), sort_keys=True
        )
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()
