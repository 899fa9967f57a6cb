"""Wire-protocol rules: quantization, validation, digests."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import (
    decide_one,
    decisions_digest,
    parse_decide_request,
    quantize_costs,
    request_key,
    response_core,
)
from repro.serve.protocol import (
    CORE_FIELDS,
    SERVE_SCHEMA_VERSION,
    RequestError,
)


def test_quantize_is_idempotent():
    values = (1.23456789123456, 9876.54321987, 0.000123456789123)
    once = quantize_costs(values)
    assert quantize_costs(once) == once
    assert all(v > 0 for v in once)


def test_quantize_survives_json_round_trip():
    values = quantize_costs((3.14159265358979, 2.71828182845905))
    again = tuple(json.loads(json.dumps(list(values))))
    assert again == values


def test_quantize_digits_bound():
    assert quantize_costs((1.23456,), digits=3) == (1.23,)
    with pytest.raises(ValueError):
        quantize_costs((1.0,), digits=0)


def test_parse_fills_default_scenario_and_quantizes():
    request = parse_decide_request(
        {"query": "Q6", "cost_vector": [1.23456789123456, 2.0]}
    )
    assert request["query"] == "Q6"
    assert request["scenario"] == "split"
    assert request["cost"] == quantize_costs((1.23456789123456, 2.0))


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ([1, 2], "JSON object"),
        ({"cost_vector": [1.0]}, "'query'"),
        ({"query": "", "cost_vector": [1.0]}, "'query'"),
        ({"query": "Q6"}, "'cost_vector'"),
        ({"query": "Q6", "cost_vector": []}, "'cost_vector'"),
        ({"query": "Q6", "cost_vector": ["x"]}, "must be a number"),
        ({"query": "Q6", "cost_vector": [True]}, "must be a number"),
        ({"query": "Q6", "cost_vector": [0.0]}, "finite and > 0"),
        ({"query": "Q6", "cost_vector": [-1.0]}, "finite and > 0"),
        (
            {"query": "Q6", "cost_vector": [1.0], "extra": 1},
            "unknown request field",
        ),
        (
            {"query": "Q6", "scenario": "", "cost_vector": [1.0]},
            "'scenario'",
        ),
    ],
)
def test_parse_rejections(payload, fragment):
    with pytest.raises(RequestError) as caught:
        parse_decide_request(payload)
    assert fragment in str(caught.value)


def test_request_key_equates_quantized_duplicates():
    near_a = parse_decide_request(
        {"query": "Q6", "cost_vector": [1.0000000001234]}
    )
    near_b = parse_decide_request(
        {"query": "Q6", "cost_vector": [1.0000000001999]}
    )
    assert request_key(near_a) == request_key(near_b)
    far = parse_decide_request({"query": "Q6", "cost_vector": [1.1]})
    assert request_key(near_a) != request_key(far)


def _response(total: float) -> dict:
    return {
        "query": "Q6",
        "scenario": "split",
        "cost": [1.0, 2.0],
        "candidates": 2,
        "winner": 0,
        "winner_total": total,
        "runner_up": 1,
        "runner_up_total": total * 2,
        "margin": 0.5,
        "plane_distance": 0.1,
        "nearest_rival": 1,
        "winner_signature": "IXSCAN(L)",  # outside the core
        "runner_up_signature": "TBSCAN(L)",
        "serve_schema_version": SERVE_SCHEMA_VERSION,
    }


def test_response_shape_matches_the_schema_version():
    """The decide response's field set is what the schema version
    names: v2 is the core plus the signatures and the version."""
    entry = SimpleNamespace(
        query="Q6", scenario="split",
        matrix=np.array([[1.0, 2.0], [2.0, 1.0]]),
        signatures=("IXSCAN(L)", "TBSCAN(L)"),
    )
    response = decide_one(entry, (1.0, 2.0))
    assert SERVE_SCHEMA_VERSION == 2
    assert set(response) == set(_response(0.0))
    assert response["serve_schema_version"] == SERVE_SCHEMA_VERSION


def test_response_core_projects_exactly_core_fields():
    core = response_core(_response(10.0))
    assert tuple(sorted(core)) == tuple(sorted(CORE_FIELDS))


def test_decisions_digest_is_order_and_value_sensitive():
    a, b = _response(10.0), _response(11.0)
    assert decisions_digest([a, b]) == decisions_digest([a, b])
    assert decisions_digest([a, b]) != decisions_digest([b, a])
    assert decisions_digest([a]) != decisions_digest([b])


def test_decisions_digest_ignores_non_core_fields():
    a = _response(10.0)
    b = dict(_response(10.0), winner_signature="TBSCAN(L)")
    assert decisions_digest([a]) == decisions_digest([b])
