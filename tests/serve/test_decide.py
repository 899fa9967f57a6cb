"""The decide kernel's bitwise-parity contract.

A served response must be a pure function of ``(query, scenario,
quantized C)`` and field-for-field identical to what offline ``repro
explain`` computes through :func:`repro.obs.decisions.explain_probe`.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs.decisions import explain_probe
from repro.obs.metrics import METRICS
from repro.serve import decide_group, decide_one, verify_offline
from repro.serve.protocol import quantize_costs


def _probes(entry, count, seed=0):
    rng = np.random.default_rng(seed)
    center = np.asarray(entry.center)
    factors = rng.uniform(0.2, 5.0, size=(count, entry.dimension))
    return [
        quantize_costs(center * row) for row in factors
    ]


def test_decide_one_matches_explain_probe_bitwise(q6_entry):
    (probe,) = _probes(q6_entry, 1)
    response = decide_one(q6_entry, probe)
    info = explain_probe(
        q6_entry.matrix, np.asarray(probe, dtype=float)
    )
    assert response["winner"] == info["winner"]
    assert response["winner_total"] == info["winner_total"]
    assert response["runner_up"] == info["runner_up"]
    assert response["runner_up_total"] == info["runner_up_total"]
    assert response["margin"] == info["margin"]
    assert response["plane_distance"] == info["plane_distance"]
    assert response["nearest_rival"] == info["nearest_rival"]
    assert response["candidates"] == q6_entry.plans
    assert (
        response["winner_signature"]
        == q6_entry.signatures[info["winner"]]
    )


def test_decide_group_matches_decide_one_rows(q6_entry):
    probes = _probes(q6_entry, 8, seed=2)
    group = decide_group(q6_entry, probes)
    singles = [decide_one(q6_entry, probe) for probe in probes]
    assert group == singles


def test_verify_offline_replays_to_equal_responses(q6_entry):
    probes = _probes(q6_entry, 6, seed=4)
    requests = [
        {"query": "Q6", "scenario": "split", "cost": probe}
        for probe in probes
    ]
    online = decide_group(q6_entry, probes)
    offline = verify_offline(
        {("Q6", "split"): q6_entry}, requests
    )
    assert offline == online


#: Candidate sets at the edges of the margin and plane-distance rules,
#: each with the probe, winner, margin, plane distance and nearest
#: rival the decision must report.
EDGE_CASES = {
    "one plan": (
        [[1.0, 2.0]], [3.0, 4.0], 0, None, None, None,
    ),
    "duplicate rows": (
        [[1.0, 1.0], [1.0, 1.0], [3.0, 1.0]], [1.0, 1.0],
        0, 0.0, 0.0, 2,
    ),
    "only duplicates": (
        [[2.0, 5.0], [2.0, 5.0]], [1.0, 3.0], 0, 0.0, 0.0, None,
    ),
    "exact tie": (
        [[1.0, 3.0], [3.0, 1.0], [5.0, 5.0]], [2.0, 2.0],
        0, 0.0, 0.0, 1,
    ),
    "zero winner total": (
        [[0.0, 0.0], [1.0, 2.0]], [1.0, 1.0],
        0, None, 3.0 / np.sqrt(10.0), 1,
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_responses_match_explain_probe(case):
    matrix, cost, winner, margin, distance, rival = EDGE_CASES[case]
    matrix = np.asarray(matrix)
    entry = SimpleNamespace(
        query="Qx", scenario="split", matrix=matrix,
        signatures=[f"plan-{row}" for row in range(len(matrix))],
    )
    response = decide_one(entry, cost)
    info = explain_probe(matrix, np.asarray(cost))
    for field in (
        "candidates", "winner", "winner_total", "runner_up",
        "runner_up_total", "margin", "plane_distance", "nearest_rival",
    ):
        assert response[field] == info[field], field
    assert response["winner"] == winner
    assert response["margin"] == margin
    assert response["plane_distance"] == pytest.approx(distance)
    assert response["nearest_rival"] == rival
    assert response["candidates"] == len(matrix)
    if len(matrix) == 1:
        assert response["runner_up"] is None
        assert response["runner_up_signature"] is None
    else:
        assert response["runner_up_signature"] == (
            f"plan-{response['runner_up']}"
        )


def test_decide_group_reads_metrics_off_the_responses(q6_entry):
    probes = _probes(q6_entry, 5, seed=3)
    responses = decide_group(q6_entry, probes)
    assert METRICS.counter("serve.batches").value == 1
    assert METRICS.counter("serve.dgemm_calls").value == 5
    assert METRICS.histogram("serve.batch_size").state()["sum"] == 5
    margins = [r["margin"] for r in responses if r["margin"] is not None]
    assert METRICS.histogram("serve.margin").count == len(margins)
    assert METRICS.histogram("serve.margin").total == sum(margins)
    assert METRICS.counter("serve.near_plane").value == sum(
        r["plane_distance"] is not None and r["plane_distance"] <= 1e-3
        for r in responses
    )
