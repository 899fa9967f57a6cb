"""Load generator: determinism, BENCH record shape, digest parity."""

import json

import numpy as np

from repro.obs.bench import validate_bench_record
from repro.serve import (
    CandidateStore,
    ServeApp,
    build_requests,
    decisions_digest,
    run_loadgen,
)
from repro.serve.decide import verify_offline
from repro.serve.loadgen import LoadgenResult, bench_record_from


def test_build_requests_is_seed_deterministic(warm_store):
    first = build_requests(
        warm_store, ["Q6"], "split", count=12, seed=7, quant_digits=9
    )
    second = build_requests(
        warm_store, ["Q6"], "split", count=12, seed=7, quant_digits=9
    )
    assert first == second
    other = build_requests(
        warm_store, ["Q6"], "split", count=12, seed=8, quant_digits=9
    )
    assert first != other
    assert len(first) == 12
    assert all(request["query"] == "Q6" for request in first)


def test_build_requests_round_robins_queries(warm_store):
    requests = build_requests(
        warm_store,
        ["Q6", "Q14"],
        "split",
        count=6,
        seed=1,
        quant_digits=9,
    )
    assert [request["query"] for request in requests] == [
        "Q6", "Q14", "Q6", "Q14", "Q6", "Q14",
    ]


def _result(count=20, metrics=None):
    rng = np.random.default_rng(0)
    responses = [
        {
            "query": "Q6",
            "scenario": "split",
            "cost": [1.0],
            "candidates": 2,
            "winner": 0,
            "winner_total": float(index),
            "runner_up": 1,
            "runner_up_total": float(index) * 2,
            "margin": 0.3,
            "plane_distance": 0.1,
            "nearest_rival": 1,
        }
        for index in range(count)
    ]
    return LoadgenResult(
        requests=[{}] * count,
        responses=responses,
        latencies=rng.uniform(1e-3, 5e-3, count),
        wall_seconds=0.5,
        target_qps=40.0,
        errors=0,
        server_metrics=metrics,
    )


def test_bench_record_validates_and_carries_the_gate_series():
    result = _result(
        metrics={
            "counters": {"serve.requests": 20, "serve.dgemm_calls": 20},
            "histograms": {"serve.batch_size": {"count": 20}},
        }
    )
    record = bench_record_from(result, catalog_sha="abc123")
    assert validate_bench_record(record) == []
    assert record["benchmark"] == "serve"
    assert set(record["results"]) == {"decide_latency", "decide_p99"}
    latency = record["results"]["decide_latency"]
    assert latency["rounds"] == 20
    assert latency["min_seconds"] <= latency["median_seconds"]
    assert latency["median_seconds"] <= latency["max_seconds"]
    pinned = record["results"]["decide_p99"]
    assert pinned["median_seconds"] == result.percentile(99)
    assert pinned["iqr_seconds"] == 0.0
    extras = record["extras"]
    assert extras["decisions_digest"] == result.digest
    assert extras["achieved_qps"] == result.achieved_qps
    assert extras["server_requests"] == 20
    assert extras["server_dgemm_calls"] == 20
    assert extras["batch_size"] == {"count": 20}
    for dropped in (
        "server_coalesced", "server_batch_splits", "server_empty_ticks",
        "server_winner_mismatches",
    ):
        assert dropped not in extras


def test_self_serve_loadgen_end_to_end(tmp_path, capsys):
    store = CandidateStore(cache=None)
    app = ServeApp(store, reload_interval=0.0)
    bench_out = tmp_path / "BENCH_serve.json"
    code = run_loadgen(
        store,
        queries=["Q6"],
        scenario_key="split",
        qps=400.0,
        count=16,
        seed=3,
        connections=4,
        quant_digits=9,
        warmup=1,
        host=None,
        port=None,
        self_serve_app=app,
        bench_out=str(bench_out),
        verify=True,
        p99_gate=5.0,
        append_to_history=False,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "digest parity OK" in out
    assert "p99 gate: OK" in out
    record = json.loads(bench_out.read_text())
    assert validate_bench_record(record) == []
    assert record["extras"]["requests"] == 16
    assert record["extras"]["errors"] == 0

    # The digest in the record is reproducible offline from the same
    # seed — the CI gate in miniature.
    requests = build_requests(
        store, ["Q6"], "split", count=16, seed=3, quant_digits=9
    )
    offline = verify_offline(
        {("Q6", "split"): store.entry("Q6", "split")}, requests
    )
    assert (
        decisions_digest(offline)
        == record["extras"]["decisions_digest"]
    )


def test_loadgen_p99_gate_failure_sets_exit_code(tmp_path):
    store = CandidateStore(cache=None)
    app = ServeApp(store, reload_interval=0.0)
    code = run_loadgen(
        store,
        queries=["Q6"],
        scenario_key="split",
        qps=400.0,
        count=4,
        seed=0,
        connections=2,
        quant_digits=9,
        warmup=0,
        host=None,
        port=None,
        self_serve_app=app,
        bench_out=None,
        verify=False,
        p99_gate=1e-12,  # unachievable: forces the gate to trip
        append_to_history=False,
    )
    assert code == 1
