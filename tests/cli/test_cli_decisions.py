"""The ``--decisions`` CLI surface and the ``repro explain``
subcommand: manifest block, JSONL export, trace instant events,
digest/stdout parity with undecorated runs, and the explain transcript
checked against the brute-force oracle."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.obs import validate_manifest
from repro.obs.decisions import explain_probe, validate_decision_records

# Q14 keeps multiple candidate plans alive under ``shared``, so
# margins/decades are populated (Q6 collapses to one plan there).
FIGURE = [
    "figure", "shared", "--queries", "Q14", "--deltas", "2,10", "--csv",
]


def _manifest(path="run-manifest.json"):
    data = json.loads(Path(path).read_text())
    assert validate_manifest(data) == []
    return data


def test_decisions_block_jsonl_and_instant_events(capsys):
    assert main(FIGURE + [
        "--decisions", "--decisions-out", "d.jsonl",
        "--trace", "--trace-out", "t.json",
    ]) == 0
    err = capsys.readouterr().err
    assert "probes observed" in err
    assert "fragility: wrong-choice fraction by margin decade:" in err

    block = _manifest()["decisions"]
    assert block is not None
    assert block["probes"] > 0
    assert block["sampled"] == len(block["records"])
    assert "paths" not in block
    assert all("paths" not in ctx for ctx in block["contexts"].values())
    assert "figure:Q14" in block["contexts"]

    lines = Path("d.jsonl").read_text().splitlines()
    assert len(lines) == block["sampled"]
    assert validate_decision_records(lines) == []
    assert all("path" not in json.loads(line) for line in lines)

    events = json.loads(Path("t.json").read_text())
    instants = [e for e in events if e.get("ph") == "i"]
    assert len(instants) == block["sampled"]
    assert all(e["name"].startswith("decision:") for e in instants)
    assert all("path" not in e["args"] for e in instants)


def test_without_flag_block_is_null_and_nothing_written(capsys):
    assert main(FIGURE) == 0
    manifest = _manifest()
    assert manifest["decisions"] is None
    assert not Path("d.jsonl").exists()
    assert "probes observed" not in capsys.readouterr().err


def test_decorated_run_keeps_stdout_and_digests_identical(capsys):
    assert main(FIGURE) == 0
    plain_out = capsys.readouterr().out
    plain_digests = _manifest()["result_digests"]
    assert main(FIGURE + ["--decisions"]) == 0
    decorated_out = capsys.readouterr().out
    assert decorated_out == plain_out
    assert _manifest()["result_digests"] == plain_digests


def test_sample_and_out_flags_imply_decisions(capsys):
    assert main(FIGURE + ["--decisions-sample", "3"]) == 0
    capsys.readouterr()
    block = _manifest()["decisions"]
    assert block["sample_k"] == 3
    assert block["sampled"] <= 3

    assert main(FIGURE + ["--decisions-out", "via-out.jsonl"]) == 0
    capsys.readouterr()
    assert _manifest()["decisions"] is not None
    assert Path("via-out.jsonl").exists()


def test_negative_sample_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(FIGURE + ["--decisions-sample", "-1"])
    assert excinfo.value.code == 2


def test_report_renders_fragility_table(capsys):
    assert main(FIGURE + ["--decisions"]) == 0
    capsys.readouterr()
    assert main(["report", "run-manifest.json"]) == 0
    out = capsys.readouterr().out
    assert "decisions:" in out
    assert "fragility by context" in out
    assert "figure:Q14" in out
    assert "wrong-choice fraction by margin decade:" in out


def test_report_diff_notes_block_absent_in_older_schema(capsys):
    assert main(FIGURE + ["--decisions"]) == 0
    capsys.readouterr()
    new = json.loads(Path("run-manifest.json").read_text())
    Path("new.json").write_text(json.dumps(new))
    old = dict(new)
    old["schema_version"] = 2
    for field in ("profile", "decisions"):
        old.pop(field, None)
    Path("old.json").write_text(json.dumps(old))
    assert main(["report", "new.json", "old.json"]) == 0
    out = capsys.readouterr().out
    assert (
        "note: decisions block absent in older schema "
        "(v2 predates v4)"
    ) in out


# ----------------------------------------------------------------------
# repro explain
# ----------------------------------------------------------------------
def test_explain_matches_brute_force_oracle(capsys):
    from repro.catalog import build_tpch_catalog
    from repro.experiments import scenario
    from repro.optimizer.config import DEFAULT_PARAMETERS
    from repro.optimizer.plancache import cached_candidate_plans
    from repro.workloads import build_tpch_queries

    # Q6's split space is 4-dimensional: cpu, dev.table.LINEITEM,
    # dev.index.LINEITEM, dev.temp.
    cost_vector = "0.5,1.5,2.5,0.75"
    assert main([
        "explain", "Q6", "--scenario", "split",
        "--cost-vector", cost_vector,
    ]) == 0
    out = capsys.readouterr().out

    # Rebuild the identical candidate set and compute the oracle.
    catalog = build_tpch_catalog(100)
    query = build_tpch_queries(catalog)["Q6"]
    config = scenario("split")
    layout = config.layout_for(query)
    region = config.region(layout, 100.0)
    candidates = cached_candidate_plans(
        query, catalog, DEFAULT_PARAMETERS, layout, region,
        cell_cap=64, scenario_key="split",
    )
    cost = np.array([float(v) for v in cost_vector.split(",")])
    matrix = candidates.usage_matrix
    dense_winner = int(np.argmin(cost @ matrix.T))
    info = explain_probe(matrix, cost)

    assert info["winner"] == dense_winner
    assert f"winner:    plan {info['winner']}" in out
    assert f"runner-up: plan {info['runner_up']}" in out
    assert f"margin:    {info['margin']:.6g} (relative)" in out
    assert (
        f"vs plan {info['nearest_rival']} at normalized distance "
        f"{info['plane_distance']:.6g}"
    ) in out
    assert f"candidates: {info['candidates']} plan(s)" in out


def test_explain_generated_defaults_to_colocated(capsys):
    assert main(["explain", "--generated", "3:1"]) == 0
    out = capsys.readouterr().out
    assert "decision provenance: G1 [colocated]" in out
    assert "winner:    plan" in out
    assert "lookup path" not in out


def test_explain_usage_errors(capsys):
    for argv in (
        ["explain"],                                   # no query
        ["explain", "Q1", "--generated", "0:0"],       # both forms
        ["explain", "--generated", "nope"],            # bad format
        ["explain", "--generated", "1:-2"],            # negative index
        ["explain", "Q1", "--cost-vector", "1,2"],     # wrong dimension
        ["explain", "Q1", "--cost-vector", "a,b"],     # non-numeric
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()


def test_explain_unknown_query_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["explain", "Q999"])
    assert excinfo.value.code == 2
