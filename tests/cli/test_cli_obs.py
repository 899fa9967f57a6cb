"""CLI observability: manifests, cache summaries, and the ``repro
report`` renderer."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import SCHEMA_VERSION, validate_manifest

FIGURE = [
    "figure", "shared", "--queries", "Q1", "--deltas", "2", "--csv",
]


def _manifest(path="run-manifest.json"):
    data = json.loads(Path(path).read_text())
    assert validate_manifest(data) == []
    return data


def test_figure_writes_valid_manifest(capsys):
    assert main(FIGURE) == 0
    manifest = _manifest()
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["command"] == "figure"
    assert manifest["config"]["queries"] == "Q1"
    assert manifest["catalog_digest"]
    assert "figure_csv" in manifest["result_digests"]
    assert manifest["metrics"]["counters"]["figure.queries_total"] == 1
    # No --trace: the span tree is omitted.
    assert manifest["trace"] is None
    assert manifest["timing"]["wall_seconds"] > 0


def test_trace_flag_records_span_tree(capsys):
    assert main(FIGURE + ["--trace"]) == 0
    trace = _manifest()["trace"]
    assert trace[0]["name"] == "cli.figure"
    names = {trace[0]["name"]}
    stack = list(trace[0]["children"])
    while stack:
        node = stack.pop()
        names.add(node["name"])
        stack.extend(node["children"])
    assert {"parallel.task", "figure.query", "plancache.get"} <= names


def test_manifest_path_and_no_manifest_flags(tmp_path):
    target = tmp_path / "custom.json"
    assert main(FIGURE + ["--manifest", str(target)]) == 0
    assert target.exists()
    assert not Path("run-manifest.json").exists()

    target.unlink()
    assert main(FIGURE + ["--no-manifest"]) == 0
    assert not Path("run-manifest.json").exists()
    assert not target.exists()


def test_cache_summary_on_stderr_not_stdout(capsys):
    main(FIGURE)
    cold = capsys.readouterr()
    assert "cache:" not in cold.out
    assert "misses" in cold.err
    main(FIGURE)
    warm = capsys.readouterr()
    assert "1 hits" in warm.err
    # --no-cache runs stay silent.
    main(FIGURE + ["--no-cache"])
    assert "cache:" not in capsys.readouterr().err


def test_identical_runs_have_identical_digests():
    main(FIGURE + ["--manifest", "a.json"])
    main(FIGURE + ["--manifest", "b.json"])
    first, second = _manifest("a.json"), _manifest("b.json")
    assert first["result_digests"] == second["result_digests"]
    assert (
        first["metrics"]["counters"]["figure.queries_total"]
        == second["metrics"]["counters"]["figure.queries_total"]
    )


def test_report_renders_manifest(capsys):
    main(FIGURE + ["--trace"])
    capsys.readouterr()
    assert main(["report", "run-manifest.json"]) == 0
    out = capsys.readouterr().out
    assert "repro figure" in out
    assert "result digests:" in out
    assert "cli.figure" in out
    assert "figure.queries_total" in out
    assert "plan cache:" in out


def test_report_compares_two_manifests(capsys):
    main(FIGURE + ["--manifest", "a.json"])
    main(FIGURE + ["--manifest", "b.json"])
    capsys.readouterr()
    assert main(["report", "a.json", "b.json"]) == 0
    out = capsys.readouterr().out
    assert "IDENTICAL" in out


def test_report_reads_a_v4_receipt(capsys):
    """A v4 receipt (``timeseries`` block, ``mem_*`` span attrs)
    renders on its own and diffs against a fresh v5 run."""
    golden = Path(__file__).parent.parent / "obs" / "golden_manifest.json"
    old = json.loads(golden.read_text())
    old["trace"][0]["attrs"]["mem_rss_kb"] = 81380.0
    Path("v4.json").write_text(json.dumps(old))
    main(FIGURE + ["--manifest", "v5.json"])
    capsys.readouterr()
    assert main(["report", "v4.json"]) == 0
    out = capsys.readouterr().out
    assert "schema v4" in out and "mem_rss_kb=81380.0" in out
    assert main(["report", "v4.json", "v5.json"]) == 0
    assert "comparing: repro figure vs repro figure" in (
        capsys.readouterr().out
    )


def test_report_rejects_invalid_manifest(capsys):
    Path("bad.json").write_text(json.dumps({"schema_version": 1}))
    assert main(["report", "bad.json"]) == 1
    assert "invalid manifest" in capsys.readouterr().err


def test_report_missing_file_is_a_clean_error():
    with pytest.raises(SystemExit):
        main(["report", "no-such-file.json"])


def test_report_writes_no_manifest_itself(capsys):
    main(FIGURE + ["--manifest", "a.json"])
    Path("run-manifest.json").unlink(missing_ok=True)
    main(["report", "a.json"])
    assert not Path("run-manifest.json").exists()


# ----------------------------------------------------------------------
# Trace Event export (--trace-out, report --export-trace)
# ----------------------------------------------------------------------
def test_trace_out_round_trips_manifest_phase_set(capsys):
    """The acceptance scenario: ``figure fig5 --trace --trace-out``
    yields a schema-valid Trace Event file whose phase set matches the
    manifest span tree, worker sub-trees included (``--jobs 2``)."""
    from repro.obs import (
        event_names,
        span_names,
        validate_trace_events,
    )

    assert main([
        "figure", "fig5", "--queries", "Q1,Q6", "--deltas", "2",
        "--csv", "--jobs", "2", "--trace", "--trace-out", "t.json",
    ]) == 0
    data = json.loads(Path("t.json").read_text())
    assert isinstance(data, list)
    assert validate_trace_events(data) == []
    trace = _manifest()["trace"]
    assert event_names(data) == span_names(trace)
    assert {"cli.figure", "parallel.task", "figure.query"} <= (
        event_names(data)
    )
    # Two worker tasks render on two distinct non-main tracks.
    task_tids = {
        e["tid"] for e in data
        if e.get("ph") == "X" and e["name"] == "parallel.task"
    }
    assert task_tids == {1, 2}


def test_trace_out_implies_trace(capsys):
    assert main(FIGURE + ["--trace-out", "t.json"]) == 0
    assert _manifest()["trace"] is not None
    assert Path("t.json").exists()


def test_report_export_trace(capsys):
    from repro.obs import validate_trace_events

    main(FIGURE + ["--trace"])
    capsys.readouterr()
    assert main([
        "report", "run-manifest.json", "--export-trace", "out.json",
    ]) == 0
    assert "trace events to out.json" in capsys.readouterr().out
    data = json.loads(Path("out.json").read_text())
    assert validate_trace_events(data) == []


def test_report_export_trace_without_span_tree_fails(capsys):
    main(FIGURE)  # no --trace
    capsys.readouterr()
    assert main([
        "report", "run-manifest.json", "--export-trace", "out.json",
    ]) == 1
    assert "rerun the command with --trace" in capsys.readouterr().err
    assert not Path("out.json").exists()


def test_report_export_trace_rejects_two_manifests(capsys):
    main(FIGURE + ["--manifest", "a.json"])
    main(FIGURE + ["--manifest", "b.json"])
    with pytest.raises(SystemExit):
        main(["report", "a.json", "b.json", "--export-trace", "o.json"])


# ----------------------------------------------------------------------
# Removed samplers (--memprof, --timeseries) and --metrics-out
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flags", [
    ["--memprof"],
    ["--timeseries"],
    ["--timeseries-interval", "0.1"],
    ["--metrics-out", "metrics.json"],
], ids=["memprof", "timeseries", "timeseries-interval", "metrics-out"])
def test_removed_flags_are_unrecognized(flags, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(FIGURE + flags)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not Path("run-manifest.json").exists()


def test_without_memprof_spans_carry_no_memory_attrs(capsys):
    assert main(FIGURE + ["--trace"]) == 0
    trace = _manifest()["trace"]
    assert "mem_traced_peak_kb" not in trace[0]["attrs"]


def test_timeseries_off_by_default():
    """The manifest (schema v5) has no ``timeseries`` field at all."""
    assert main(FIGURE) == 0
    assert "timeseries" not in _manifest()


# ----------------------------------------------------------------------
# Live progress (--progress / --no-progress)
# ----------------------------------------------------------------------
def test_progress_flag_forces_meter_onto_stderr(capsys):
    assert main(FIGURE + ["--progress"]) == 0
    err = capsys.readouterr().err
    assert "1/1 tasks" in err
    assert "eta" in err


def test_progress_meter_silent_by_default_when_piped(capsys):
    assert main(FIGURE) == 0
    assert "tasks/s" not in capsys.readouterr().err
    assert main(FIGURE + ["--no-progress"]) == 0
    assert "tasks/s" not in capsys.readouterr().err


def test_progress_never_touches_stdout(capsys):
    assert main(FIGURE + ["--progress"]) == 0
    out = capsys.readouterr().out
    assert "tasks/s" not in out


# ----------------------------------------------------------------------
# repro bench
# ----------------------------------------------------------------------
def _bench_record(path, median):
    from repro.obs import build_bench_record, write_bench_record

    record = build_bench_record(
        "demo",
        {"test_sweep": {
            "median_seconds": median,
            "iqr_seconds": 0.01,
            "rounds": 3,
            "mean_seconds": median,
            "min_seconds": median * 0.9,
            "max_seconds": median * 1.1,
        }},
    )
    return write_bench_record(record, path)


def test_bench_renders_single_record(capsys):
    _bench_record("bench.json", 1.0)
    assert main(["bench", "bench.json"]) == 0
    out = capsys.readouterr().out
    assert "demo" in out
    assert "test_sweep" in out


def test_bench_self_comparison_exits_zero(capsys):
    _bench_record("bench.json", 1.0)
    assert main([
        "bench", "bench.json", "--compare", "bench.json",
    ]) == 0
    assert "OK" in capsys.readouterr().out


def test_bench_twofold_slowdown_exits_nonzero(capsys):
    _bench_record("base.json", 1.0)
    _bench_record("slow.json", 2.0)
    assert main([
        "bench", "slow.json", "--compare", "base.json",
    ]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_threshold_and_advisory_flags(capsys):
    _bench_record("base.json", 1.0)
    _bench_record("slow.json", 1.25)
    # 25% is within a 30% threshold…
    assert main([
        "bench", "slow.json", "--compare", "base.json",
        "--threshold", "0.3",
    ]) == 0
    # …but --advisory downgrades even a true regression to exit 0.
    assert main([
        "bench", "slow.json", "--compare", "base.json", "--advisory",
    ]) == 0
    assert "advisory mode" in capsys.readouterr().err


def test_bench_rejects_invalid_record(capsys):
    Path("bad.json").write_text(json.dumps({"benchmark": "x"}))
    with pytest.raises(SystemExit):
        main(["bench", "bad.json"])
    _bench_record("good.json", 1.0)
    with pytest.raises(SystemExit):
        main(["bench", "good.json", "--compare", "bad.json"])


def test_bench_writes_no_manifest(capsys):
    _bench_record("bench.json", 1.0)
    assert main(["bench", "bench.json"]) == 0
    assert not Path("run-manifest.json").exists()


# ----------------------------------------------------------------------
# Sampling profiler (--profile / --profile-out / --profile-hz)
# ----------------------------------------------------------------------
def test_profile_writes_speedscope_and_folded(capsys):
    from repro.obs import validate_speedscope

    assert main(FIGURE + ["--profile", "--profile-hz", "997"]) == 0
    err = capsys.readouterr().err
    assert "profile:" in err
    assert "speedscope.app" in err
    doc = json.loads(Path("profile.speedscope.json").read_text())
    assert validate_speedscope(doc) == []
    folded = Path("profile.folded.txt").read_text().splitlines()
    assert folded
    assert all(" " in line for line in folded)
    profile = _manifest()["profile"]
    assert profile is not None
    assert profile["hz"] == 997
    assert profile["samples"] > 0
    assert profile["top"]


def test_profile_out_implies_profile(tmp_path):
    target = tmp_path / "deep" / "p.speedscope.json"
    target.parent.mkdir()
    assert main(FIGURE + [
        "--profile-out", str(target), "--profile-hz", "997",
    ]) == 0
    assert target.exists()
    assert (tmp_path / "deep" / "p.folded.txt").exists()
    assert not Path("profile.speedscope.json").exists()


def test_profile_off_by_default(capsys):
    from repro.obs import PROFILER

    assert main(FIGURE) == 0
    assert _manifest()["profile"] is None
    assert not Path("profile.speedscope.json").exists()
    assert PROFILER.thread is None
    assert "profile:" not in capsys.readouterr().err


def test_profile_does_not_change_results(capsys):
    main(FIGURE + ["--manifest", "a.json"])
    main(FIGURE + [
        "--profile", "--profile-hz", "997", "--manifest", "b.json",
    ])
    plain, profiled = _manifest("a.json"), _manifest("b.json")
    assert profiled["result_digests"] == plain["result_digests"]


def test_profile_rejects_bad_hz():
    with pytest.raises(SystemExit):
        main(FIGURE + ["--profile", "--profile-hz", "0"])


# ----------------------------------------------------------------------
# Perf history (--append-history) and the trend gate (bench trend)
# ----------------------------------------------------------------------
def _append_bench_history(median, hist="hist.jsonl"):
    _bench_record("record.json", median)
    assert main([
        "bench", "record.json", "--append-history", "--history", hist,
    ]) == 0


def test_bench_append_history_writes_entries(capsys):
    from repro.obs import load_history

    _append_bench_history(1.0)
    assert "history: appended 1 series point(s)" in (
        capsys.readouterr().err
    )
    (entry,) = load_history("hist.jsonl")
    assert entry["series"] == "bench:demo/test_sweep"
    assert entry["value_seconds"] == 1.0
    assert entry["source"] == "record.json"


def test_bench_trend_flat_history_is_ok(capsys):
    for median in (1.0, 1.01, 0.99, 1.0):
        _append_bench_history(median)
    capsys.readouterr()
    assert main(["bench", "trend", "--history", "hist.jsonl"]) == 0
    out = capsys.readouterr().out
    assert "bench:demo/test_sweep" in out
    assert "verdict: OK" in out


def test_bench_trend_flags_injected_regression(capsys):
    for median in (1.0, 1.01, 0.99, 2.0):
        _append_bench_history(median)
    capsys.readouterr()
    assert main(["bench", "trend", "--history", "hist.jsonl"]) == 1
    out = capsys.readouterr().out
    assert "verdict: REGRESSION" in out
    assert "2.00x" in out
    # --advisory downgrades the same verdict to exit 0.
    assert main([
        "bench", "trend", "--history", "hist.jsonl", "--advisory",
    ]) == 0
    assert "advisory mode" in capsys.readouterr().err


def test_bench_trend_series_filter_and_window(capsys):
    for median in (1.0, 1.0, 1.0, 2.0):
        _append_bench_history(median)
    capsys.readouterr()
    assert main([
        "bench", "trend", "--history", "hist.jsonl",
        "--series", "demo", "--window", "3",
    ]) == 1
    with pytest.raises(SystemExit):
        main([
            "bench", "trend", "--history", "hist.jsonl",
            "--series", "no-such-series",
        ])


def test_bench_trend_without_history_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["bench", "trend", "--history", "absent.jsonl"])


def test_report_append_history_records_phase_series(capsys):
    from repro.obs import load_history

    main(FIGURE + ["--trace"])
    capsys.readouterr()
    assert main([
        "report", "run-manifest.json", "--append-history",
        "--history", "hist.jsonl",
    ]) == 0
    assert "history: appended" in capsys.readouterr().err
    series = {e["series"] for e in load_history("hist.jsonl")}
    assert "manifest:figure/total" in series
    assert any(s.startswith("manifest:figure/") for s in series)


def test_report_append_history_rejects_two_manifests():
    main(FIGURE + ["--manifest", "a.json"])
    main(FIGURE + ["--manifest", "b.json"])
    with pytest.raises(SystemExit):
        main([
            "report", "a.json", "b.json", "--append-history",
            "--history", "hist.jsonl",
        ])


def test_bench_compare_verdict_names_provenance(capsys):
    _bench_record("base.json", 1.0)
    _bench_record("cur.json", 1.0)
    assert main([
        "bench", "cur.json", "--compare", "base.json",
    ]) == 0
    verdict = [
        line for line in capsys.readouterr().out.splitlines()
        if "OK" in line
    ]
    assert verdict
    assert any("git " in line for line in verdict)
    assert any("catalog " in line for line in verdict)
