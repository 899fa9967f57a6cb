"""Perf history store: entries, ingestion, trend gate, rendering."""

import json

import pytest

from repro.obs import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    bench_history_entries,
    default_history_path,
    detect_trends,
    load_history,
    manifest_history_entries,
    render_trend_report,
    validate_history_entry,
)


def _entry(series="bench:m/t", value=0.01, **overrides):
    entry = {
        "history_schema_version": HISTORY_SCHEMA_VERSION,
        "series": series,
        "value_seconds": value,
        "created_unix": 1754000000.0,
        "git_sha": "ab" * 20,
        "catalog_digest": "cd" * 32,
        "source": "unit",
    }
    entry.update(overrides)
    return entry


def _series(*values, series="bench:m/t"):
    return [_entry(series=series, value=v) for v in values]


# ----------------------------------------------------------------------
# Entry schema
# ----------------------------------------------------------------------
def test_valid_entry_has_no_errors():
    assert validate_history_entry(_entry()) == []


def test_schema_violations_are_all_reported():
    entry = _entry(value="fast", extra=1)
    del entry["series"]
    errors = validate_history_entry(entry)
    assert "missing field: series" in errors
    assert any("value_seconds" in e for e in errors)
    assert "unknown field: extra" in errors
    assert validate_history_entry([]) == [
        "history entry must be a JSON object"
    ]


def test_default_path_honours_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path))
    assert default_history_path() == tmp_path / "history.jsonl"
    monkeypatch.delenv("REPRO_HISTORY_DIR")
    assert str(default_history_path()).endswith("history.jsonl")


# ----------------------------------------------------------------------
# Store round-trip and tolerance
# ----------------------------------------------------------------------
def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "h.jsonl"
    entries = _series(0.01, 0.02)
    assert append_history(entries, path) == path
    append_history(_series(0.03), path)
    loaded = load_history(path)
    assert [e["value_seconds"] for e in loaded] == [0.01, 0.02, 0.03]
    assert loaded[0] == entries[0]


def test_append_rejects_invalid_entries(tmp_path):
    path = tmp_path / "h.jsonl"
    with pytest.raises(ValueError, match="invalid history entry"):
        append_history([{"series": "x"}], path)
    assert not path.exists()


def test_load_skips_corrupt_lines_with_warning(tmp_path, caplog):
    path = tmp_path / "h.jsonl"
    lines = [
        json.dumps(_entry(value=0.01)),
        "{not json",
        json.dumps({"series": "missing-everything"}),
        "",
        json.dumps(_entry(value=0.02)),
    ]
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level("WARNING", logger="repro.obs.history"):
        loaded = load_history(path)
    assert [e["value_seconds"] for e in loaded] == [0.01, 0.02]
    assert len(caplog.records) == 2


def test_load_missing_store_is_empty(tmp_path):
    assert load_history(tmp_path / "absent.jsonl") == []


# ----------------------------------------------------------------------
# Ingestion
# ----------------------------------------------------------------------
def test_bench_record_ingestion():
    record = {
        "benchmark": "estimation",
        "created_unix": 1754000000.0,
        "git_sha": "ab" * 20,
        "catalog_digest": "cd" * 32,
        "results": {
            "test_b": {"median_seconds": 0.002},
            "test_a": {"median_seconds": 0.001},
            "test_broken": {"median_seconds": "nan?"},
        },
    }
    entries = bench_history_entries(record, source="BENCH_x.json")
    assert [e["series"] for e in entries] == [
        "bench:estimation/test_a",
        "bench:estimation/test_b",
    ]
    assert entries[0]["value_seconds"] == 0.001
    assert entries[0]["git_sha"] == "ab" * 20
    assert entries[0]["source"] == "BENCH_x.json"
    assert all(validate_history_entry(e) == [] for e in entries)


def test_manifest_ingestion_sums_phases_by_name():
    manifest = {
        "command": "figure",
        "created_unix": 1754000000.0,
        "git_sha": "ab" * 20,
        "catalog_digest": "cd" * 32,
        "timing": {"wall_seconds": 2.5},
        "trace": [{
            "name": "cli.figure",
            "wall_seconds": 2.5,
            "children": [
                {"name": "parallel.task", "wall_seconds": 1.0,
                 "children": []},
                {"name": "parallel.task", "wall_seconds": 0.5,
                 "children": []},
                {"name": "figure.render", "wall_seconds": 0.25,
                 "children": []},
            ],
        }],
    }
    entries = manifest_history_entries(manifest, source="m.json")
    by_series = {e["series"]: e["value_seconds"] for e in entries}
    assert by_series == {
        "manifest:figure/total": 2.5,
        "manifest:figure/parallel.task": 1.5,
        "manifest:figure/figure.render": 0.25,
    }
    assert all(validate_history_entry(e) == [] for e in entries)


def test_manifest_ingestion_without_trace_still_records_total():
    entries = manifest_history_entries({
        "command": "bench", "timing": {"wall_seconds": 1.0},
    })
    assert [e["series"] for e in entries] == ["manifest:bench/total"]


# ----------------------------------------------------------------------
# Trend detection
# ----------------------------------------------------------------------
def test_flat_series_is_ok():
    report = detect_trends(_series(0.010, 0.011, 0.010, 0.009, 0.010))
    (trend,) = report.series
    assert trend.status == "ok"
    assert report.ok
    assert not trend.changepoint
    assert 0.9 < trend.ratio < 1.2


def test_two_x_regression_is_flagged():
    report = detect_trends(_series(0.010, 0.011, 0.010, 0.022))
    (trend,) = report.series
    assert trend.status == "regression"
    assert trend.ratio == pytest.approx(2.2, rel=0.01)
    assert not report.ok
    assert report.regressions == (trend,)


def test_sustained_shift_sets_the_changepoint_flag():
    spike = detect_trends(_series(0.010, 0.010, 0.010, 0.025))
    assert not spike.series[0].changepoint  # one-sample spike
    shift = detect_trends(_series(0.010, 0.010, 0.010, 0.025, 0.026))
    assert shift.series[0].status == "regression"
    assert shift.series[0].changepoint


def test_improvement_is_not_a_regression():
    report = detect_trends(_series(0.010, 0.010, 0.011, 0.004))
    assert report.series[0].status == "improvement"
    assert report.ok


def test_short_series_is_insufficient():
    report = detect_trends(_series(0.010, 0.012))
    (trend,) = report.series
    assert trend.status == "insufficient"
    assert trend.ratio is None
    assert report.ok


def test_window_bounds_the_baseline():
    # Old slow era followed by a fast era: with a window of 3 the
    # baseline only sees the fast era, so the last point is judged
    # against ~1ms, not the 100ms past.
    values = [0.100, 0.100, 0.100, 0.001, 0.001, 0.001, 0.002]
    report = detect_trends(_series(*values), window=3)
    (trend,) = report.series
    assert trend.baseline_median == pytest.approx(0.001)
    assert trend.status == "regression"


def test_rel_floor_absorbs_jitter_on_flat_series():
    values = (0.0100, 0.0100, 0.0100, 0.0119)
    strict = detect_trends(_series(*values), rel_floor=0.01)
    assert strict.series[0].status == "regression"
    lax = detect_trends(_series(*values), rel_floor=0.25)
    assert lax.series[0].status == "ok"


def test_series_filter_and_window_validation():
    entries = _series(1, 1, 1) + _series(2, 2, 2, series="bench:o/t")
    report = detect_trends(entries, series_filter="o/t")
    assert [t.series for t in report.series] == ["bench:o/t"]
    with pytest.raises(ValueError, match="window"):
        detect_trends(entries, window=1)


def test_nonpositive_baseline_is_not_judged():
    report = detect_trends(_series(0.0, 0.0, 0.0, 5.0))
    assert report.series[0].status == "ok"
    assert report.series[0].ratio is None


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def test_render_ok_report():
    text = render_trend_report(
        detect_trends(_series(0.010, 0.010, 0.010))
    )
    assert "bench:m/t" in text
    assert "verdict: OK" in text


def test_render_regression_report_names_the_worst_series():
    entries = (
        _series(0.010, 0.010, 0.010, 0.030)
        + _series(1.0, 1.0, 1.0, 1.0, series="bench:m/flat")
    )
    text = render_trend_report(detect_trends(entries))
    assert "verdict: REGRESSION" in text
    assert "worst: bench:m/t at 3.00x" in text
    assert "REGRESSION" in text and "OK" in text


def test_render_insufficient_report():
    text = render_trend_report(detect_trends(_series(0.01)))
    assert "INSUFFICIENT DATA" in text
