"""Run-manifest schema: build, validate, golden-file stability."""

import json
from pathlib import Path

from repro.obs import (
    SCHEMA_VERSION,
    build_manifest,
    catalog_digest,
    text_digest,
    validate_manifest,
    write_manifest,
)

#: The current-schema example.  ``golden_manifest.json`` next to it is
#: a v4 receipt, kept as written then (``timeseries`` block and all);
#: ``test_report_edges.py`` reads it to pin read compatibility.
GOLDEN = Path(__file__).with_name("golden_manifest_v5.json")


def _build():
    return build_manifest(
        command="figure",
        config={"scenario": "shared", "queries": "Q1"},
        seeds={"monte_carlo": 0},
        catalog_sha="ab" * 32,
        result_digests={"figure_csv": "cd" * 32},
        metrics={"counters": {}, "gauges": {}, "histograms": {}},
        trace=None,
        wall_seconds=1.0,
        cpu_seconds=0.5,
    )


def test_built_manifest_validates_cleanly():
    assert validate_manifest(_build()) == []


def test_golden_manifest_validates_cleanly():
    """The checked-in schema example must stay valid forever (or the
    schema version must be bumped)."""
    golden = json.loads(GOLDEN.read_text())
    assert golden["schema_version"] == SCHEMA_VERSION
    assert validate_manifest(golden) == []


def test_schema_matches_golden_field_set():
    """Adding/removing top-level fields must update the golden file
    (and, for consumers, SCHEMA_VERSION)."""
    golden = json.loads(GOLDEN.read_text())
    assert set(_build()) == set(golden)


def test_missing_field_is_an_error():
    manifest = _build()
    del manifest["result_digests"]
    assert validate_manifest(manifest) == [
        "missing field: result_digests"
    ]


def test_unknown_field_is_an_error():
    manifest = _build()
    manifest["vendor_extension"] = {}
    assert validate_manifest(manifest) == [
        "unknown field: vendor_extension"
    ]


def test_wrong_types_and_bad_spans_are_reported():
    manifest = _build()
    manifest["timing"] = {"wall_seconds": "fast"}
    manifest["trace"] = [{"name": 3}]
    errors = validate_manifest(manifest)
    assert "timing.wall_seconds must be a number" in errors
    assert "timing.cpu_seconds must be a number" in errors
    assert any("trace[0]" in error for error in errors)


def test_tasks_field_defaults_and_validates():
    manifest = _build()
    assert manifest["tasks"] == {
        "planned": 0, "completed": 0, "resumed": 0, "retried": 0,
        "failed": [],
    }
    manifest["tasks"] = {
        "planned": 3, "completed": 2, "resumed": 1, "retried": 4,
        "failed": [
            {"label": "figure[2]", "error": "boom", "attempts": 3}
        ],
    }
    assert validate_manifest(manifest) == []


def test_malformed_tasks_field_is_reported():
    manifest = _build()
    manifest["tasks"] = {
        "planned": "three", "completed": 0, "resumed": 0,
        "retried": 0, "failed": [{"label": 7}],
    }
    errors = validate_manifest(manifest)
    assert "tasks.planned must be an integer" in errors
    assert "tasks.failed[0].label must be a string" in errors
    assert "tasks.failed[0].error must be a string" in errors
    assert "tasks.failed[0].attempts must be an integer" in errors


def _as_v4(manifest):
    """``manifest`` (changed in place) as a v4 receipt, which still
    had a ``timeseries`` field."""
    manifest["schema_version"] = 4
    manifest["timeseries"] = None
    return manifest


def test_profile_and_timeseries_default_to_null():
    """``profile`` defaults to null; v5 has no ``timeseries`` field."""
    manifest = _build()
    assert manifest["profile"] is None
    assert "timeseries" not in manifest
    assert validate_manifest(manifest) == []


def test_profile_and_timeseries_blocks_validate():
    manifest = _build()
    manifest["profile"] = {
        "hz": 101, "duration_seconds": 1.0, "samples": 42,
        "distinct_stacks": 3,
        "top": [{
            "frame": "f (repro/x.py:1)",
            "total_samples": 42, "self_samples": 40,
        }],
    }
    assert validate_manifest(manifest) == []
    # A v4 ``timeseries`` block is plain data: any object passes.
    old = _as_v4(manifest)
    old["timeseries"] = {
        "interval_seconds": 0.25, "samples": 4,
        "duration_seconds": 1.0,
        "counters": {"a.b": {"first": 0, "last": 2, "peak": 2}},
    }
    assert validate_manifest(old) == []


def test_malformed_profile_and_timeseries_are_reported():
    manifest = _build()
    manifest["profile"] = {"hz": "fast", "top": {}}
    errors = validate_manifest(manifest)
    assert "profile.hz must be an integer" in errors
    assert "profile.top must be a list" in errors
    # v5 dropped the field; v3/v4 receipts must carry it.
    manifest = _build()
    manifest["timeseries"] = None
    assert validate_manifest(manifest) == ["unknown field: timeseries"]
    old = _as_v4(_build())
    old["timeseries"] = 1.5
    assert validate_manifest(old) == [
        "field timeseries: expected dict/NoneType, got float"
    ]
    del old["timeseries"]
    assert validate_manifest(old) == ["missing field: timeseries"]
    old["schema_version"] = 2
    del old["profile"], old["decisions"]
    assert validate_manifest(old) == []


def test_future_schema_version_is_rejected():
    manifest = _build()
    manifest["schema_version"] = SCHEMA_VERSION + 1
    assert any(
        "schema_version" in error
        for error in validate_manifest(manifest)
    )


def test_non_object_manifest():
    assert validate_manifest([1, 2]) == [
        "manifest must be a JSON object"
    ]


def test_write_manifest_is_stable_sorted_json(tmp_path):
    path = write_manifest(_build(), tmp_path / "m.json")
    text = path.read_text()
    data = json.loads(text)
    assert validate_manifest(data) == []
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_digest_helpers():
    assert text_digest("x") == text_digest("x")
    assert text_digest("x") != text_digest("y")
    assert catalog_digest({"a": 1}) == catalog_digest({"a": 1})
    assert catalog_digest({"a": 1}) != catalog_digest({"a": 2})
