"""Manifest-renderer edge cases: empty metrics, cache-summary corners,
receipts of older schema versions."""

import json
from pathlib import Path

from repro.obs import validate_manifest
from repro.obs.report import (
    _cache_summary,
    render_comparison,
    render_manifest,
)

HERE = Path(__file__).parent


def _manifest(metrics=None):
    return {
        "command": "figure --scenario fig5",
        "created_unix": 0,
        "package_version": "0.1.0",
        "git_sha": "deadbeef",
        "schema_version": 1,
        "timing": {"wall_seconds": 1.0, "cpu_seconds": 1.0},
        "trace": [],
        "metrics": metrics or {},
    }


def test_empty_metrics_render_none_recorded_line():
    rendered = render_manifest(_manifest())
    assert "metrics: (none recorded)" in rendered
    assert "plan cache:" not in rendered


def test_metrics_with_only_empty_sections_still_none_recorded():
    rendered = render_manifest(_manifest(
        {"counters": {}, "gauges": {}, "histograms": {}}
    ))
    assert "metrics: (none recorded)" in rendered


def test_populated_metrics_suppress_the_placeholder():
    rendered = render_manifest(_manifest(
        {"counters": {"optimize.calls": 12}}
    ))
    assert "metrics:" in rendered
    assert "(none recorded)" not in rendered
    assert "optimize.calls" in rendered


def test_cache_summary_silent_with_no_activity():
    assert _cache_summary({}) is None
    assert _cache_summary({
        "plancache.hits": 0,
        "plancache.misses": 0,
        "plancache.corrupt": 0,
    }) is None


def test_cache_summary_corrupt_only_reports_zero_hit_rate():
    summary = _cache_summary({"plancache.corrupt": 2})
    assert summary == (
        "plan cache: 0 hits, 0 misses (2 corrupt) — 0% hit rate"
    )
    rendered = render_manifest(_manifest(
        {"counters": {"plancache.corrupt": 2}}
    ))
    assert "0% hit rate" in rendered


def test_cache_summary_mixed_traffic():
    summary = _cache_summary({
        "plancache.hits": 3, "plancache.misses": 1
    })
    assert summary == (
        "plan cache: 3 hits, 1 misses (0 corrupt) — 75% hit rate"
    )


# ----------------------------------------------------------------------
# Decisions block rendering + cross-schema comparison notes
# ----------------------------------------------------------------------
def _decisions_block():
    return {
        "sample_k": 4,
        "epsilon": 0.001,
        "seed": 0,
        "probes": 10,
        "with_reference": 10,
        "wrong": 3,
        "near_plane": 2,
        "sampled": 4,
        "contexts": {
            "census:Q1": {
                "probes": 10,
                "with_reference": 10,
                "wrong": 3,
                "near_plane": 2,
                "margin": {"count": 10, "sum": 5.0, "min": 0.0,
                           "max": 2.0},
                "decades": {"tie": [2, 2], "-1": [8, 1]},
            },
        },
        "records": [],
    }


def test_decisions_block_renders_fragility_table():
    manifest = _manifest()
    manifest["decisions"] = _decisions_block()
    rendered = render_manifest(manifest)
    assert "decisions: 10 probes observed, 4 sampled" in rendered
    assert "2 within 0.001 of a switchover plane" in rendered
    assert "lookup paths" not in rendered
    assert "fragility by context" in rendered
    assert "census:Q1" in rendered
    assert "3/10" in rendered  # wrong / with_reference
    assert "wrong-choice fraction by margin decade:" in rendered
    assert "tie      2/2 (100.0%)" in rendered
    assert "1e-1     1/8 (12.5%)" in rendered


def test_absent_decisions_block_renders_nothing():
    rendered = render_manifest(_manifest())
    assert "decisions:" not in rendered
    manifest = _manifest()
    manifest["decisions"] = None
    assert "decisions:" not in render_manifest(manifest)


def test_comparison_notes_blocks_absent_in_older_schema():
    new = _manifest()
    new["schema_version"] = 4
    new["decisions"] = _decisions_block()
    old = _manifest()
    old["schema_version"] = 2
    rendered = render_comparison(new, old)
    assert (
        "note: decisions block absent in older schema "
        "(v2 predates v4)"
    ) in rendered
    # Blocks the newer manifest does not carry draw no note.
    assert "profile block absent" not in rendered
    assert "timeseries block absent" not in rendered
    # Same-version diffs stay silent.
    peer = _manifest()
    peer["schema_version"] = 4
    assert "absent in older schema" not in render_comparison(new, peer)


def test_v4_receipt_validates_renders_and_diffs_against_v5():
    """A v4 receipt still reads after the v5 bump.  Its ``timeseries``
    block and ``paths`` lookup-path counters are ignored, and the
    ``mem_*`` span attrs of the removed memory sampler render as plain
    attributes."""
    old = json.loads((HERE / "golden_manifest.json").read_text())
    new = json.loads((HERE / "golden_manifest_v5.json").read_text())
    assert old["schema_version"] == 4 and old["timeseries"]
    old["trace"][0]["attrs"].update(
        mem_rss_kb=81380.0, mem_traced_kb=100.0, mem_traced_peak_kb=512.0
    )
    old["decisions"] = _decisions_block()
    old["decisions"]["paths"] = {"dense": 10}
    old["decisions"]["contexts"]["census:Q1"]["paths"] = {"dense": 10}
    assert validate_manifest(old) == []
    assert validate_manifest(new) == []

    rendered = render_manifest(old)
    assert "schema v4" in rendered
    assert (
        "[mem_rss_kb=81380.0, mem_traced_kb=100.0, "
        "mem_traced_peak_kb=512.0]"
    ) in rendered
    assert "py-peak" not in rendered
    assert "timeseries" not in rendered
    assert "lookup paths" not in rendered
    assert "1e-1     1/8 (12.5%)" in rendered

    for first, second in ((old, new), (new, old)):
        diff = render_comparison(first, second)
        assert "result digests: IDENTICAL (1 artefacts)" in diff
        assert "absent in older schema" not in diff
