"""Human-readable rendering of run manifests (``repro report``).

One manifest renders into a provenance header, a per-phase wall/CPU
breakdown of the span tree, the metric snapshot, and a cache summary.
Two manifests render into a reproducibility diff: do the result digests
match, which metric totals moved, and how the timings compare — the
workflow for answering "why do these two runs differ?".
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from .manifest import _FIELDS_ADDED_IN

__all__ = [
    "render_manifest",
    "render_comparison",
    "wrong_choice_by_decade",
]

_INDENT = "  "


def _format_attrs(attrs: Mapping[str, Any]) -> str:
    if not attrs:
        return ""
    parts = ", ".join(
        f"{key}={value}" for key, value in sorted(attrs.items())
    )
    return f"  [{parts}]"


def _span_lines(
    node: Mapping[str, Any], depth: int, lines: list[str]
) -> None:
    label = _INDENT * depth + str(node.get("name", "?"))
    lines.append(
        f"{label:<44} {node.get('wall_seconds', 0.0):9.3f}s "
        f"{node.get('cpu_seconds', 0.0):9.3f}s"
        + _format_attrs(node.get("attrs") or {})
    )
    for child in node.get("children") or ():
        _span_lines(child, depth + 1, lines)


def _cache_summary(counters: Mapping[str, Any]) -> "str | None":
    hits = counters.get("plancache.hits", 0)
    misses = counters.get("plancache.misses", 0)
    corrupt = counters.get("plancache.corrupt", 0)
    if not (hits or misses or corrupt):
        return None
    total = hits + misses
    rate = 100.0 * hits / total if total else 0.0
    return (
        f"plan cache: {hits} hits, {misses} misses "
        f"({corrupt} corrupt) — {rate:.0f}% hit rate"
    )


def render_manifest(manifest: Mapping[str, Any]) -> str:
    """One manifest as a phase/time/cache breakdown."""
    lines: list[str] = []
    created = manifest.get("created_unix")
    when = (
        time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime(created))
        if isinstance(created, (int, float)) else "?"
    )
    timing = manifest.get("timing") or {}
    lines.append(
        f"run: repro {manifest.get('command', '?')}  ({when})"
    )
    lines.append(
        f"version {manifest.get('package_version', '?')}  "
        f"git {str(manifest.get('git_sha') or 'unknown')[:12]}  "
        f"schema v{manifest.get('schema_version', '?')}"
    )
    environment = manifest.get("environment") or {}
    if environment:
        lines.append(
            f"python {environment.get('python', '?')} on "
            f"{environment.get('platform', '?')}  "
            f"numpy {environment.get('numpy', '?')}"
        )
    lines.append(
        f"total: {timing.get('wall_seconds', 0.0):.3f}s wall, "
        f"{timing.get('cpu_seconds', 0.0):.3f}s cpu"
    )
    catalog_sha = manifest.get("catalog_digest")
    if catalog_sha:
        lines.append(f"catalog digest: {catalog_sha[:16]}…")
    seeds = manifest.get("seeds") or {}
    if seeds:
        lines.append(
            "seeds: " + ", ".join(
                f"{name}={value}"
                for name, value in sorted(seeds.items())
            )
        )

    digests = manifest.get("result_digests") or {}
    if digests:
        lines.append("")
        lines.append("result digests:")
        for name, value in sorted(digests.items()):
            lines.append(f"  {name:<20} {value}")

    tasks = manifest.get("tasks") or {}
    if tasks.get("planned"):
        lines.append("")
        summary = (
            f"tasks: {tasks.get('completed', 0)}/"
            f"{tasks.get('planned', 0)} completed"
        )
        if tasks.get("resumed"):
            summary += f", {tasks['resumed']} resumed from journal"
        if tasks.get("retried"):
            summary += f", {tasks['retried']} retries"
        failed = tasks.get("failed") or []
        if failed:
            summary += f", {len(failed)} FAILED (run has holes)"
        lines.append(summary)
        for entry in failed:
            lines.append(
                f"  FAILED {entry.get('label', '?'):<24} "
                f"after {entry.get('attempts', '?')} attempt(s): "
                f"{entry.get('error', '?')}"
            )

    trace = manifest.get("trace")
    lines.append("")
    if trace:
        header = f"{'phase':<44} {'wall':>10} {'cpu':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for node in trace:
            _span_lines(node, 0, lines)
    else:
        lines.append("phases: (no trace recorded — rerun with --trace)")

    metrics = manifest.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    if not (counters or gauges or histograms):
        lines.append("")
        lines.append("metrics: (none recorded)")
    else:
        lines.append("")
        lines.append("metrics:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<36} {value:>14,}")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<36} {value:>14}")
        for name, state in sorted(histograms.items()):
            count = state.get("count", 0)
            mean = (
                state.get("sum", 0.0) / count if count else 0.0
            )
            lines.append(
                f"  {name:<36} n={count} mean={mean:.3g} "
                f"min={state.get('min')} max={state.get('max')}"
            )
    summary = _cache_summary(counters)
    if summary:
        lines.append("")
        lines.append(summary)
    _profile_lines(manifest.get("profile"), lines)
    _decisions_lines(manifest.get("decisions"), lines)
    return "\n".join(lines)


def _profile_lines(
    profile: "Mapping[str, Any] | None", lines: list[str]
) -> None:
    """The ``--profile`` hot-function table of a manifest."""
    if not profile:
        return
    lines.append("")
    lines.append(
        f"profile: {profile.get('samples', 0)} samples at "
        f"{profile.get('hz', '?')} Hz over "
        f"{profile.get('duration_seconds', 0.0):.2f}s "
        f"({profile.get('distinct_stacks', 0)} distinct stacks)"
    )
    top = profile.get("top") or []
    if not top:
        return
    header = f"{'hot function':<56} {'total':>7} {'self':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for entry in top:
        lines.append(
            f"{str(entry.get('frame', '?')):<56} "
            f"{entry.get('total_samples', 0):>7} "
            f"{entry.get('self_samples', 0):>7}"
        )


def _decade_label(key: str) -> str:
    """A decade-bucket key rendered as a magnitude (``"-3"`` → 1e-3)."""
    if key == "tie":
        return "tie"
    try:
        return f"1e{int(key)}"
    except (TypeError, ValueError):
        return str(key)


def _decade_sort_key(key: str) -> "tuple[int, float]":
    if key == "tie":
        return (0, 0.0)
    try:
        return (1, float(key))
    except (TypeError, ValueError):
        return (2, 0.0)


def wrong_choice_by_decade(
    contexts: Mapping[str, Mapping[str, Any]],
) -> list[tuple[str, int, int]]:
    """``(decade label, probes, wrong)`` per margin decade, merged over
    the contexts of a decisions block.

    Each context's ``decades`` maps a decade to ``[probes, wrong]``:
    the probes whose margin lands in it, and those where the stale
    reference plan differed from the winner.  The tie bucket comes
    first, then decades in ascending order; empty decades are left
    out.
    """
    merged: dict[str, list[int]] = {}
    for ctx in contexts.values():
        for decade, pair in (ctx.get("decades") or {}).items():
            bucket = merged.setdefault(decade, [0, 0])
            bucket[0] += int(pair[0])
            bucket[1] += int(pair[1])
    return [
        (_decade_label(decade), total, wrong)
        for decade, (total, wrong) in sorted(
            merged.items(), key=lambda item: _decade_sort_key(item[0])
        )
        if total
    ]


def _decisions_lines(
    decisions: "Mapping[str, Any] | None", lines: list[str]
) -> None:
    """The ``--decisions`` fragility table of a manifest."""
    if not decisions:
        return
    lines.append("")
    lines.append(
        f"decisions: {decisions.get('probes', 0)} probes observed, "
        f"{decisions.get('sampled', 0)} sampled "
        f"(bottom-{decisions.get('sample_k', 0)} by hash), "
        f"{decisions.get('near_plane', 0)} within "
        f"{decisions.get('epsilon', 0.0):g} of a switchover plane"
    )
    contexts = decisions.get("contexts") or {}
    if contexts:
        lines.append("")
        header = (
            f"{'fragility by context':<34} {'probes':>8} "
            f"{'near-plane':>10} {'wrong':>12} {'margin-mean':>11}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for name, ctx in sorted(contexts.items()):
            margin = ctx.get("margin") or {}
            count = margin.get("count", 0)
            mean = (
                f"{margin.get('sum', 0.0) / count:.3g}"
                if count else "-"
            )
            with_ref = ctx.get("with_reference", 0)
            wrong = (
                f"{ctx.get('wrong', 0)}/{with_ref}"
                if with_ref else "-"
            )
            lines.append(
                f"{name:<34} {ctx.get('probes', 0):>8} "
                f"{ctx.get('near_plane', 0):>10} {wrong:>12} "
                f"{mean:>11}"
            )
    by_decade = wrong_choice_by_decade(contexts)
    if by_decade:
        lines.append("")
        lines.append("wrong-choice fraction by margin decade:")
        for label, total, wrong_count in by_decade:
            lines.append(
                f"{_INDENT}{label:<8} {wrong_count}/{total} "
                f"({100.0 * wrong_count / total:.1f}%)"
            )


def _top_level_walls(
    manifest: Mapping[str, Any]
) -> dict[str, float]:
    walls: dict[str, float] = {}
    for node in manifest.get("trace") or ():
        name = str(node.get("name", "?"))
        walls[name] = walls.get(name, 0.0) + float(
            node.get("wall_seconds", 0.0)
        )
    return walls


def _schema_notes(
    first: Mapping[str, Any], second: Mapping[str, Any]
) -> list[str]:
    """Notes for nullable blocks one manifest's schema predates.

    Diffing a v4 manifest (which may carry a ``decisions`` block)
    against a v2 one must say the block *cannot exist* on the older
    side rather than silently treating it as "not recorded".
    """
    notes: list[str] = []
    for added_in, fields in sorted(_FIELDS_ADDED_IN.items()):
        for field in sorted(fields):
            for older, newer in ((first, second), (second, first)):
                version = older.get("schema_version")
                if not isinstance(version, int) or version >= added_in:
                    continue
                if newer.get(field) is None:
                    continue
                notes.append(
                    f"note: {field} block absent in older schema "
                    f"(v{version} predates v{added_in}) — "
                    "not compared"
                )
    return notes


def render_comparison(
    first: Mapping[str, Any], second: Mapping[str, Any]
) -> str:
    """Diff two manifests: digests, metric totals, timings."""
    lines: list[str] = []
    lines.append(
        f"comparing: repro {first.get('command', '?')} "
        f"vs repro {second.get('command', '?')}"
    )

    digests_a = first.get("result_digests") or {}
    digests_b = second.get("result_digests") or {}
    names = sorted(set(digests_a) | set(digests_b))
    identical = bool(names) and all(
        digests_a.get(name) == digests_b.get(name) for name in names
    )
    lines.append("")
    if not names:
        lines.append("result digests: none recorded")
    elif identical:
        lines.append(
            f"result digests: IDENTICAL ({len(names)} artefacts) — "
            "the runs reproduce bit-exactly"
        )
    else:
        lines.append("result digests: DIFFER")
        for name in names:
            status = (
                "match" if digests_a.get(name) == digests_b.get(name)
                else "MISMATCH"
            )
            lines.append(f"  {name:<20} {status}")
    failed_a = len((first.get("tasks") or {}).get("failed") or [])
    failed_b = len((second.get("tasks") or {}).get("failed") or [])
    if failed_a or failed_b:
        lines.append(
            f"note: runs have skipped-task holes "
            f"({failed_a} vs {failed_b}) — digests cover only the "
            "tasks that completed"
        )

    for note in _schema_notes(first, second):
        lines.append(note)

    counters_a = (first.get("metrics") or {}).get("counters") or {}
    counters_b = (second.get("metrics") or {}).get("counters") or {}
    moved = [
        name
        for name in sorted(set(counters_a) | set(counters_b))
        if counters_a.get(name, 0) != counters_b.get(name, 0)
    ]
    lines.append("")
    if not moved:
        lines.append("metric totals: identical")
    else:
        lines.append("metric totals that differ:")
        for name in moved:
            lines.append(
                f"  {name:<36} {counters_a.get(name, 0):>12,} -> "
                f"{counters_b.get(name, 0):>12,}"
            )

    timing_a = (first.get("timing") or {}).get("wall_seconds", 0.0)
    timing_b = (second.get("timing") or {}).get("wall_seconds", 0.0)
    lines.append("")
    lines.append(
        f"wall time: {timing_a:.3f}s vs {timing_b:.3f}s"
        + (
            f"  ({timing_a / timing_b:.2f}x)"
            if timing_b else ""
        )
    )
    walls_a = _top_level_walls(first)
    walls_b = _top_level_walls(second)
    for name in sorted(set(walls_a) | set(walls_b)):
        lines.append(
            f"  {name:<36} {walls_a.get(name, 0.0):9.3f}s vs "
            f"{walls_b.get(name, 0.0):9.3f}s"
        )
    return "\n".join(lines)
