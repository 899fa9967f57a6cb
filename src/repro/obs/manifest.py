"""Machine-readable run manifests: reproducibility receipts.

Every CLI command writes a ``run-manifest.json`` capturing everything
needed to say whether two runs *should* have agreed and whether they
*did*:

* provenance — git SHA, package version, schema version, environment
  fingerprint (python / platform / numpy), creation time;
* inputs — the full CLI configuration, every RNG seed, and a SHA-256
  digest of the catalog statistics the run was computed against;
* outputs — SHA-256 digests of the rendered results (tables/CSV), so
  bit-exact reproduction is a string comparison;
* behaviour — the metrics snapshot (probe counts, cache hits, ...) and,
  with ``--trace``, the full span tree;
* resilience — per-task outcome accounting (``tasks``): planned,
  completed, resumed-from-journal and retried counts, plus the
  ``failed[]`` list of holes an ``--on-task-error skip`` run finished
  with.

Two runs of the same command reproduce iff their ``result_digests``
match; their ``metrics`` explain a divergence (different probe counts,
cache behaviour), and their ``trace`` shows where the time went.  The
schema is validated by :func:`validate_manifest` — strict on both
missing and unknown top-level fields, so any shape change must bump
``SCHEMA_VERSION`` (a golden-file test pins this).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "text_digest",
    "catalog_digest",
    "git_revision",
    "environment_fingerprint",
    "build_manifest",
    "empty_task_stats",
    "manifest_from_context",
    "write_manifest",
    "validate_manifest",
]

#: v2 added the ``tasks`` field (per-task outcome accounting: planned/
#: completed/resumed/retried counts plus the ``failed[]`` hole list).
#: v3 added the nullable ``profile`` (``--profile`` sampling summary:
#: hz, samples, hot-function table) and ``timeseries`` (counter-curve
#: summary of a since-removed sampler) fields.
#: v4 added the nullable ``decisions`` field (``--decisions`` fragility
#: block: margin histograms, near-plane fractions, sampled explain
#: records).
#: v5 dropped ``timeseries``, and the ``paths`` lookup-path counters
#: from the ``decisions`` block and its contexts.
SCHEMA_VERSION = 5

#: Top-level manifest schema: field -> allowed instance types.
_FIELDS: dict[str, tuple] = {
    "schema_version": (int,),
    "package_version": (str,),
    "command": (str,),
    "config": (dict,),
    "git_sha": (str, type(None)),
    "created_unix": (int, float),
    "environment": (dict,),
    "seeds": (dict,),
    "catalog_digest": (str, type(None)),
    "result_digests": (dict,),
    "metrics": (dict,),
    "trace": (list, type(None)),
    "timing": (dict,),
    "tasks": (dict,),
    "profile": (dict, type(None)),
    "decisions": (dict, type(None)),
}

#: Nullable blocks introduced after v2, by the version that added them.
#: Older manifests legitimately lack these fields; consumers (the
#: ``repro report`` diff) must treat absence as "older schema", not an
#: error.
_FIELDS_ADDED_IN = {
    3: ("profile",),
    4: ("decisions",),
}

#: Nullable blocks a later version dropped: field -> (version that
#: added it, version that dropped it).  Receipts in between must still
#: carry the block; it is accepted as plain data and never read.
_FIELDS_RETIRED = {
    "timeseries": (3, 5),
}

#: Schema versions ``validate_manifest`` accepts (each against its own
#: field set, so v2-v4 receipts stay readable after the v5 bump).
SUPPORTED_VERSIONS = tuple(range(2, SCHEMA_VERSION + 1))


def _fields_for_version(version: int) -> dict[str, tuple]:
    fields = dict(_FIELDS)
    for added_in, names in _FIELDS_ADDED_IN.items():
        if version < added_in:
            for name in names:
                fields.pop(name, None)
    for name, (added_in, dropped_in) in _FIELDS_RETIRED.items():
        if added_in <= version < dropped_in:
            fields[name] = (dict, type(None))
    return fields

#: ``tasks`` sub-schema (counts plus the failure list).
_TASK_COUNTS = ("planned", "completed", "resumed", "retried")


def empty_task_stats() -> dict[str, Any]:
    """The ``tasks`` field of a run that fanned out no tasks."""
    return {
        "planned": 0,
        "completed": 0,
        "resumed": 0,
        "retried": 0,
        "failed": [],
    }


def text_digest(text: str) -> str:
    """SHA-256 of a rendered result (the reproducibility currency)."""
    return hashlib.sha256(text.encode()).hexdigest()


def catalog_digest(catalog: Any) -> str:
    """SHA-256 of the pickled catalog statistics."""
    return hashlib.sha256(pickle.dumps(catalog)).hexdigest()


def git_revision(cwd: "str | os.PathLike | None" = None) -> "str | None":
    """The repository HEAD SHA, or None outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def environment_fingerprint() -> dict[str, str]:
    """Enough platform detail to explain a timing (not a result) diff."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "executable": sys.executable,
    }


def build_manifest(
    command: str,
    config: Mapping[str, Any],
    seeds: "Mapping[str, Any] | None" = None,
    catalog_sha: "str | None" = None,
    result_digests: "Mapping[str, str] | None" = None,
    metrics: "Mapping[str, Any] | None" = None,
    trace: "list | None" = None,
    wall_seconds: float = 0.0,
    cpu_seconds: float = 0.0,
    tasks: "Mapping[str, Any] | None" = None,
    profile: "Mapping[str, Any] | None" = None,
    decisions: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """Assemble a schema-valid manifest dict for one finished run."""
    from .. import __version__

    return {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "config": dict(config),
        "git_sha": git_revision(),
        "created_unix": time.time(),
        "environment": environment_fingerprint(),
        "seeds": dict(seeds or {}),
        "catalog_digest": catalog_sha,
        "result_digests": dict(result_digests or {}),
        "metrics": dict(
            metrics
            or {"counters": {}, "gauges": {}, "histograms": {}}
        ),
        "trace": trace,
        "timing": {
            "wall_seconds": float(wall_seconds),
            "cpu_seconds": float(cpu_seconds),
        },
        "tasks": dict(tasks) if tasks else empty_task_stats(),
        "profile": dict(profile) if profile else None,
        "decisions": dict(decisions) if decisions else None,
    }


def manifest_from_context(
    command: str,
    config: Mapping[str, Any],
    ctx: Any,
    metrics: "Mapping[str, Any] | None" = None,
    trace: "list | None" = None,
    wall_seconds: float = 0.0,
    cpu_seconds: float = 0.0,
    profile: "Mapping[str, Any] | None" = None,
    decisions: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """Assemble a manifest straight from a run context.

    ``ctx`` is duck-typed (so this module stays below the experiment
    layer): anything with ``seeds``, ``result_digests`` and
    ``catalog_sha`` attributes — normally a
    :class:`repro.experiments.engine.RunContext` — works; ``None``
    yields an empty-provenance manifest (commands that touch no
    catalog).
    """
    return build_manifest(
        command=command,
        config=config,
        seeds=getattr(ctx, "seeds", None),
        catalog_sha=getattr(ctx, "catalog_sha", None),
        result_digests=getattr(ctx, "result_digests", None),
        metrics=metrics,
        trace=trace,
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        tasks=getattr(ctx, "task_stats", None),
        profile=profile,
        decisions=decisions,
    )


def write_manifest(
    manifest: Mapping[str, Any], path: "str | os.PathLike"
) -> Path:
    """Write a manifest as stable, sorted, human-diffable JSON."""
    target = Path(path)
    target.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return target


def _validate_span(node: Any, where: str, errors: list[str]) -> None:
    if not isinstance(node, dict):
        errors.append(f"{where}: span must be an object")
        return
    if not isinstance(node.get("name"), str):
        errors.append(f"{where}: span name must be a string")
    for field in ("wall_seconds", "cpu_seconds"):
        if not isinstance(node.get(field), (int, float)):
            errors.append(f"{where}: span {field} must be a number")
    if not isinstance(node.get("attrs"), dict):
        errors.append(f"{where}: span attrs must be an object")
    children = node.get("children")
    if not isinstance(children, list):
        errors.append(f"{where}: span children must be a list")
        return
    for position, child in enumerate(children):
        _validate_span(child, f"{where}.children[{position}]", errors)


def validate_manifest(data: Any) -> list[str]:
    """All schema violations in ``data`` (empty list == valid)."""
    if not isinstance(data, dict):
        return ["manifest must be a JSON object"]
    errors: list[str] = []
    version = data.get("schema_version")
    if isinstance(version, int) and version in SUPPORTED_VERSIONS:
        fields = _fields_for_version(version)
    else:
        fields = _FIELDS
        if isinstance(version, int):
            errors.append(
                f"schema_version {version} not supported (accepted: "
                f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)})"
            )
    for field, types in fields.items():
        if field not in data:
            errors.append(f"missing field: {field}")
        elif not isinstance(data[field], types):
            errors.append(
                f"field {field}: expected "
                f"{'/'.join(t.__name__ for t in types)}, got "
                f"{type(data[field]).__name__}"
            )
    for field in data:
        if field not in fields:
            errors.append(f"unknown field: {field}")
    metrics = data.get("metrics")
    if isinstance(metrics, dict):
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(metrics.get(section), dict):
                errors.append(
                    f"metrics.{section} must be an object"
                )
    timing = data.get("timing")
    if isinstance(timing, dict):
        for field in ("wall_seconds", "cpu_seconds"):
            if not isinstance(timing.get(field), (int, float)):
                errors.append(f"timing.{field} must be a number")
    digests = data.get("result_digests")
    if isinstance(digests, dict):
        for name, value in digests.items():
            if not isinstance(value, str):
                errors.append(
                    f"result_digests.{name} must be a string"
                )
    tasks = data.get("tasks")
    if isinstance(tasks, dict):
        for field in _TASK_COUNTS:
            if not isinstance(tasks.get(field), int):
                errors.append(f"tasks.{field} must be an integer")
        failed = tasks.get("failed")
        if not isinstance(failed, list):
            errors.append("tasks.failed must be a list")
        else:
            for position, entry in enumerate(failed):
                if not isinstance(entry, dict):
                    errors.append(
                        f"tasks.failed[{position}] must be an object"
                    )
                    continue
                for field in ("label", "error"):
                    if not isinstance(entry.get(field), str):
                        errors.append(
                            f"tasks.failed[{position}].{field} "
                            "must be a string"
                        )
                if not isinstance(entry.get("attempts"), int):
                    errors.append(
                        f"tasks.failed[{position}].attempts "
                        "must be an integer"
                    )
    trace = data.get("trace")
    if isinstance(trace, list):
        for position, node in enumerate(trace):
            _validate_span(node, f"trace[{position}]", errors)
    profile = data.get("profile")
    if isinstance(profile, dict):
        for field in ("hz", "samples", "distinct_stacks"):
            if not isinstance(profile.get(field), int):
                errors.append(f"profile.{field} must be an integer")
        if not isinstance(profile.get("top"), list):
            errors.append("profile.top must be a list")
    decisions = data.get("decisions")
    if isinstance(decisions, dict):
        for field in ("sample_k", "probes", "near_plane", "sampled"):
            if not isinstance(decisions.get(field), int):
                errors.append(f"decisions.{field} must be an integer")
        if not isinstance(decisions.get("epsilon"), (int, float)):
            errors.append("decisions.epsilon must be a number")
        if not isinstance(decisions.get("contexts"), dict):
            errors.append("decisions.contexts must be an object")
        if not isinstance(decisions.get("records"), list):
            errors.append("decisions.records must be a list")
    return errors
