"""Chrome/Perfetto Trace Event export of manifest span trees.

The run manifest stores the span tree as nested dicts with *durations*
only (``wall_seconds`` per node) — good for diffing, invisible to
trace viewers.  :func:`trace_events` converts that tree into the Trace
Event JSON format (an array of complete events with ``ph``/``ts``/
``dur``/``pid``/``tid``), loadable in ``ui.perfetto.dev`` or
``chrome://tracing``, so a 20-minute census becomes a zoomable
flame-ish timeline instead of a wall of numbers.

Because the manifest carries no start timestamps, the exporter lays
spans out deterministically: every span starts where its previous
sibling ended (the first child at its parent's start), which preserves
exact durations and nesting and approximates concurrency as
sequential — faithful for serial runs, conservative for parallel ones.

Track mapping: the main process renders on ``tid 0``; every per-task
span (the engine's ``parallel.task`` spans, which is what ``--jobs N``
workers graft their sub-trees under) gets its own track id derived
from its task index, so worker sub-trees land on visually distinct
rows.  Metadata events name the process and every track.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "MAIN_TRACK",
    "trace_events",
    "event_names",
    "span_names",
    "validate_trace_events",
    "write_trace_events",
]

#: The track id of spans outside any per-task sub-tree.
MAIN_TRACK = 0

#: Microseconds per second (trace-event timestamps are in us).
_US = 1_000_000.0


def _is_task_span(node: Mapping[str, Any]) -> bool:
    """Spans that open one engine task (and receive worker grafts)."""
    name = str(node.get("name", ""))
    attrs = node.get("attrs") or {}
    return name.endswith(".task") and isinstance(
        attrs.get("index"), int
    )


def _emit(
    node: Mapping[str, Any],
    start_us: float,
    pid: int,
    tid: int,
    events: list[dict[str, Any]],
    tracks: dict[int, str],
) -> None:
    duration_us = float(node.get("wall_seconds", 0.0)) * _US
    if _is_task_span(node):
        tid = 1 + int((node.get("attrs") or {})["index"])
        tracks.setdefault(
            tid, f"task {(node.get('attrs') or {})['index']}"
        )
    args = {
        str(key): value
        for key, value in (node.get("attrs") or {}).items()
    }
    args["cpu_seconds"] = node.get("cpu_seconds", 0.0)
    events.append({
        "name": str(node.get("name", "?")),
        "cat": "span",
        "ph": "X",
        "ts": start_us,
        "dur": duration_us,
        "pid": pid,
        "tid": tid,
        "args": args,
    })
    cursor = start_us
    for child in node.get("children") or ():
        _emit(child, cursor, pid, tid, events, tracks)
        cursor += float(child.get("wall_seconds", 0.0)) * _US


def trace_events(
    trace: "Iterable[Mapping[str, Any]] | None", pid: int = 1
) -> list[dict[str, Any]]:
    """A manifest span tree as a Trace Event array.

    Returns complete (``ph="X"``) events — one per span, durations in
    microseconds — followed by the metadata (``ph="M"``) events naming
    the process and tracks.  An empty or missing tree yields just the
    process metadata.
    """
    events: list[dict[str, Any]] = []
    tracks: dict[int, str] = {MAIN_TRACK: "main"}
    cursor = 0.0
    for node in trace or ():
        _emit(node, cursor, pid, MAIN_TRACK, events, tracks)
        cursor += float(node.get("wall_seconds", 0.0)) * _US
    metadata: list[dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": MAIN_TRACK,
        "args": {"name": "repro"},
    }]
    for tid, label in sorted(tracks.items()):
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        })
    return events + metadata


def event_names(events: Iterable[Mapping[str, Any]]) -> set[str]:
    """The distinct span names in an event array (metadata excluded)."""
    return {
        str(event.get("name"))
        for event in events
        if event.get("ph") == "X"
    }


def span_names(trace: "Iterable[Mapping[str, Any]] | None") -> set[str]:
    """The distinct span names in a manifest span tree."""
    names: set[str] = set()
    stack = list(trace or ())
    while stack:
        node = stack.pop()
        names.add(str(node.get("name", "?")))
        stack.extend(node.get("children") or ())
    return names


def validate_trace_events(data: Any) -> list[str]:
    """Trace Event format violations (empty list == valid)."""
    if not isinstance(data, list):
        return ["trace must be a JSON array of events"]
    errors: list[str] = []
    for position, event in enumerate(data):
        where = f"events[{position}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: must be an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M", "C", "i"):
            errors.append(f"{where}: ph must be 'X', 'M', 'C' or 'i'")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: name must be a string")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                errors.append(f"{where}: {field} must be an integer")
        if phase == "X":
            for field in ("ts", "dur"):
                if not isinstance(event.get(field), (int, float)):
                    errors.append(
                        f"{where}: {field} must be a number"
                    )
        elif phase == "C":
            if not isinstance(event.get("ts"), (int, float)):
                errors.append(f"{where}: ts must be a number")
            if not isinstance(event.get("args"), dict):
                errors.append(f"{where}: args must be an object")
        elif phase == "i":
            if not isinstance(event.get("ts"), (int, float)):
                errors.append(f"{where}: ts must be a number")
    return errors


def write_trace_events(
    trace: "Iterable[Mapping[str, Any]] | None",
    path: "str | os.PathLike",
    pid: int = 1,
    instant_events: (
        "Iterable[Mapping[str, Any]] | None"
    ) = None,
) -> Path:
    """Convert a span tree and write the event array as JSON.

    ``instant_events`` (ready-made ``ph="i"`` events, e.g. from
    :func:`repro.obs.decisions.decision_instant_events`) are appended
    verbatim.
    """
    events = trace_events(trace, pid=pid)
    if instant_events is not None:
        events.extend(dict(event) for event in instant_events)
    target = Path(path)
    target.write_text(json.dumps(events) + "\n")
    return target
