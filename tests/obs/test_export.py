"""Trace Event export: layout, track mapping, schema validation."""

import json

from repro.obs import TRACER, span
from repro.obs.export import (
    MAIN_TRACK,
    event_names,
    span_names,
    trace_events,
    validate_trace_events,
    write_trace_events,
)


def _tree():
    """A manifest-style span tree with a grafted worker sub-tree."""
    return [
        {
            "name": "cli.figure",
            "wall_seconds": 3.0,
            "cpu_seconds": 2.5,
            "attrs": {"scenario": "fig5"},
            "children": [
                {
                    "name": "parallel.task",
                    "wall_seconds": 1.0,
                    "cpu_seconds": 0.9,
                    "attrs": {"index": 0},
                    "children": [
                        {
                            "name": "figure.query",
                            "wall_seconds": 0.8,
                            "cpu_seconds": 0.7,
                            "attrs": {},
                            "children": [],
                        },
                    ],
                },
                {
                    "name": "parallel.task",
                    "wall_seconds": 1.5,
                    "cpu_seconds": 1.4,
                    "attrs": {"index": 1},
                    "children": [],
                },
            ],
        },
    ]


def test_events_carry_trace_event_fields():
    events = trace_events(_tree())
    assert validate_trace_events(events) == []
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 4
    root = complete[0]
    assert root["name"] == "cli.figure"
    assert root["ts"] == 0.0
    assert root["dur"] == 3.0e6
    assert root["pid"] == 1
    assert root["tid"] == MAIN_TRACK
    assert root["args"]["scenario"] == "fig5"
    assert root["args"]["cpu_seconds"] == 2.5


def test_task_spans_get_distinct_tracks_inherited_by_children():
    events = trace_events(_tree())
    by_name = {}
    for event in events:
        if event["ph"] == "X":
            by_name.setdefault(event["name"], []).append(event)
    task_tids = sorted(e["tid"] for e in by_name["parallel.task"])
    assert task_tids == [1, 2]
    # The worker's grafted child renders on its task's track.
    (child,) = by_name["figure.query"]
    assert child["tid"] == 1


def test_siblings_are_laid_out_sequentially():
    complete = [
        e for e in trace_events(_tree()) if e["ph"] == "X"
    ]
    first_task, second_task = (
        e for e in complete if e["name"] == "parallel.task"
    )
    assert first_task["ts"] == 0.0
    assert second_task["ts"] == first_task["dur"]
    # Nesting is preserved: children fit inside their parent.
    root = complete[0]
    for event in complete[1:]:
        assert event["ts"] + event["dur"] <= root["dur"] + 1e-9


def test_metadata_names_process_and_every_track():
    events = trace_events(_tree())
    metadata = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in metadata} == {
        "process_name", "thread_name"
    }
    thread_names = {
        e["tid"]: e["args"]["name"]
        for e in metadata
        if e["name"] == "thread_name"
    }
    assert thread_names == {0: "main", 1: "task 0", 2: "task 1"}


def test_empty_trace_yields_only_process_metadata():
    events = trace_events(None)
    assert validate_trace_events(events) == []
    assert event_names(events) == set()
    assert [e["ph"] for e in events] == ["M", "M"]


def test_phase_set_round_trips():
    tree = _tree()
    assert event_names(trace_events(tree)) == span_names(tree)
    assert span_names(tree) == {
        "cli.figure", "parallel.task", "figure.query"
    }


def test_round_trip_from_live_tracer():
    TRACER.enabled = True
    with span("outer", kind="demo"):
        with span("inner"):
            pass
        with span("inner"):
            pass
    tree = TRACER.export()
    events = trace_events(tree)
    assert validate_trace_events(events) == []
    assert event_names(events) == {"outer", "inner"}


def test_validator_reports_malformed_events():
    assert validate_trace_events({"ph": "X"}) == [
        "trace must be a JSON array of events"
    ]
    errors = validate_trace_events([
        "not an object",
        {"ph": "B", "name": "bad-phase"},
        {"ph": "X", "name": 7, "pid": "one", "tid": 0},
    ])
    assert any("must be an object" in e for e in errors)
    assert any("ph must be" in e for e in errors)
    assert any("name must be a string" in e for e in errors)
    assert any("pid must be an integer" in e for e in errors)
    assert any("ts must be a number" in e for e in errors)


def test_write_trace_events_produces_loadable_json(tmp_path):
    path = write_trace_events(_tree(), tmp_path / "trace.json")
    data = json.loads(path.read_text())
    assert isinstance(data, list)
    assert validate_trace_events(data) == []
    assert event_names(data) == span_names(_tree())

def test_counter_events_validate_and_reject_malformed():
    good = {
        "name": "plancache.hits", "cat": "metric", "ph": "C",
        "ts": 1000.0, "pid": 1, "tid": 0, "args": {"value": 3},
    }
    assert validate_trace_events([good]) == []
    errors = validate_trace_events([
        {"name": "x", "ph": "C", "pid": 1, "tid": 0,
         "ts": "soon", "args": {"value": 1}},
        {"name": "y", "ph": "C", "pid": 1, "tid": 0,
         "ts": 1.0, "args": []},
    ])
    assert any("ts must be a number" in e for e in errors)
    assert any("args" in e for e in errors)
