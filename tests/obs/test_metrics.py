"""Metrics registry: counters, gauges, decade histograms, merging."""

import warnings

import numpy as np
import pytest

from repro.obs import METRICS, Histogram, MetricsRegistry


def test_counter_get_or_create_and_inc():
    METRICS.counter("x").inc()
    METRICS.counter("x").inc(4)
    assert METRICS.counter_value("x") == 5
    assert METRICS.counter_value("never-touched") == 0


def test_gauge_last_write_wins():
    METRICS.gauge("g").set(1.5)
    METRICS.gauge("g").set(2.5)
    assert METRICS.snapshot()["gauges"]["g"] == 2.5


def test_histogram_state_and_decades():
    h = Histogram()
    h.observe(1.0)       # decade 0
    h.observe(5.0)       # decade 0
    h.observe(120.0)     # decade 2
    h.observe(0.03)      # decade -2
    h.observe(0.0)       # nonpositive
    state = h.state()
    assert state["count"] == 5
    assert state["sum"] == 126.03
    assert state["min"] == 0.0 and state["max"] == 120.0
    assert state["decades"] == {"-2": 1, "0": 2, "2": 1}
    assert state["nonpositive"] == 1
    assert h.mean == 126.03 / 5


def test_observe_many_accepts_ndarray():
    h = Histogram()
    h.observe_many(np.array([1.0, 10.0, 100.0]))
    h.observe_many(np.empty(0))
    assert h.count == 3
    assert h.state()["decades"] == {"0": 1, "1": 1, "2": 1}


def _scalar_observe_values():
    values = [0.0, -2.5, float("inf"), float("nan")]
    for exponent in range(-12, 13):
        power = 10.0 ** exponent
        values += [
            np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)
        ]
    return values


@pytest.mark.parametrize("value", _scalar_observe_values(), ids=repr)
def test_observe_matches_observe_many_of_one(value):
    scalar, many = Histogram(), Histogram()
    for histogram in (scalar, many):
        histogram.observe_many([3.0, 0.02])
    scalar.observe(value)
    many.observe_many((value,))
    assert scalar.state() == many.state()


@pytest.mark.parametrize(
    "value", [float("inf"), float("-inf"), float("nan")], ids=repr
)
def test_nonfinite_values_are_counted_apart(value):
    scalar, many = Histogram(), Histogram()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for histogram in (scalar, many):
            histogram.observe_many([3.0, 0.02])
        scalar.observe(value)
        many.observe_many((value,))
        many.observe_many(np.array([value, 5.0]))
        scalar.observe(5.0)
        scalar.observe(value)
    assert scalar.state() == many.state() == {
        "count": 3,
        "sum": 8.02,
        "min": 0.02,
        "max": 5.0,
        "decades": {"-2": 1, "0": 2},
        "nonpositive": 0,
        "nonfinite": 2,
    }


def test_merge_state_accepts_states_without_nonfinite():
    histogram = Histogram()
    histogram.observe(float("inf"))
    older = Histogram().state()
    del older["nonfinite"]
    older.update(count=1, sum=2.0, min=2.0, max=2.0, decades={"0": 1})
    histogram.merge_state(older)
    state = histogram.state()
    assert state["count"] == 1 and state["sum"] == 2.0
    assert state["nonfinite"] == 1


def test_snapshot_merge_equals_serial_totals():
    serial = MetricsRegistry()
    workers = [MetricsRegistry(), MetricsRegistry()]
    values = [[1.0, 2.0, 30.0], [0.5, 400.0]]
    for registry, chunk in zip(workers, values):
        registry.counter("tasks").inc(len(chunk))
        registry.histogram("gtc").observe_many(chunk)
    for chunk in values:
        serial.counter("tasks").inc(len(chunk))
        serial.histogram("gtc").observe_many(chunk)

    parent = MetricsRegistry()
    for registry in workers:
        parent.merge(registry.snapshot())
    assert parent.snapshot() == serial.snapshot()


def test_merge_histogram_min_max_none_handling():
    parent = MetricsRegistry()
    parent.histogram("h")  # created, never observed: min/max None
    child = MetricsRegistry()
    child.histogram("h").observe(7.0)
    parent.merge(child.snapshot())
    state = parent.snapshot()["histograms"]["h"]
    assert state["min"] == 7.0 and state["max"] == 7.0
    # Merging an empty histogram back changes nothing.
    parent.merge(
        {"histograms": {"h": Histogram().state()}}
    )
    assert parent.snapshot()["histograms"]["h"] == state


def test_histogram_merge_state_accumulates():
    first = Histogram()
    first.observe(1.0)
    first.observe(50.0)
    second = Histogram()
    second.observe(0.02)
    second.observe(300.0)
    second.observe(-1.0)
    first.merge_state(second.state())
    state = first.state()
    assert state["count"] == 5
    assert state["sum"] == 350.02
    assert state["min"] == -1.0 and state["max"] == 300.0
    assert state["decades"] == {"-2": 1, "0": 1, "1": 1, "2": 1}
    assert state["nonpositive"] == 1


def test_registry_merge_disjoint_names():
    parent = MetricsRegistry()
    parent.counter("only.parent").inc(2)
    parent.histogram("hist.parent").observe(1.0)
    child = MetricsRegistry()
    child.counter("only.child").inc(3)
    child.gauge("gauge.child").set(9)
    child.histogram("hist.child").observe(10.0)
    parent.merge(child.snapshot())
    snapshot = parent.snapshot()
    assert snapshot["counters"] == {
        "only.parent": 2, "only.child": 3
    }
    assert snapshot["gauges"] == {"gauge.child": 9}
    assert set(snapshot["histograms"]) == {
        "hist.parent", "hist.child"
    }
    assert snapshot["histograms"]["hist.child"]["count"] == 1


def test_registry_merge_overlapping_names():
    parent = MetricsRegistry()
    parent.counter("tasks").inc(2)
    parent.gauge("jobs").set(1)
    parent.histogram("gtc").observe(1.0)
    child = MetricsRegistry()
    child.counter("tasks").inc(5)
    child.gauge("jobs").set(4)
    child.histogram("gtc").observe(100.0)
    parent.merge(child.snapshot())
    snapshot = parent.snapshot()
    # Counters and histograms accumulate; gauges: last write wins.
    assert snapshot["counters"]["tasks"] == 7
    assert snapshot["gauges"]["jobs"] == 4
    gtc = snapshot["histograms"]["gtc"]
    assert gtc["count"] == 2
    assert gtc["min"] == 1.0 and gtc["max"] == 100.0
    assert gtc["decades"] == {"0": 1, "2": 1}


def test_reset_clears_everything():
    METRICS.counter("a").inc()
    METRICS.gauge("b").set(1)
    METRICS.histogram("c").observe(1)
    METRICS.reset()
    assert METRICS.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {}
    }
