"""Tests of the end-to-end benchmark's own logic (not of the program).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import offline  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import serveload  # noqa: E402
import tracer  # noqa: E402

SRC = HERE.parents[1] / "src"


# -- percentiles and the sample-count rule ----------------------------
def test_percentile_matches_numpy():
    values = list(np.random.default_rng(3).lognormal(size=997))
    for q in (0, 25, 50, 90, 99, 100):
        assert harness.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-12
        )


def test_tail_needs_ten_samples_beyond():
    assert harness.samples_beyond(3000, 99) == pytest.approx(30)
    harness.require_tail(1000, 99)
    with pytest.raises(harness.BenchError):
        harness.require_tail(999, 99)


def _latencies(latency_s):
    due = [i / 200 for i in range(len(latency_s))]
    return serveload.Phase(
        due=due, sent=due, done=[d + l for d, l in zip(due, latency_s)],
        status=[200] * len(due), replies=[{}] * len(due),
    )


def test_windowed_p99_ignores_a_stall_in_one_window():
    calm = [0.004] * 990 + [0.005] * 10
    stalled = [0.004] * 950 + [0.200] * 50
    phase = _latencies(calm + stalled + calm)
    assert [len(w.due) for w in phase.windows(3)] == [1000] * 3
    assert serveload.windowed(phase, 99, lambda w: 1.0) == \
        pytest.approx(harness.percentile(calm, 99))
    # Each window is divided by its own pace.
    assert serveload.windowed(phase, 50, lambda w: 2.0) == \
        pytest.approx(0.002)
    # Each window needs 10 samples beyond its p99.
    with pytest.raises(harness.BenchError):
        serveload.windowed(_latencies(calm * 2), 99, lambda w: 1.0)


def test_quartiles_follow_statistics_quantiles():
    assert harness.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert harness.quartiles([7.0]) == (7.0, 7.0, 7.0)


# -- pacing -----------------------------------------------------------
def test_slowdown_is_the_mean_round_time_of_overlapping_buckets():
    nominal = pace.NOMINAL_ROUND_S
    buckets = [
        [9.0, 100, 100 * nominal],    # before the interval
        [9.995, 4, 4 * nominal],      # overlaps its start
        [10.5, 4, 12 * nominal],
        [11.0, 2, 6 * nominal],       # starts at its end
        [12.0, 100, 900 * nominal],   # after it
    ]
    assert pace.slowdown(buckets, 10.0, 11.0) == pytest.approx(22 / 10)
    with pytest.raises(RuntimeError):
        pace.slowdown(buckets, 9.5, 9.9)


def test_pacer_measures_while_it_runs_and_stops():
    cpu = min(os.sched_getaffinity(0))
    pacer = pace.Pacer(cpu, HERE, dict(os.environ))
    start = time.perf_counter()
    time.sleep(0.3)
    end = time.perf_counter()
    # An idle CPU gives the loop all of its time: rounds at full speed.
    assert 0.05 < pacer.slowdown(start, end) < 20
    assert pacer.proc.returncode is not None
    pacer.close()  # a second close is harmless


# -- the saturated answer rate ------------------------------------------
def _saturated(capacity, count=1000):
    # Everything is due at once; a server answering ``capacity`` per
    # second after a 0.5 s start and a slow drain of the last 50.
    done = [0.5 + (i + 1) / capacity for i in range(count - 50)]
    done += [done[-1] + (i + 1) * 0.1 for i in range(50)]
    return serveload.Phase(
        due=[0.0] * count, sent=[0.0] * count, done=done,
        status=[200] * count, replies=[{}] * count,
    )


@pytest.mark.parametrize("capacity", [250.0, 600.0, 5000.0])
def test_answer_rate_counts_only_the_middle_of_a_saturated_phase(capacity):
    rate, (start, end) = serveload.answer_rate(_saturated(capacity))
    assert rate == pytest.approx(capacity)
    assert start == pytest.approx(0.5 + 101 / capacity)
    assert end == pytest.approx(0.5 + 901 / capacity)


@pytest.mark.parametrize("rate", [None, 200.0])
def test_phase_against_a_silent_server_ends_at_its_limit(rate):
    # The kernel completes connections into the backlog and buffers the
    # requests, but nothing ever replies.
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        start = time.perf_counter()
        phase = serveload.run_phase(port, [b"{}"] * 20, rate, limit=0.5)
        elapsed = time.perf_counter() - start
    assert 0.5 <= elapsed < 3.0
    assert phase.failed == 20
    assert all(done > 0 for done in phase.done)
    assert max(phase.from_due()) < 3.0


# -- compare verdicts -------------------------------------------------
def _verdict(parent, change, better="lower", bound=0.1):
    return run.verdict(parent, change, better, bound)["verdict"]


def test_verdict_improved_needs_nine_of_ten_and_gap_over_iqr():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert _verdict(parent, [9.0 + 0.01 * i for i in range(10)]) == \
        "improved"
    # 8/10 wins is not enough.
    change = [9.0] * 8 + [11.0, 11.0]
    assert _verdict(parent, change) == "unchanged"
    # Higher-is-better flips the direction.
    assert _verdict(parent, [p * 1.2 for p in parent], "higher") == \
        "improved"


def test_verdict_regressed_and_unchanged():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert _verdict(parent, [11.5] * 10) == "regressed"
    assert _verdict(parent, [10.3] * 10) == "unchanged"
    assert _verdict(parent, [p * 0.8 for p in parent], "higher") == \
        "regressed"


def test_verdict_unresolved_when_parent_spread_exceeds_bound():
    parent = [8.0, 9.0, 10.0, 11.0, 12.0, 8.0, 9.0, 10.0, 11.0, 12.0]
    assert _verdict(parent, [13.0] * 10) == "unresolved"
    # ...unless every change run beats every parent run.
    assert _verdict(parent, [7.0] * 10) == "improved"


SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s",
                        "better": "lower", "bound": 0.1}],
        "per_layer": []}


def _result(seed, started, value=1.0, digest="a", failed=0):
    return {
        "workload": "w", "seed": seed, "trace": False, "started": started,
        "attempted": 10, "failed": failed,
        "metrics": {"wall_s": {"value": value, "unit": "s"}},
        "digests": {f"d:{seed}": digest},
    }


def test_compare_flags_differing_digests_and_failure_rises():
    result = run.compare(
        [_result(0, 0.0), _result(1, 3.0, digest="b")],
        [_result(0, 1.0), _result(1, 2.0, digest="c", failed=1)], SPEC,
    )
    assert result["notes"] == []
    verdicts = [(name, row["verdict"]) for _, name, row in result["rows"]]
    assert verdicts == [("wall_s", "unchanged"), ("failed_frac", "regressed")]
    assert result["differing"] == [("w", "d:1")]


@pytest.mark.parametrize("starts, problem", [
    # parent, change start times per seed: P C, C P, P C, C P.
    ([(0, 1), (3, 2), (4, 5), (7, 6)], None),
    # Two blocks: every parent run first, then every change run.
    ([(0, 4), (1, 5), (2, 6), (3, 7)], "pairs did not run back to back"),
    # Back to back, but the parent always went first.
    ([(0, 1), (2, 3), (4, 5), (6, 7)],
     "the side that ran first did not alternate"),
])
def test_compare_requires_interleaved_runs(starts, problem):
    parent = [_result(seed, p) for seed, (p, _) in enumerate(starts)]
    change = [_result(seed, c, value=2.0) for seed, (_, c) in
              enumerate(starts)]
    pairs, reason = run.pair_runs(parent, change)
    assert reason == problem
    assert [p["seed"] for p, _ in pairs] == [0, 1, 2, 3]
    result = run.compare(parent, change, SPEC)
    wall = [row for _, name, row in result["rows"] if name == "wall_s"]
    # A doubled time is a regression only when drift is ruled out.
    assert wall[0]["verdict"] == ("regressed" if problem is None
                                  else "unresolved")
    assert result["notes"] == ([] if problem is None else [("w", problem)])


def _run(seed, value, trace=False):
    return {"workload": "w", "seed": seed, "trace": trace,
            "metrics": {"wall_s": {"value": value, "unit": "s"}}}


def test_spread_reports_iqr_and_max_over_min_of_untraced_runs():
    runs = [_run(s, v) for s, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
    record = run.spread(runs + [_run(0, 100.0, trace=True)])
    row = record["w"]["wall_s"]
    assert row["runs"] == 5
    assert row["median"] == 3.0
    assert row["iqr_frac"] == pytest.approx((4.5 - 1.5) / 3.0)
    assert row["spread"] == pytest.approx(4.0)


# -- offline metric definitions -----------------------------------------
def _command(wall_s, rss_mb=50.0, start=100.0):
    return harness.Command(code=0, start=start, end=start + wall_s,
                           rss_mb=rss_mb, stdout=b"")


def test_offline_metrics_are_paced_medians_over_identical_passes():
    passes = [
        offline.Pass([_command(1.0), _command(4.0), _command(2.0)], False),
        offline.Pass([_command(1.2), _command(5.0, 60.0), _command(2.0)],
                     False),
        offline.Pass([_command(0.8), _command(3.0), _command(9.0)], False),
    ]
    setup = [(0.0, 0.6), (1.0, 1.7), (2.0, 3.0)]

    def paced(start, end, power):  # a host running at half speed
        return (end - start) / 2.0 ** power

    out = offline.summarize(False, passes, 0, setup, 66, {}, paced, 1.0)
    assert out.attempted == 9 and out.failed == 0
    # Each command's median over passes, summed: 1.0 + 4.0 + 2.0; the
    # stalled 9.0 s command moves nothing.  Set-up probes have their
    # own power.
    assert out.metrics == {
        "setup_s": pytest.approx(0.7 / 2.0 ** harness.STARTUP_PACING),
        "wall_s": pytest.approx(3.5),
        "peak_rss_mb": 60.0,
    }
    assert out.raw == {
        "setup_s": pytest.approx(0.7), "wall_s": pytest.approx(7.0),
    }
    # Stand-ins only restate the pass time for the result line.
    assert out.standins == {
        "p50_ms": pytest.approx(3500.0), "p95_ms": pytest.approx(3500.0),
        "max_rate_qps": pytest.approx(66 / 3.5),
    }


@pytest.mark.parametrize("trace, count, budget_s, traced", [
    (False, 2, 9.0, [False, False]),
    (True, 1, 9.0, [False, True]),
    (True, 5, 9.0, [False, True, False, True, False]),
    # 0.1 s passes: a third pass would end past 0.25 s.
    (False, 5, 0.25, [False, False]),
    (False, 5, 0.0, [False]),
    (True, 5, 0.0, [False, True]),
])
def test_passes_alternate_tracing_and_respect_the_budget(
    trace, count, budget_s, traced
):
    def one_pass(is_traced):
        time.sleep(0.1)
        return offline.Pass([_command(0.1)], is_traced)

    passes = offline.run_passes(trace, count, budget_s, one_pass)
    assert [p.traced for p in passes] == traced


# -- the layer map ------------------------------------------------------
def test_layer_map_names_every_layer_metric_and_real_targets():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layers.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert set(layer_map["workloads"]) == workloads
    reports = {name: set(w["reports"])
               for name, w in layer_map["workloads"].items()}
    assert set().union(*reports.values()) == end_to_end
    assert list(layer_map["layers"]) == [m["name"] for m in spec["per_layer"]]
    for entry in layer_map["layers"].values():
        assert set(entry["moves"]) <= end_to_end
        named = set(entry["unmoved"]).union(*entry["moves"].values())
        assert named <= workloads
        # A layer metric moves an end-to-end metric only where the
        # workload reports it.
        for metric, moved_on in entry["moves"].items():
            assert all(metric in reports[w] for w in moved_on)
    empty = {"calls": {}, "seconds": {}, "max_seconds": {}, "counts": {}}
    assert set(harness.layer_metrics([empty], 1)) <= set(layer_map["layers"])


# -- row-digest pinning -----------------------------------------------
CSV = "query,1,10\nQ1,1,1\nQ5,1,2.5\nQ8,1,3\n"


def test_pinned_rows_detect_changes_outside_the_exclusions():
    pins = {"split": harness.pinnable_rows("split", CSV)}
    assert set(pins["split"]) == {"query", "Q1"}
    assert harness.check_rows("split", CSV, pins) == []
    # Excluded rows (truncated split sets) may change freely.
    assert harness.check_rows(
        "split", CSV.replace("Q5,1,2.5", "Q5,1,2.6"), pins) == []
    assert harness.check_rows(
        "split", CSV.replace("Q1,1,1", "Q1,1,1.1"), pins) == ["Q1"]
    assert harness.check_rows("split", "query,1,10\n", pins) == ["Q1"]


def test_pin_file_covers_every_row_but_the_exclusions():
    pins = harness.load_pins()
    for scenario in harness.FIG_SCENARIOS:
        queries = {f"Q{i}" for i in range(1, 23)}
        assert set(pins[scenario]) == (
            queries - harness.UNPINNED[scenario]
        ) | {"query"}


# -- wrappers ---------------------------------------------------------
def test_wrapped_function_returns_exactly_the_unwrapped_result():
    recorder = tracer.Recorder()
    result = object()

    def plain(a, b=2):
        return result

    wrapped = tracer.timed(plain, "layer", recorder, keep_sample=True)
    assert wrapped(1, b=3) is result
    assert wrapped.__name__ == "plain"
    assert recorder.calls == {"layer": 1}
    assert len(recorder.samples["layer"]) == 1

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.timed(boom, "layer", recorder)()
    assert recorder.calls == {"layer": 2}


def _repro(args, traced, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if traced:
        argv = [sys.executable, str(tracer.__file__),
                str(tmp_path / "trace.json"), *args]
    else:
        argv = [sys.executable, "-m", "repro", *args]
    return subprocess.run(argv, cwd=tmp_path, env=env, check=True,
                          capture_output=True).stdout


def test_traced_command_prints_byte_identical_stdout(tmp_path):
    args = ["figure", "split", "--queries", "Q3,Q6", "--deltas", "1,10",
            "--csv", "--no-cache", "--no-manifest"]
    plain = _repro(args, False, tmp_path)
    traced = _repro(args, True, tmp_path)
    assert traced == plain
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["calls"]["optimizer.dp"] == 2
    assert trace["calls"]["engine.task"] == 2
    assert trace["counts"]["sweep.probes"] > 0
    metrics = harness.layer_metrics([trace], 1)
    assert metrics["engine.tasks"] == 2
    assert 0 < metrics["core.lp_keep_ratio"] <= 1
