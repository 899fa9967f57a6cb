"""The offline workloads: cold and warm figures, and the generated census.

Commands run one after another with default flags, each in a fresh
process on the measured CPU.  A *pass* is the workload's fixed unit of
work and a run holds identical passes, so the reported times are paced
medians over identical work.  A traced run holds the same passes (at
least two) and traces every second one.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from harness import (
    FIG_SCENARIOS,
    STARTUP_PACING,
    Bench,
    BenchError,
    Command,
    Interval,
    check_rows,
    layer_metrics,
    load_pins,
    sha256,
)

#: Spawn until the figure commands can do their first unit of work:
#: the CLI imported and the TPC-H catalog and queries built.
FIG_READY = (
    "import repro.cli\n"
    "from repro.experiments.engine import RunContext\n"
    "RunContext().queries\n"
    "print('ready', flush=True)\n"
)
CLI_READY = "import repro.cli\nprint('ready', flush=True)\n"

#: Passes per run, and the seconds the warm ones may take.  A cold pass
#: takes 15-22 s on a 2-vCPU host and a warm one 2.6-4 s; on a host
#: slowed enough that the next warm pass would overrun, the run stops
#: early.  Census is one 600-query command (11-17 s), so that per-task
#: engine overhead is visible (the figure commands have 22 tasks each).
#: Paced times vary little from pass to pass, so one pass of each
#: suffices; the sizes keep the 92 runs of a benchmark session inside
#: its time limit on a host running 1.5x slow.
COLD_PASSES = 1
WARM_PASSES, WARM_BUDGET_S = 3, 12.0
CENSUS_PASSES = 1
CENSUS_QUERIES = 600
#: The census stream is fixed, not the run's seed: the mix of query
#: shapes changes a stream's total work by 5.6% (coefficient of
#: variation over ten stream seeds), against 2.1% between two paced
#: runs of one stream.
CENSUS_SEED = 0
#: The power of the slowdown a command's time is divided by
#: (``Bench.paced``).  A cold figure or census command computes for
#: 4-20 s and its time follows the slowdown with slope 0.93-1.05.  A
#: warm figure command spends about half of its 1-1.7 s starting and
#: importing, slope 0.75-0.85; over ten runs the power 0.8 instead of 1
#: took fig-warm wall_s's quartile distance over the median from 0.092
#: to 0.041.
COLD_PACING = 1.0
WARM_PACING = 0.8


#: Paced seconds of an interval to a power (``Bench.paced``).
Pace = Callable[[float, float, float], float]


@dataclass
class Pass:
    commands: list[Command]
    traced: bool

    @property
    def wall_s(self) -> float:
        return sum(command.wall_s for command in self.commands)


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` are the workload's own metrics (``reports`` in
    ``layers.json``).  ``standins`` fill the end-to-end metrics the
    workload does not report, because the result line must carry every
    metric of ``BENCHMARK.json``; they repeat a measurement already in
    ``metrics`` and ``compare`` never judges them.  ``raw`` holds the
    paced metrics as measured, before pacing.
    """

    attempted: int
    failed: int
    metrics: dict[str, float]
    digests: dict[str, str]
    standins: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)


def run_passes(
    trace: bool,
    count: int,
    budget_s: float,
    one_pass: Callable[[bool], Pass],
) -> list[Pass]:
    """Up to ``count`` passes; a traced run traces every second one.

    A run stops early, after at least one pass (two when traced), when
    one more pass of the mean length so far would end past
    ``budget_s``: the benchmark's total time is bounded, so a slow host
    gets fewer samples rather than longer runs.
    """
    least = 2 if trace else 1
    start = time.perf_counter()
    passes: list[Pass] = []
    while len(passes) < max(count, least):
        passes.append(one_pass(trace and len(passes) % 2 == 1))
        used = time.perf_counter() - start
        if len(passes) >= least and used * (1 + 1 / len(passes)) > budget_s:
            break
    return passes


def summarize(
    trace: bool,
    passes: list[Pass],
    failed: int,
    setup: "list[Interval]",
    tasks_per_pass: int,
    digests: dict[str, str],
    paced: Pace,
    power: float,
) -> Outcome:
    """End-to-end (or, traced, per-layer) metrics of offline passes.

    ``wall_s`` is the paced time of one pass: each command's median
    over the untraced passes, paced to ``power``, summed, so a stall of
    the host during one command moves that command's slowest sample and
    not the result.  ``setup_s`` is the median paced time of the
    ``setup`` probes.
    """
    plain = [p for p in passes if not p.traced]
    attempted = sum(len(p.commands) for p in passes)
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = layer_metrics(
            [c.trace for p in traced for c in p.commands], len(traced)
        )
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in plain) - 1.0
        )
        return Outcome(attempted, failed, metrics, digests)

    def pass_time(seconds: Pace) -> float:
        return sum(
            statistics.median(
                seconds(p.commands[i].start, p.commands[i].end, power)
                for p in plain
            )
            for i in range(len(plain[0].commands))
        )

    def measured(start: float, end: float, power: float = 0.0) -> float:
        return end - start

    wall = pass_time(paced)
    metrics = {
        "setup_s": statistics.median(
            paced(*probe, STARTUP_PACING) for probe in setup
        ),
        "wall_s": wall,
        "peak_rss_mb": max(c.rss_mb for p in plain for c in p.commands),
    }
    standins = {
        "p50_ms": wall * 1e3,
        "p95_ms": wall * 1e3,
        "max_rate_qps": tasks_per_pass / wall,
    }
    raw = {
        "setup_s": statistics.median(measured(*probe) for probe in setup),
        "wall_s": pass_time(measured),
    }
    return Outcome(attempted, failed, metrics, digests, standins, raw)


def figure(bench: Bench, warm: bool) -> Outcome:
    """``repro figure {shared,split,colocated} --csv``, cold or warm."""
    pins = load_pins()
    expected: dict[str, bytes] = {}
    cache = bench.fresh_dir("cache")
    if warm:
        for scenario in FIG_SCENARIOS:
            prep = bench.run(
                _figure_args(scenario, cache) + ["--jobs", "2"], timed=False
            )
            if prep.code != 0:
                raise BenchError(f"warm-up of {scenario} exited {prep.code}")
            expected[scenario] = prep.stdout
    setup = [] if bench.trace else bench.setup_probes(FIG_READY)

    def one_pass(traced: bool) -> Pass:
        cache_dir = cache if warm else bench.fresh_dir("cache")
        return Pass(
            [
                bench.run(_figure_args(scenario, cache_dir), traced)
                for scenario in FIG_SCENARIOS
            ],
            traced,
        )

    passes = run_passes(
        bench.trace,
        WARM_PASSES if warm else COLD_PASSES,
        WARM_BUDGET_S if warm else math.inf,
        one_pass,
    )
    failed = 0
    for p in passes:
        for scenario, command in zip(FIG_SCENARIOS, p.commands):
            ok = (
                command.code == 0
                and not check_rows(scenario, command.stdout.decode(), pins)
                and command.stdout
                == expected.setdefault(scenario, command.stdout)
            )
            failed += not ok
    digests = {
        f"figure:{scenario}": sha256(stdout)
        for scenario, stdout in expected.items()
    }
    # One CSV row below the header per (query, scenario) task.
    tasks = sum(len(out.splitlines()) - 1 for out in expected.values())
    return summarize(
        bench.trace, passes, failed, setup, tasks, digests, bench.paced,
        WARM_PACING if warm else COLD_PACING,
    )


def _figure_args(scenario: str, cache) -> list[str]:
    return ["figure", scenario, "--csv", "--cache-dir", str(cache)]


def census_generated(bench: Bench) -> Outcome:
    """``repro census --generated 600 --seed 0``."""
    setup = [] if bench.trace else bench.setup_probes(CLI_READY)
    args = [
        "census", "--generated", str(CENSUS_QUERIES),
        "--seed", str(CENSUS_SEED),
    ]
    passes = run_passes(
        bench.trace, CENSUS_PASSES, math.inf,
        lambda traced: Pass([bench.run(args, traced)], traced),
    )
    header = f"· {CENSUS_QUERIES} queries · seed {CENSUS_SEED}\n".encode()
    first = passes[0].commands[0].stdout
    failed = sum(
        not (
            command.code == 0
            and header in command.stdout
            and command.stdout == first
        )
        for p in passes for command in p.commands
    )
    digests = {f"census:{CENSUS_SEED}": sha256(first)}
    return summarize(
        bench.trace, passes, failed, setup, CENSUS_QUERIES, digests,
        bench.paced, COLD_PACING,
    )
