"""DECISIONS — provenance capture must be free when off.

The decision log rides inside the hottest loop in the repository (the
dense ``C @ U.T`` sweep behind Figures 5-7), so its off-path is one
early-returning call per batch.  The benchmark times the real
instrumented kernel (:func:`repro.core.worstcase.worst_case_gtc`) with
the log disabled against a verbatim copy of the pre-instrumentation
loop, and asserts the overhead stays under the 3% contract.  The
capture-on cost (one extra ``np.partition`` + divide per batch, plus
the sampling reservoir) is recorded in the extras for context — it is
allowed to be expensive; only the off-path is contractual.
"""

import time

import numpy as np

from repro.core.feasible import FeasibleRegion
from repro.core.vectors import CostVector, ResourceSpace, UsageVector
from repro.core.worstcase import worst_case_gtc
from repro.obs.decisions import DECISIONS

#: Candidate pool and region sized so one sweep runs long enough that
#: a 3% margin dwarfs timer noise (~2 G multiply-adds per sweep).
N_PLANS = 2048
DIMENSIONS = 16
BATCH = 4096


def _workload(seed=0):
    rng = np.random.default_rng(seed)
    pool = np.exp(rng.normal(0.0, 1.0, size=(64, DIMENSIONS)))
    matrix = (rng.random((N_PLANS, 64)) < 0.1) @ pool + 0.01
    space = ResourceSpace.from_names(
        [f"r{i}" for i in range(DIMENSIONS)]
    )
    region = FeasibleRegion(
        CostVector(space, np.full(DIMENSIONS, 2.0)), 100.0
    )
    initial = UsageVector(space, matrix[0])
    candidates = [UsageVector(space, row) for row in matrix]
    return initial, candidates, region


def _reference_gtc(initial_row, matrix, region, batch_size=BATCH):
    """The sweep loop exactly as it was before decision capture."""
    best_gtc = -np.inf
    for ids, costs in region.vertex_batches(batch_size):
        totals = costs @ matrix.T
        optima = totals.min(axis=1)
        initial_totals = costs @ initial_row
        with np.errstate(divide="ignore", invalid="ignore"):
            gtc = np.where(optima > 0, initial_totals / optima, np.inf)
        local = float(gtc[int(np.argmax(gtc))])
        if local > best_gtc:
            best_gtc = local
    return best_gtc


def test_bench_decisions_off_overhead(benchmark, bench_extras):
    initial, candidates, region = _workload()
    matrix = np.array([c.values for c in candidates])

    assert not DECISIONS.enabled
    # Warm both paths (BLAS thread pools, page faults), then bracket
    # the reference timings around the benchmarked rounds so slow
    # thermal drift cancels instead of biasing the ratio.
    _reference_gtc(initial.values, matrix, region)
    worst_case_gtc(initial, candidates, region, BATCH)
    reference_runs = [
        _timed(lambda: _reference_gtc(initial.values, matrix, region))
        for _ in range(3)
    ]

    point = benchmark.pedantic(
        lambda: worst_case_gtc(initial, candidates, region, BATCH),
        rounds=5,
        iterations=1,
    )
    off_seconds = benchmark.stats.stats.min

    reference_runs += [
        _timed(lambda: _reference_gtc(initial.values, matrix, region))
        for _ in range(3)
    ]
    reference_seconds = min(reference_runs)

    # Same code path bit for bit once the disabled branch is skipped.
    assert point.gtc == _reference_gtc(initial.values, matrix, region)

    DECISIONS.configure(sample_k=64)
    DECISIONS.enable()
    try:
        on_seconds = _timed(
            lambda: worst_case_gtc(initial, candidates, region, BATCH)
        )
        captured = DECISIONS.summary()
    finally:
        DECISIONS.disable()
        DECISIONS.reset()
    assert captured["probes"] == region.n_vertices

    overhead = off_seconds / reference_seconds - 1.0
    bench_extras("workload", {
        "n_plans": N_PLANS,
        "dimensions": DIMENSIONS,
        "n_vertices": region.n_vertices,
    })
    bench_extras("decisions", {
        "reference_seconds": reference_seconds,
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
        "off_overhead": overhead,
        "on_slowdown": on_seconds / reference_seconds,
    })
    print()
    print(
        f"reference: {reference_seconds:.3f}s   "
        f"instrumented off: {off_seconds:.3f}s "
        f"({overhead:+.2%})   capture on: {on_seconds:.3f}s "
        f"({on_seconds / reference_seconds:.2f}x)"
    )
    # The contract from the issue: the decorated kernel with the log
    # disabled regresses by less than 3%.
    assert overhead < 0.03


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
