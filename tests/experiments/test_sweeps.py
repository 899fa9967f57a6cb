"""The shared sweep kernels against brute-force oracles, and census
parity across job counts."""

import numpy as np
import pytest

from repro.catalog import build_tpch_catalog
from repro.core.feasible import FeasibleRegion
from repro.core.resources import ResourceSpace
from repro.core.vectors import CostVector
from repro.experiments import CensusParams, RunContext, run_experiment
from repro.experiments.sweeps import (
    monte_carlo_shares,
    sweep_optimal_totals,
    sweep_winners,
)
from repro.workloads import build_tpch_queries


@pytest.fixture(scope="module")
def catalog():
    return build_tpch_catalog(100)


@pytest.fixture(scope="module")
def queries(catalog):
    return build_tpch_queries(catalog)


def _matrix_and_region(m=120, d=4, seed=0):
    rng = np.random.default_rng(seed)
    pool = np.exp(rng.normal(0.0, 1.0, size=(20, d)))
    matrix = (rng.random((m, 20)) < 0.2) @ pool + 0.01
    space = ResourceSpace.from_names([f"r{i}" for i in range(d)])
    region = FeasibleRegion(
        CostVector(space, np.full(d, 2.0)), 100.0
    )
    return matrix, region


def _brute_force_winners(matrix, costs):
    """One probe at a time, first minimum wins."""
    return np.array([
        min(range(len(matrix)), key=lambda j: (row @ matrix[j], j))
        for row in costs
    ])


def test_sweep_winners_match_brute_force_argmin():
    matrix, region = _matrix_and_region()
    costs = region.sample_matrix(np.random.default_rng(1), 300)
    np.testing.assert_array_equal(
        sweep_winners(matrix, costs),
        _brute_force_winners(matrix, costs),
    )


def test_sweep_optimal_totals_are_exact_winner_dots():
    matrix, region = _matrix_and_region(seed=2)
    costs = region.sample_matrix(np.random.default_rng(3), 500)
    winners, totals = sweep_optimal_totals(matrix, costs)
    np.testing.assert_array_equal(
        winners, np.argmin(costs @ matrix.T, axis=1)
    )
    # Each total is its winner row's own dot product, bit for bit.
    np.testing.assert_array_equal(
        totals,
        [row @ matrix[w] for row, w in zip(costs, winners)],
    )


def test_monte_carlo_shares_sum_to_one_and_match_dense():
    matrix, region = _matrix_and_region(seed=4)
    shares = monte_carlo_shares(
        matrix, region, np.random.default_rng(5), 6000
    )
    assert shares.sum() == pytest.approx(1.0)
    # Replay the same sample stream in the same chunks by hand.
    rng = np.random.default_rng(5)
    counts = np.zeros(len(matrix), dtype=np.int64)
    for take in (4096, 6000 - 4096):
        samples = region.sample_matrix(rng, take)
        winners = np.argmin(samples @ matrix.T, axis=1)
        counts += np.bincount(winners, minlength=len(matrix))
    np.testing.assert_array_equal(shares, counts / 6000)


def test_monte_carlo_shares_rejects_nonpositive_samples():
    matrix, region = _matrix_and_region(seed=6)
    with pytest.raises(ValueError, match="positive"):
        monte_carlo_shares(
            matrix, region, np.random.default_rng(0), 0
        )


def test_census_serial_vs_jobs2_digest_parity(catalog, queries):
    params = CensusParams(scenario_key="split")
    subset = {name: queries[name] for name in ("Q6", "Q14")}
    serial_ctx = RunContext(catalog=catalog, queries=subset, jobs=1)
    fanout_ctx = RunContext(catalog=catalog, queries=subset, jobs=2)
    run_experiment("census", params, serial_ctx)
    run_experiment("census", params, fanout_ctx)
    assert serial_ctx.result_digests == fanout_ctx.result_digests
    assert serial_ctx.result_digests
