"""Tests for the probe pre-check of repro.core.candidates.

Before solving any LP, ``candidate_optimal_indices`` evaluates every
Pareto survivor at fixed points of the region's multiplier space and
keeps, without an LP, each plan that beats every rival there by a
clear margin.  The property test holding the probe to the exact LP is
in ``tests/properties/test_prop_candidates.py``.
"""

import numpy as np
import pytest

from repro.core import candidates
from repro.core.candidates import (
    _multiplier_rows,
    _probe_certified,
    candidate_optimal_indices,
)
from repro.core.feasible import FeasibleRegion, VariationGroup
from repro.core.resources import ResourceSpace
from repro.core.vectors import CostVector, UsageVector

SPACE = ResourceSpace.from_names(["r1", "r2"])
CENTER = CostVector(SPACE, [1.0, 1.0])


def _usage(*values):
    return UsageVector(SPACE, list(values))


def _region(delta=100.0):
    return FeasibleRegion(CENTER, delta)


def _loop_rows(matrix, index, region):
    """Reference: LP rows built one rival and one group at a time."""
    groups = region.groups
    center = region.center.values
    diff = matrix - matrix[index]
    rows = []
    rhs = []
    fixed = list(region.fixed_dimensions)
    for j in range(matrix.shape[0]):
        if j == index:
            continue
        rows.append(
            [
                float(sum(diff[j, k] * center[k] for k in group.indices))
                for group in groups
            ]
        )
        rhs.append(-float(sum(diff[j, k] * center[k] for k in fixed)))
    return rows, rhs


class TestProbeCertificate:
    SPACE4 = ResourceSpace.from_names(["a", "b", "c", "d"])

    def _grouped_region(self, delta=100.0):
        center = CostVector(self.SPACE4, [0.3, 7.0, 1e-6, 24.1])
        groups = (VariationGroup("ab", (0, 1)), VariationGroup("d", (3,)))
        return FeasibleRegion(center, delta, groups)  # "c" is fixed

    def test_rows_match_the_per_rival_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 1e6, size=(7, 4)) * rng.integers(
            0, 2, size=(7, 4)
        )
        matrix[5] = matrix[2]  # a duplicate gives all-zero rows
        region = self._grouped_region()
        pairwise, pairwise_rhs = _multiplier_rows(
            matrix[None, :, :] - matrix[:, None, :], region
        )
        for index in range(matrix.shape[0]):
            rows, rhs = _loop_rows(matrix, index, region)
            others = [j for j in range(matrix.shape[0]) if j != index]
            got = pairwise[index, others]
            got_rhs = pairwise_rhs[index, others]
            assert got.tobytes() == np.asarray(rows).tobytes()
            assert got_rhs.tobytes() == np.asarray(rhs).tobytes()

    def test_clear_winners_certified_hull_plan_not(self):
        plans = [_usage(1, 10), _usage(10, 1), _usage(6, 6), _usage(5, 5)]
        matrix = np.vstack([p.values for p in plans])
        certified = _probe_certified(matrix, _region())
        # (6, 6) is never optimal; the other three win at some vertex
        # or at the center by a wide margin.
        assert certified.tolist() == [True, True, False, True]

    def test_tied_duplicates_are_left_to_the_lp(self):
        plans = [_usage(1, 10), _usage(1, 10), _usage(10, 1)]
        matrix = np.vstack([p.values for p in plans])
        certified = _probe_certified(matrix, _region())
        assert certified.tolist() == [False, False, True]

    def test_exact_mode_sends_every_plan_to_the_lp(self, monkeypatch):
        plans = [_usage(1, 10), _usage(10, 1), _usage(5, 5)]
        lp_calls = []
        real = candidates.is_candidate_optimal

        def counting(index, *args, **kwargs):
            lp_calls.append(index)
            return real(index, *args, **kwargs)

        monkeypatch.setattr(candidates, "is_candidate_optimal", counting)
        assert candidate_optimal_indices(plans, _region()) == [0, 1, 2]
        assert lp_calls == []
        exact = candidate_optimal_indices(plans, _region(), exact=True)
        assert exact == [0, 1, 2]
        assert lp_calls == [0, 1, 2]

    def test_filter_checks_the_space_even_without_an_lp(self):
        other = ResourceSpace.from_names(["x", "y"])
        plans = [UsageVector(other, [1.0, 2.0])]
        with pytest.raises(ValueError):
            candidate_optimal_indices(plans, _region())
