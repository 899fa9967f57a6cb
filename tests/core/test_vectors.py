"""Tests for repro.core.vectors."""

import numpy as np
import pytest

from repro.core.resources import ResourceSpace, ResourceSpaceMismatchError
from repro.core.vectors import CostVector, UsageVector

SPACE = ResourceSpace.from_names(["cpu", "seek", "xfer"])


def test_usage_from_sequence_and_mapping_agree():
    from_seq = UsageVector(SPACE, [1.0, 2.0, 3.0])
    from_map = UsageVector(SPACE, {"cpu": 1, "seek": 2, "xfer": 3})
    assert from_seq == from_map


def test_mapping_defaults_missing_dims_to_zero():
    usage = UsageVector(SPACE, {"seek": 5})
    assert usage["cpu"] == 0.0
    assert usage["seek"] == 5.0


def test_wrong_length_rejected():
    with pytest.raises(ValueError, match="expected 3 values"):
        UsageVector(SPACE, [1.0, 2.0])


def test_negative_usage_rejected():
    with pytest.raises(ValueError):
        UsageVector(SPACE, [1.0, -0.5, 0.0])


def test_negative_usage_error_names_the_resource():
    space = ResourceSpace.from_names(["cpu", "disk.seek", "disk.xfer"])
    with pytest.raises(ValueError, match=r"bad: \['disk.seek'\]"):
        UsageVector(space, [1, -2, 3])


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="finite"):
        UsageVector(SPACE, [1.0, float("nan"), 0.0])
    with pytest.raises(ValueError, match="finite"):
        CostVector(SPACE, [1.0, float("inf"), 1.0])


def test_cost_must_be_strictly_positive():
    with pytest.raises(ValueError):
        CostVector(SPACE, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        CostVector(SPACE, [1.0, -1.0, 1.0])


def test_dot_product_is_equation_3():
    usage = UsageVector(SPACE, [2.0, 3.0, 4.0])
    cost = CostVector(SPACE, [10.0, 1.0, 0.5])
    assert usage.dot(cost) == pytest.approx(2 * 10 + 3 * 1 + 4 * 0.5)
    assert cost.dot(usage) == usage.dot(cost)


def test_dot_across_spaces_rejected():
    other = ResourceSpace.from_names(["a", "b", "c"])
    usage = UsageVector(SPACE, [1, 1, 1])
    cost = CostVector(other, [1, 1, 1])
    with pytest.raises(ResourceSpaceMismatchError):
        usage.dot(cost)


def test_usage_addition_and_scaling():
    a = UsageVector(SPACE, [1, 2, 3])
    b = UsageVector(SPACE, [4, 5, 6])
    assert (a + b) == UsageVector(SPACE, [5, 7, 9])
    assert a.scaled(2.5) == UsageVector(SPACE, [2.5, 5, 7.5])
    with pytest.raises(ValueError):
        a.scaled(-1)


def test_usage_difference_is_raw_normal():
    a = UsageVector(SPACE, [1, 5, 0])
    b = UsageVector(SPACE, [2, 1, 0])
    normal = a - b
    assert isinstance(normal, np.ndarray)
    assert normal.tolist() == [-1, 4, 0]


def test_domination_follows_positive_first_quadrant():
    a = UsageVector(SPACE, [1, 1, 1])
    worse = UsageVector(SPACE, [1, 1, 2])
    incomparable = UsageVector(SPACE, [0.5, 2, 1])
    assert a.dominates(worse)
    assert not worse.dominates(a)
    assert not a.dominates(incomparable)
    assert not incomparable.dominates(a)
    assert not a.dominates(a)  # equal vectors do not dominate


def test_support_reports_positive_dimensions():
    usage = UsageVector(SPACE, [0, 3, 0])
    assert usage.support() == (1,)


def test_values_are_read_only():
    usage = UsageVector(SPACE, [1, 2, 3])
    with pytest.raises(ValueError):
        usage.values[0] = 99


def test_cost_scaling_and_perturbation():
    cost = CostVector(SPACE, [1.0, 24.1, 9.0])
    scaled = cost.scaled(10)
    assert scaled["seek"] == pytest.approx(241.0)
    perturbed = cost.perturbed({"seek": 2.0})
    assert perturbed["seek"] == pytest.approx(48.2)
    assert perturbed["cpu"] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cost.perturbed({"seek": 0.0})
    with pytest.raises(ValueError):
        cost.scaled(0)


def test_convex_combination_endpoints():
    c1 = CostVector(SPACE, [1, 1, 1])
    c2 = CostVector(SPACE, [3, 5, 7])
    assert c1.convex_combination(c2, 1.0) == c1
    assert c1.convex_combination(c2, 0.0) == c2
    mid = c1.convex_combination(c2, 0.5)
    assert mid.values.tolist() == [2, 3, 4]
    with pytest.raises(ValueError):
        c1.convex_combination(c2, 1.5)


def test_as_dict_roundtrip():
    usage = UsageVector(SPACE, [1, 2, 3])
    assert UsageVector(SPACE, usage.as_dict()) == usage


def test_hash_and_equality():
    a = UsageVector(SPACE, [1, 2, 3])
    b = UsageVector(SPACE, [1, 2, 3])
    assert a == b
    assert hash(a) == hash(b)
    assert a != UsageVector(SPACE, [1, 2, 4])


def test_isclose_tolerance():
    a = UsageVector(SPACE, [1, 2, 3])
    b = UsageVector(SPACE, [1 + 1e-12, 2, 3])
    assert a.isclose(b)
    assert not a.isclose(UsageVector(SPACE, [1.1, 2, 3]))
