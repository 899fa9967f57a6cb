"""Tests for plan diagrams."""

import pytest
from scipy.ndimage import label

from repro.core.costmodel import optimal_plan_index
from repro.core.diagram import plan_diagram
from repro.core.feasible import VariationGroup
from repro.core.resources import ResourceSpace
from repro.core.vectors import CostVector, UsageVector

SPACE = ResourceSpace.from_names(["r1", "r2", "r3"])
CENTER = CostVector(SPACE, [1.0, 1.0, 1.0])
GX = VariationGroup("r1", (0,))
GY = VariationGroup("r2", (1,))


def _usage(*values):
    return UsageVector(SPACE, list(values))


@pytest.fixture()
def plans():
    return [
        _usage(10, 1, 1),
        _usage(1, 10, 1),
        _usage(4, 4, 1),
    ]


def test_cells_match_pointwise_optimization(plans):
    diagram = plan_diagram(plans, CENTER, GX, GY, delta=50.0, resolution=9)
    for yi, my in enumerate(diagram.y_multipliers):
        for xi, mx in enumerate(diagram.x_multipliers):
            cost = CENTER.perturbed({"r1": mx, "r2": my})
            assert diagram.cells[yi, xi] == optimal_plan_index(plans, cost)


def test_every_candidate_claims_some_cells(plans):
    diagram = plan_diagram(plans, CENTER, GX, GY, delta=100.0,
                           resolution=33)
    assert set(diagram.plans_appearing) == {0, 1, 2}
    shares = [diagram.share(i) for i in range(3)]
    assert all(share > 0 for share in shares)
    assert sum(shares) == pytest.approx(1.0)


def test_dominated_plan_never_appears(plans):
    extra = plans + [_usage(11, 11, 2)]
    diagram = plan_diagram(extra, CENTER, GX, GY, delta=100.0)
    assert 3 not in diagram.plans_appearing


def test_regions_are_contiguous_blobs(plans):
    """Each plan's cells form one connected region (convexity of
    regions of influence restricted to a 2-D slice)."""
    diagram = plan_diagram(plans, CENTER, GX, GY, delta=100.0,
                           resolution=25)
    for plan in diagram.plans_appearing:
        # label's default structure is 4-neighbour connectivity.
        __, n_components = label(diagram.cells == plan)
        assert n_components == 1


def test_render_contains_legend_and_grid(plans):
    diagram = plan_diagram(
        plans, CENTER, GX, GY, delta=10.0, resolution=8,
        signatures=("scan", "probe", "hybrid"),
    )
    text = diagram.render()
    assert "scan" in text and "hybrid" in text
    grid_lines = [
        line for line in text.splitlines()
        if line and set(line) <= set("ABC")
    ]
    assert len(grid_lines) == 8


def test_validation():
    plans = [_usage(1, 1, 1)]
    with pytest.raises(ValueError, match="delta"):
        plan_diagram(plans, CENTER, GX, GY, delta=1.0)
    with pytest.raises(ValueError, match="resolution"):
        plan_diagram(plans, CENTER, GX, GY, resolution=1)
    with pytest.raises(ValueError, match="overlap"):
        plan_diagram(plans, CENTER, GX, VariationGroup("dup", (0,)))
    with pytest.raises(ValueError, match="at least one"):
        plan_diagram([], CENTER, GX, GY)


def test_grouped_axes_share_multiplier():
    space = ResourceSpace.from_names(["a", "b", "c", "d"])
    center = CostVector(space, [1, 1, 1, 1])
    plans = [
        UsageVector(space, [5, 5, 1, 1]),
        UsageVector(space, [1, 1, 5, 5]),
    ]
    diagram = plan_diagram(
        plans,
        center,
        VariationGroup("ab", (0, 1)),
        VariationGroup("cd", (2, 3)),
        delta=10.0,
        resolution=5,
    )
    # Corner where ab cheap, cd expensive: plan 0 (ab-heavy) wins.
    assert diagram.cells[-1, 0] == 0
    assert diagram.cells[0, -1] == 1
