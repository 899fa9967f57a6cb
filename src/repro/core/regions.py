"""Regions of influence (Section 4.5).

The region of influence ``V_i`` of candidate plan ``A_i`` is the set of
feasible cost vectors under which that plan is optimal::

    V_i = { v in U : A_i . v <= A_j . v  for all j != i }

Regions of influence are convex polyhedral cones (apex at the origin,
Observation 1) intersected with the feasible region; their facets are
switchover planes.  They partition the feasible region like a Voronoi
diagram of cones, except that non-candidate plans get no region at all.

This module provides membership tests, interior points, Monte-Carlo
volume estimation and the facet-adjacency structure between regions —
the machinery behind the discovery algorithm's completeness reasoning
and the Section 8.2 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .candidates import region_of_influence_margin, witness_cost_vector
from .feasible import FeasibleRegion
from .geometry import switchover_point_in_box
from .vectors import CostVector, UsageVector

__all__ = ["RegionOfInfluence", "InfluenceDiagram", "winner_counts"]

#: Rows per Monte-Carlo chunk: bounds the peak memory of every
#: Monte-Carlo sweep and fixes how the sample stream is drawn.
MC_CHUNK = 4096


def _argmin_winners(matrix: np.ndarray, samples: np.ndarray) -> np.ndarray:
    return np.argmin(samples @ matrix.T, axis=1)


def winner_counts(
    matrix: np.ndarray,
    region: FeasibleRegion,
    rng: np.random.Generator,
    n_samples: int,
    winners=_argmin_winners,
) -> np.ndarray:
    """Monte-Carlo winner histogram over the feasible region.

    Samples are drawn log-uniformly per variation group (the region's
    natural measure) in chunks of :data:`MC_CHUNK` rows.
    ``winners(matrix, samples)`` names the plan each sample picks; the
    default is the first-min argmin of one batched ``S @ U.T`` per
    chunk.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    counts = np.zeros(matrix.shape[0], dtype=np.int64)
    remaining = n_samples
    while remaining > 0:
        take = min(remaining, MC_CHUNK)
        samples = region.sample_matrix(rng, take)
        counts += np.bincount(
            winners(matrix, samples), minlength=len(counts)
        )
        remaining -= take
    return counts


@dataclass(frozen=True)
class RegionOfInfluence:
    """One plan's region of influence within a feasible region."""

    plan_index: int
    usages: tuple[UsageVector, ...]
    region: FeasibleRegion

    @property
    def usage(self) -> UsageVector:
        return self.usages[self.plan_index]

    def contains(self, cost: CostVector, rel_tol: float = 1e-9) -> bool:
        """Is the plan optimal (within tolerance) at ``cost``?

        Membership is tested against all rival plans; the cost vector
        itself need not lie inside the feasible region (cones extend to
        the whole orthant by Observation 1).
        """
        own = self.usage.dot(cost)
        for j, other in enumerate(self.usages):
            if j == self.plan_index:
                continue
            rival = other.dot(cost)
            if own > rival * (1 + rel_tol):
                return False
        return True

    def interior_point(self) -> CostVector | None:
        """A feasible cost vector where this plan wins, if any."""
        return witness_cost_vector(
            self.plan_index, list(self.usages), self.region
        )

    def margin(self) -> float | None:
        """Interior slack of the region (see candidates module)."""
        return region_of_influence_margin(
            self.plan_index, list(self.usages), self.region
        )

    def is_empty(self) -> bool:
        return self.interior_point() is None

    @cached_property
    def _usage_matrix(self) -> np.ndarray:
        """The usages stacked once (cached; the dataclass is frozen)."""
        return np.vstack([u.values for u in self.usages])

    def volume_fraction(
        self, rng: np.random.Generator, n_samples: int = 2000
    ) -> float:
        """Monte-Carlo fraction of the feasible region this plan rules.

        Sampling is log-uniform per variation group (the natural measure
        for multiplicative error); the fractions of all candidate plans
        sum to ~1.  Vectorised: one batched ``S @ U.T`` + argmin per
        chunk instead of a per-sample Python loop.
        """
        counts = winner_counts(
            self._usage_matrix, self.region, rng, n_samples
        )
        return int(counts[self.plan_index]) / n_samples


class InfluenceDiagram:
    """All regions of influence of a candidate plan set at once."""

    def __init__(
        self, usages: Sequence[UsageVector], region: FeasibleRegion
    ) -> None:
        if not usages:
            raise ValueError("need at least one plan")
        self._usages = tuple(usages)
        self._region = region
        # Cached once: owner()/volume_fractions() used to rebuild this
        # stack on every call.
        self._matrix = np.vstack([u.values for u in self._usages])

    @property
    def regions(self) -> tuple[RegionOfInfluence, ...]:
        return tuple(
            RegionOfInfluence(i, self._usages, self._region)
            for i in range(len(self._usages))
        )

    def owner(self, cost: CostVector) -> int:
        """Index of the plan optimal at ``cost`` (lowest index on ties)."""
        return int(np.argmin(self._matrix @ cost.values))

    def nonempty_regions(self) -> list[int]:
        """Plans whose region of influence is nonempty (the candidates)."""
        return [
            i
            for i, region in enumerate(self.regions)
            if not region.is_empty()
        ]

    def are_adjacent(self, index_a: int, index_b: int) -> bool:
        """Do two regions share a switchover facet inside the region?

        True iff some feasible cost vector makes the two plans tie while
        neither is beaten by any third plan.
        """
        lo = self._region.lower()
        hi = self._region.upper()
        others = [
            usage
            for k, usage in enumerate(self._usages)
            if k not in (index_a, index_b)
        ]
        point = switchover_point_in_box(
            self._usages[index_a],
            self._usages[index_b],
            lo,
            hi,
            others=others,
        )
        return point is not None

    def adjacency_pairs(self) -> list[tuple[int, int]]:
        """All adjacent (facet-sharing) pairs of nonempty regions."""
        nonempty = self.nonempty_regions()
        pairs = []
        for position, index_a in enumerate(nonempty):
            for index_b in nonempty[position + 1 :]:
                if self.are_adjacent(index_a, index_b):
                    pairs.append((index_a, index_b))
        return pairs

    def volume_fractions(
        self, rng: np.random.Generator, n_samples: int = 5000
    ) -> np.ndarray:
        """Monte-Carlo volume share of every plan in one pass.

        Vectorised (chunked ``S @ U.T`` + argmin) — the sampling
        stream matches the old per-sample loop point for point.
        """
        counts = winner_counts(self._matrix, self._region, rng, n_samples)
        return counts / n_samples
