"""Usage and cost vectors (Sections 3.1–3.2 of the paper).

A query plan is characterised by its *resource usage vector*
``U = (u_1, ..., u_n)``; the state of the system by a *resource cost
vector* ``C = (c_1, ..., c_n)``.  The true total cost of the plan is the
dot product ``T = U . C`` (Equation 3).

Both vector types are immutable, numpy-backed and bound to a
:class:`~repro.core.resources.ResourceSpace`.  Usage vectors must be
non-negative; cost vectors must be strictly positive (a resource with a
zero or negative unit cost breaks the conic geometry of Sections 4–5).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from .resources import ResourceSpace

__all__ = ["UsageVector", "CostVector", "validate_usage_rows"]


def validate_usage_rows(space: ResourceSpace, rows: np.ndarray) -> None:
    """Check one usage row, or a stack of them, as :class:`UsageVector`
    checks one: the same ``ValueError`` for a non-finite component, and
    for a negative one, naming every resource that has one."""
    if not np.isfinite(rows).all():
        raise ValueError("vector components must be finite")
    _require_nonnegative(space, rows)


def _require_nonnegative(space: ResourceSpace, rows: np.ndarray) -> None:
    if (rows < 0).any():
        negative = (rows < 0).reshape(-1, space.dimension).any(axis=0)
        bad = [name for name, flag in zip(space.names, negative) if flag]
        raise ValueError(f"usage components must be >= 0 (bad: {bad})")


def _as_array(
    space: ResourceSpace,
    values: "Mapping[str, float] | Iterable[float] | np.ndarray",
) -> np.ndarray:
    """Convert mapping / sequence input into a fresh dense float array.

    Arrays are tested first: internal arithmetic passes them, and the
    ``Mapping`` ABC check is far slower than an exact type check.
    """
    if isinstance(values, np.ndarray):
        array = np.array(values, dtype=float)
    elif isinstance(values, Mapping):
        array = np.zeros(space.dimension, dtype=float)
        for name, value in values.items():
            array[space.index(name)] = float(value)
        return array
    else:
        array = np.asarray(list(values), dtype=float)
    if array.shape != (space.dimension,):
        raise ValueError(
            f"expected {space.dimension} values, got shape {array.shape}"
        )
    return array


class _BoundVector:
    """Shared behaviour of usage and cost vectors."""

    __slots__ = ("_space", "_values")

    def __init__(
        self,
        space: ResourceSpace,
        values: "Mapping[str, float] | Iterable[float] | np.ndarray",
    ) -> None:
        array = _as_array(space, values)
        self._space = space
        if not np.isfinite(array).all():
            raise ValueError("vector components must be finite")
        self._validate(array)
        array.setflags(write=False)
        self._values = array

    # Subclasses override to enforce sign constraints.
    def _validate(self, array: np.ndarray) -> None:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def space(self) -> ResourceSpace:
        return self._space

    @property
    def values(self) -> np.ndarray:
        """Read-only numpy view of the components."""
        return self._values

    def __getitem__(self, name: str) -> float:
        return float(self._values[self._space.index(name)])

    def __iter__(self) -> Iterator[float]:
        return iter(self._values.tolist())

    def __len__(self) -> int:
        return self._space.dimension

    def as_dict(self) -> dict[str, float]:
        """Components keyed by resource name."""
        return dict(zip(self._space.names, self._values.tolist()))

    def norm(self) -> float:
        """Euclidean norm of the vector."""
        return float(np.linalg.norm(self._values))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space == other._space and np.array_equal(
            self._values, other._values
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._space.names,
                     self._values.tobytes()))

    def isclose(self, other: "_BoundVector", rel_tol: float = 1e-9,
                abs_tol: float = 0.0) -> bool:
        """Componentwise :func:`math.isclose` comparison."""
        self._space.require_same(other._space)
        return all(
            math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
            for a, b in zip(self._values, other._values)
        )

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value:.6g}"
            for name, value in zip(self._space.names, self._values)
        )
        return f"{type(self).__name__}({pairs})"


class UsageVector(_BoundVector):
    """Resource usage of one query plan (``U`` in the paper).

    Components are the number of units of each resource the plan
    consumes; they must be non-negative and finite.
    """

    def _validate(self, array: np.ndarray) -> None:
        _require_nonnegative(self._space, array)

    # ------------------------------------------------------------------
    def dot(self, cost: "CostVector") -> float:
        """Total cost ``U . C`` (Equation 3 of the paper)."""
        self._space.require_same(cost.space)
        return float(self._values @ cost.values)

    def __add__(self, other: "UsageVector") -> "UsageVector":
        self._space.require_same(other._space)
        return UsageVector(self._space, self._values + other._values)

    def scaled(self, factor: float) -> "UsageVector":
        """Usage multiplied by a non-negative scalar.

        Used e.g. to charge a nested-loop inner subplan once per outer
        tuple.
        """
        if factor < 0:
            raise ValueError("usage scaling factor must be >= 0")
        return UsageVector(self._space, self._values * factor)

    def __sub__(self, other: "UsageVector") -> np.ndarray:
        """Difference ``A - B`` as a raw array (a switchover normal).

        The difference of two usage vectors is *not* a usage vector (it
        may have negative components), so a plain array is returned.
        """
        self._space.require_same(other._space)
        return self._values - other._values

    def dominates(self, other: "UsageVector", tol: float = 0.0) -> bool:
        """True if ``other`` lies in this plan's positive first quadrant.

        Section 4.4 of the paper: plan *a* dominates plan *b* when
        ``B = A + q`` with ``q >= 0`` and ``B != A``; a dominated plan can
        never be candidate optimal.  ``tol`` allows a small absolute slack
        when comparing floating-point usage.
        """
        self._space.require_same(other._space)
        if np.array_equal(self._values, other._values):
            return False
        return bool(np.all(other._values >= self._values - tol))

    def support(self, tol: float = 0.0) -> tuple[int, ...]:
        """Indices of strictly positive components (above ``tol``)."""
        return tuple(int(i) for i in np.flatnonzero(self._values > tol))


class CostVector(_BoundVector):
    """Per-unit resource costs (``C`` in the paper).

    Components must be strictly positive: the feasible cost region of
    Section 3.3 is a subset of the open positive orthant, and several
    geometric facts (cone-shaped regions of influence, Observation 1)
    assume positive costs.
    """

    def _validate(self, array: np.ndarray) -> None:
        if (array <= 0).any():
            raise ValueError("cost components must be > 0")

    # ------------------------------------------------------------------
    def dot(self, usage: UsageVector) -> float:
        """Total cost ``U . C``; symmetric to :meth:`UsageVector.dot`."""
        return usage.dot(self)

    def scaled(self, factor: float) -> "CostVector":
        """Cost vector multiplied by a positive scalar ``k``.

        By Observation 1 of the paper this leaves every relative total
        cost unchanged.
        """
        if factor <= 0:
            raise ValueError("cost scaling factor must be > 0")
        return CostVector(self._space, self._values * factor)

    def perturbed(
        self, multipliers: "Mapping[str, float] | Iterable[float] | np.ndarray"
    ) -> "CostVector":
        """Componentwise multiplicative perturbation of the costs.

        ``multipliers`` follows the same conventions as the constructor
        (mapping resource-name -> factor, or a full-length sequence).
        Mapping entries default to a factor of 1.
        """
        if isinstance(multipliers, Mapping):
            factors = np.ones(self._space.dimension)
            for name, value in multipliers.items():
                factors[self._space.index(name)] = float(value)
        else:
            factors = _as_array(self._space, multipliers)
        if np.any(factors <= 0):
            raise ValueError("perturbation factors must be > 0")
        return CostVector(self._space, self._values * factors)

    def convex_combination(
        self, other: "CostVector", beta: float
    ) -> "CostVector":
        """``beta * self + (1 - beta) * other`` (Observation 3 setting)."""
        self._space.require_same(other._space)
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        return CostVector(
            self._space, beta * self._values + (1.0 - beta) * other._values
        )
