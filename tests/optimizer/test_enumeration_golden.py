"""Golden digest of candidate enumeration: the DP and the LP filter.

One SHA-256 covers, bit for bit, what every figure and census row is
computed from:

* the root Pareto sets of all 22 TPC-H queries under the three
  storage scenarios at the default cell cap of 64 (signature, order,
  usage bytes, rows, and the truncation flag), plus which of those
  plans the LP filter keeps over the figure sweeps' widest region;
* the candidate sets of generated-census queries 0-199 (seed 0, the
  ``census --generated`` defaults: colocated, widest regime delta,
  cell cap 16).

The pinned value was computed with the object-level enumerator (one
``CostedPlan`` per candidate, as kept in
``tests/optimizer/test_enumeration_oracle.py``), the pairwise-loop
pruner and an LP per surviving plan.  Array-level rewrites of the
enumerator, the pruner, usage vector construction and the LP filter
must reproduce it exactly; the array-level enumerator does.
Run this file as a script to print the digest of the checkout.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.catalog import build_tpch_catalog
from repro.core.candidates import candidate_optimal_indices
from repro.experiments.scenarios import (
    DEFAULT_DELTAS,
    SCENARIO_KEYS,
    scenario,
)
from repro.experiments.usage_analysis import DEFAULT_REGIME_DELTAS
from repro.optimizer.config import DEFAULT_PARAMETERS
from repro.optimizer.dp import enumerate_root_plans
from repro.optimizer.parametric import _deduplicate, candidate_plans
from repro.workloads.generator import generated_task
from repro.workloads.tpch_queries import TPCH_QUERY_NAMES, tpch_query

GOLDEN = "6763591e838c862ea0b102fb63dff40a882cf25518229c3e44d5f07c3e8c2955"


def _feed(digest, plans, truncated: bool) -> None:
    digest.update(repr((len(plans), bool(truncated))).encode())
    for plan in plans:
        digest.update(
            repr((plan.signature, plan.order, float(plan.rows))).encode()
        )
        digest.update(np.ascontiguousarray(plan.usage.values).tobytes())


def enumeration_digest() -> str:
    digest = hashlib.sha256()
    catalog = build_tpch_catalog()
    for key in SCENARIO_KEYS:
        config = scenario(key)
        for name in TPCH_QUERY_NAMES:
            query = tpch_query(name, catalog)
            layout = config.layout_for(query)
            plans, truncated = enumerate_root_plans(
                query, catalog, DEFAULT_PARAMETERS, layout, cell_cap=64
            )
            _feed(digest, plans, truncated)
            unique = _deduplicate(plans)
            kept = candidate_optimal_indices(
                [plan.usage for plan in unique],
                config.region(layout, max(DEFAULT_DELTAS)),
            )
            digest.update(repr((key, name, kept)).encode())
    config = scenario("colocated")
    for index in range(200):
        catalog, query = generated_task(0, index)
        layout = config.layout_for(query)
        region = config.region(layout, max(DEFAULT_REGIME_DELTAS))
        candidates = candidate_plans(
            query, catalog, DEFAULT_PARAMETERS, layout, region, cell_cap=16
        )
        _feed(digest, candidates.plans, candidates.truncated)
    return digest.hexdigest()


def test_enumeration_matches_golden():
    assert enumeration_digest() == GOLDEN


if __name__ == "__main__":
    print(enumeration_digest())
