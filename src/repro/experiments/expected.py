"""Expected-case sensitivity: average regret under random drift.

The paper characterises the *worst case* (Observation 2 vertex sweeps).
A natural companion question for capacity planning: if storage costs
drift randomly — each device's multiplier log-uniform in
``[1/delta, delta]`` — what regret does the stale default-cost plan
incur *on average*, and how often is it still optimal?

This is a Monte-Carlo experiment over the same feasible regions and
candidate plan sets as the figures, so worst-case and expected-case
results are directly comparable (expected <= worst always; the gap
shows how adversarial the vertex worst case is).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..catalog.statistics import Catalog
from ..core.regions import MC_CHUNK
from ..obs.decisions import DECISIONS
from ..obs.metrics import METRICS
from ..obs.trace import span
from ..optimizer.config import DEFAULT_PARAMETERS, SystemParameters
from ..optimizer.plancache import PlanCache, cached_candidate_plans
from ..optimizer.query import QuerySpec
from .engine import Experiment, RunContext, register_experiment, run_experiment
from .scenarios import Scenario, scenario
from .sweeps import sweep_optimal_totals

__all__ = [
    "ExpectedRegret",
    "ExpectedParams",
    "ExpectedExperiment",
    "run_expected_regret",
    "format_expected_table",
]


@dataclass
class ExpectedRegret:
    """Monte-Carlo regret statistics for one query."""

    query_name: str
    scenario_key: str
    delta: float
    n_samples: int
    mean_gtc: float
    median_gtc: float
    p95_gtc: float
    max_sampled_gtc: float
    #: Fraction of drift samples where the stale plan is still optimal.
    still_optimal_fraction: float
    n_candidates: int
    truncated: bool


def analyze_expected_regret(
    query: QuerySpec,
    catalog: Catalog,
    config: Scenario,
    params: SystemParameters = DEFAULT_PARAMETERS,
    delta: float = 100.0,
    n_samples: int = 2000,
    cell_cap: int | None = 64,
    seed: int = 0,
    cache: PlanCache | None = None,
) -> ExpectedRegret:
    """Sample log-uniform drifts and measure the stale plan's regret."""
    with span(
        "expected.query", query=query.name, scenario=config.key,
        samples=n_samples, seed=seed,
    ) as current:
        layout = config.layout_for(query)
        region = config.region(layout, delta)
        candidates = cached_candidate_plans(
            query, catalog, params, layout, region, cell_cap=cell_cap,
            cache=cache, scenario_key=config.key,
        )
        matrix = candidates.usage_matrix
        initial_index = candidates.initial_plan_index()
        initial_row = matrix[initial_index]
        rng = np.random.default_rng(seed)
        gtcs = np.empty(n_samples)
        optimal_hits = 0
        position = 0
        while position < n_samples:
            take = min(n_samples - position, MC_CHUNK)
            samples = region.sample_matrix(rng, take)
            with DECISIONS.scoped(f"expected:{query.name}"):
                __, best = sweep_optimal_totals(
                    matrix, samples, reference=initial_index
                )
            stale = samples @ initial_row
            gtcs[position:position + take] = stale / best
            optimal_hits += int((stale <= best * (1 + 1e-9)).sum())
            position += take
        current.set(candidates=len(candidates))
    METRICS.counter("expected.samples_total").inc(n_samples)
    METRICS.histogram("expected.gtc").observe_many(gtcs)
    METRICS.histogram(f"expected.gtc[{query.name}]").observe_many(gtcs)
    return ExpectedRegret(
        query_name=query.name,
        scenario_key=config.key,
        delta=delta,
        n_samples=n_samples,
        mean_gtc=float(gtcs.mean()),
        median_gtc=float(np.median(gtcs)),
        p95_gtc=float(np.percentile(gtcs, 95)),
        max_sampled_gtc=float(gtcs.max()),
        still_optimal_fraction=optimal_hits / n_samples,
        n_candidates=len(candidates),
        truncated=candidates.truncated,
    )


@dataclass(frozen=True)
class ExpectedParams:
    """Everything that determines one expected-regret run (picklable)."""

    scenario_key: str
    delta: float = 100.0
    n_samples: int = 2000
    cell_cap: int | None = 64
    seed: int = 0


@register_experiment
class ExpectedExperiment(Experiment):
    """Monte-Carlo expected regret, one task per query."""

    name = "expected"
    help = "Monte-Carlo expected regret under random drift"
    params_type = ExpectedParams

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--delta", type=float, default=100.0)
        parser.add_argument("--samples", type=int, default=2000)

    def params_from_args(self, args: argparse.Namespace) -> ExpectedParams:
        return ExpectedParams(
            scenario_key=args.scenario, delta=args.delta,
            n_samples=args.samples,
        )

    def seeds(self, params: ExpectedParams) -> dict:
        return {"monte_carlo": params.seed}

    def plan_tasks(
        self, ctx: RunContext, params: ExpectedParams
    ) -> list[QuerySpec]:
        return list(ctx.queries.values())

    def run_task(
        self, ctx: RunContext, params: ExpectedParams, task: QuerySpec
    ) -> ExpectedRegret:
        return analyze_expected_regret(
            task, ctx.catalog, scenario(params.scenario_key), ctx.params,
            params.delta, params.n_samples, params.cell_cap, params.seed,
            cache=ctx.cache,
        )

    # -- streaming reducer: the result is the per-query row list ----
    def make_accumulator(
        self, ctx: RunContext, params: ExpectedParams
    ) -> list:
        return []

    def absorb(
        self, ctx: RunContext, params: ExpectedParams, acc: list,
        task: QuerySpec, result: ExpectedRegret,
    ) -> list:
        acc.append(result)
        return acc

    def finalize(
        self, ctx: RunContext, params: ExpectedParams, acc: list
    ) -> list:
        return acc

    def render(
        self, ctx: RunContext, params: ExpectedParams, reduced: list
    ) -> str:
        return format_expected_table(reduced) + "\n"

    def digest_payloads(
        self, ctx: RunContext, params: ExpectedParams, reduced: list
    ) -> dict[str, str]:
        return {"expected_table": format_expected_table(reduced)}


def run_expected_regret(
    scenario_key: str,
    catalog: Catalog | None = None,
    queries: Mapping[str, QuerySpec] | None = None,
    params: SystemParameters = DEFAULT_PARAMETERS,
    delta: float = 100.0,
    n_samples: int = 2000,
    cell_cap: int | None = 64,
    seed: int = 0,
    jobs: int = 1,
    cache: PlanCache | None = None,
    scale: float = 100.0,
) -> list[ExpectedRegret]:
    """Expected-regret analysis over a workload (engine wrapper).

    Each query's sampling uses its own ``seed``-derived generator, so
    results are independent of ``jobs`` and of query order.
    """
    ctx = RunContext(
        scale=scale, catalog=catalog, queries=queries,
        params=params, cache=cache, jobs=jobs,
    )
    return run_experiment(
        "expected",
        ExpectedParams(
            scenario_key=scenario_key, delta=delta, n_samples=n_samples,
            cell_cap=cell_cap, seed=seed,
        ),
        ctx,
    )


def format_expected_table(rows: list[ExpectedRegret]) -> str:
    """Text table of the Monte-Carlo regret statistics."""
    header = (
        f"{'query':>6}  {'mean':>8}  {'median':>8}  {'p95':>9}  "
        f"{'max':>10}  {'still-opt':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.query_name:>6}  {row.mean_gtc:8.3f}  "
            f"{row.median_gtc:8.3f}  {row.p95_gtc:9.3f}  "
            f"{row.max_sampled_gtc:10.3g}  "
            f"{row.still_optimal_fraction * 100:8.1f}%"
        )
    return "\n".join(lines)
