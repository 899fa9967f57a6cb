"""Resource-usage-vector analysis: the Section 8.2 census.

For each query and storage scenario, compute the candidate optimal
plans and classify every pair:

* complementary or not (Section 5.5);
* complementarity class — table / access-path / temp (Section 5.6);
* near-complementary (element ratios above an order of magnitude).

The paper's Section 8.2 findings, which this experiment reproduces in
shape:

* ``shared``: no complementary candidate pairs for any query;
* ``split``: many complementary pairs — all access-path or temp
  complementary, none table complementary;
* ``colocated``: access-path complementarity eliminated (tables and
  their indexes share a device), temp complementarity remains.

Beyond the paper's 22 TPC-H queries, ``repro census --generated N``
runs the same white-box machinery over a seeded stream of N random
SPJ queries (:mod:`repro.workloads.generator`) and characterises, at
population scale, how sensitive the optimizer's choice is to storage
cost drift: the candidate-set-size distribution, the fraction of the
feasible cost space where the center-optimal plan is the wrong
choice, and q-error→regret *regime curves* — for each drift level
``δ``, the regret distribution of the stale plan against the
``δ²`` worst-case bound of Theorem 1.  Tasks are plain integers
(workers regenerate catalog+query from ``(seed, index)``), results
stream into O(1) accumulators in task-index order, so a million-query
census runs with flat memory and digests independent of ``--jobs``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..catalog.statistics import Catalog
from ..core.bounds import corollary_constant_bound
from ..core.complementary import ComplementarityCensus, census
from ..obs.decisions import DECISIONS
from ..obs.metrics import METRICS
from ..obs.trace import span
from ..optimizer.config import DEFAULT_PARAMETERS, SystemParameters
from ..optimizer.plancache import PlanCache, cached_candidate_plans
from ..optimizer.query import QuerySpec
from ..workloads.generator import GeneratorConfig, generated_task
from .accumulators import (
    CountHistogram,
    DecadeHistogram,
    ReservoirSampler,
    WelfordMoments,
)
from .engine import Experiment, RunContext, register_experiment, run_experiment
from .scenarios import Scenario, scenario
from .sweeps import monte_carlo_shares, sweep_optimal_totals

__all__ = [
    "QueryCensus",
    "UsageAnalysisResult",
    "CensusParams",
    "CensusExperiment",
    "GeneratedQuerySummary",
    "GeneratedCensus",
    "RegimeCurve",
    "analyze_query_census",
    "analyze_generated_query",
    "run_usage_analysis",
    "run_generated_census",
]

#: Delta of the feasible region the candidate sets are computed over
#: (the widest sweep level of the worst-case experiments).
DEFAULT_DELTA = 10000.0


@dataclass
class QueryCensus:
    """Candidate-set complementarity census for one query."""

    query_name: str
    scenario_key: str
    n_candidates: int
    truncated: bool
    census: ComplementarityCensus
    #: Equation 9 constant bound over the candidate set (inf when any
    #: pair is complementary).
    constant_bound: float
    #: Monte-Carlo share of the feasible region where the initial plan
    #: (optimal at the region center) stays optimal.
    initial_share: float = float("nan")

    @property
    def has_complementary_pairs(self) -> bool:
        return self.census.n_complementary > 0

    def class_count(self, cls: str) -> int:
        return self.census.count(cls)


@dataclass
class UsageAnalysisResult:
    """Census rows for all queries of one scenario."""

    scenario_key: str
    rows: list[QueryCensus]

    def queries_with_complementary_plans(self) -> list[str]:
        return [
            row.query_name for row in self.rows
            if row.has_complementary_pairs
        ]

    def total_class_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for row in self.rows:
            for cls, count in row.census.class_counts.items():
                totals[cls] = totals.get(cls, 0) + count
        return totals

    def by_query(self) -> Mapping[str, QueryCensus]:
        return {row.query_name: row for row in self.rows}


def analyze_query_census(
    query: QuerySpec,
    catalog: Catalog,
    config: Scenario,
    params: SystemParameters = DEFAULT_PARAMETERS,
    delta: float = DEFAULT_DELTA,
    cell_cap: int | None = 64,
    usage_tol: float = 1e-9,
    cache: PlanCache | None = None,
    share_samples: int = 512,
) -> QueryCensus:
    """The Section 8.2 census for one query under one scenario.

    ``share_samples`` Monte-Carlo samples (seeded per query, so the
    result is independent of execution order and worker count) measure
    how much of the feasible region the center-optimal plan rules.
    """
    with span(
        "census.query", query=query.name, scenario=config.key
    ) as current:
        layout = config.layout_for(query)
        region = config.region(layout, delta)
        candidates = cached_candidate_plans(
            query, catalog, params, layout, region,
            cell_cap=cell_cap, cache=cache, scenario_key=config.key,
        )
        pair_census = census(candidates.usages, tol=usage_tol)
        bound = corollary_constant_bound(
            candidates.usages, tol=usage_tol
        )
        with DECISIONS.scoped(f"census:{query.name}"):
            shares = monte_carlo_shares(
                candidates.usage_matrix, region,
                np.random.default_rng(0), share_samples,
                reference=candidates.initial_plan_index(),
            )
        initial_share = float(shares[candidates.initial_plan_index()])
        current.set(
            candidates=len(candidates),
            complementary=pair_census.n_complementary,
            initial_share=initial_share,
        )
    METRICS.counter("census.queries_total").inc()
    METRICS.counter("census.complementary_pairs").inc(
        pair_census.n_complementary
    )
    return QueryCensus(
        query_name=query.name,
        scenario_key=config.key,
        n_candidates=len(candidates),
        truncated=candidates.truncated,
        census=pair_census,
        constant_bound=bound,
        initial_share=initial_share,
    )


# ----------------------------------------------------------------------
# The generated census: a million-query population study
# ----------------------------------------------------------------------

#: Drift levels of the regime curves (the q-error of the cost vector).
DEFAULT_REGIME_DELTAS = (2.0, 10.0, 100.0)


@dataclass(frozen=True)
class GeneratedQuerySummary:
    """Per-task result of one generated query — a few hundred bytes.

    ``regime_regrets[i]`` holds the per-sample GTC regret factors of
    the stale (center-optimal) plan at drift level
    ``regime_deltas[i]``; the accumulator folds the raw samples so
    its histograms and moments are exact and order-deterministic.
    """

    index: int
    n_tables: int
    n_candidates: int
    truncated: bool
    #: Fraction of the widest feasible region where the center-optimal
    #: plan is NOT the optimal choice (Monte-Carlo, seeded per query).
    wrong_fraction: float
    regime_deltas: tuple[float, ...]
    regime_regrets: tuple[tuple[float, ...], ...]


def analyze_generated_query(
    index: int,
    config: Scenario,
    params: SystemParameters = DEFAULT_PARAMETERS,
    seed: int = 0,
    generator: GeneratorConfig | None = None,
    regime_deltas: tuple[float, ...] = DEFAULT_REGIME_DELTAS,
    regime_samples: int = 64,
    share_samples: int = 256,
    cell_cap: int | None = 16,
) -> GeneratedQuerySummary:
    """One generated query's sensitivity summary.

    The catalog and query are regenerated from ``(seed, index)``, so
    the task payload is one integer.  The candidate set is computed
    once over the *widest* regime region — candidate sets are
    monotone in ``δ``, so it is exhaustive (modulo ``cell_cap``) for
    every narrower drift level sampled afterwards.  All Monte-Carlo
    draws are seeded per query, making every number independent of
    execution order and worker count.
    """
    catalog, query = generated_task(seed, index, generator)
    with span(
        "census.generated", index=index, scenario=config.key
    ) as current:
        layout = config.layout_for(query)
        widest = max(regime_deltas)
        region = config.region(layout, widest)
        candidates = cached_candidate_plans(
            query, catalog, params, layout, region, cell_cap=cell_cap,
        )
        matrix = candidates.usage_matrix
        initial_row = matrix[candidates.initial_plan_index()]
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(index, 1))
        )
        with DECISIONS.scoped("census:generated"):
            shares = monte_carlo_shares(
                matrix, region, rng, share_samples,
                reference=candidates.initial_plan_index(),
            )
        wrong_fraction = 1.0 - float(
            shares[candidates.initial_plan_index()]
        )
        regime_regrets = []
        for position, delta in enumerate(regime_deltas):
            level = config.region(layout, delta)
            level_rng = np.random.default_rng(
                np.random.SeedSequence(
                    seed, spawn_key=(index, 2 + position)
                )
            )
            samples = level.sample_matrix(level_rng, regime_samples)
            with DECISIONS.scoped("census:generated"):
                __, best = sweep_optimal_totals(matrix, samples)
            stale = samples @ initial_row
            regime_regrets.append(
                tuple(float(x) for x in stale / best)
            )
        current.set(
            candidates=len(candidates), wrong=wrong_fraction
        )
    METRICS.counter("census.generated_total").inc()
    return GeneratedQuerySummary(
        index=index,
        n_tables=len(query.table_names()),
        n_candidates=len(candidates),
        truncated=candidates.truncated,
        wrong_fraction=wrong_fraction,
        regime_deltas=tuple(regime_deltas),
        regime_regrets=tuple(regime_regrets),
    )


@dataclass
class RegimeCurve:
    """Streaming regret statistics at one drift level ``δ``.

    The ``δ²`` column is Theorem 1's worst-case envelope: with every
    cost multiplier in ``[1/δ, δ]``, no plan switch can cost more
    than a factor ``δ²`` — the curve shows how far below it the
    population actually sits, and ``wrong`` counts samples where the
    stale plan was no longer optimal at all.
    """

    delta: float
    regret: WelfordMoments = field(default_factory=WelfordMoments)
    regret_hist: DecadeHistogram = field(
        default_factory=lambda: DecadeHistogram(floor=1e-3)
    )
    wrong: int = 0
    total: int = 0

    def absorb(self, regrets: tuple[float, ...]) -> None:
        for value in regrets:
            self.regret.add(value)
            self.regret_hist.add(value)
            if value > 1.0 + 1e-9:
                self.wrong += 1
            self.total += 1

    @property
    def wrong_fraction(self) -> float:
        return self.wrong / self.total if self.total else 0.0

    @property
    def bound(self) -> float:
        return self.delta * self.delta


@dataclass
class GeneratedCensus:
    """The O(1)-memory accumulator (and result) of a generated census.

    Absorbs one :class:`GeneratedQuerySummary` at a time in
    task-index order; every field is either fixed-size or bounded by
    a reservoir, so peak memory is independent of the query count.
    Picklable — long checkpointed runs snapshot it to the journal.
    """

    scenario_key: str
    seed: int
    n_queries: int = 0
    truncated: int = 0
    sizes: CountHistogram = field(default_factory=CountHistogram)
    wrong: WelfordMoments = field(default_factory=WelfordMoments)
    #: Queries whose center plan is wrong somewhere in cost space.
    contested: int = 0
    regimes: list[RegimeCurve] = field(default_factory=list)
    reservoir: ReservoirSampler = field(
        default_factory=lambda: ReservoirSampler(k=64)
    )
    #: The ``k`` most drift-sensitive queries seen, by wrong fraction.
    worst: list[tuple[float, int]] = field(default_factory=list)
    worst_k: int = 8

    def absorb(self, summary: GeneratedQuerySummary) -> None:
        if not self.regimes:
            self.regimes = [
                RegimeCurve(delta) for delta in summary.regime_deltas
            ]
        self.n_queries += 1
        self.truncated += int(summary.truncated)
        self.sizes.add(summary.n_candidates)
        self.wrong.add(summary.wrong_fraction)
        if summary.wrong_fraction > 0.0:
            self.contested += 1
        for curve, regrets in zip(
            self.regimes, summary.regime_regrets
        ):
            curve.absorb(regrets)
        self.reservoir.add(
            summary.index,
            (summary.n_candidates, summary.wrong_fraction),
        )
        self.worst.append((summary.wrong_fraction, summary.index))
        self.worst.sort(key=lambda entry: (-entry[0], entry[1]))
        del self.worst[self.worst_k:]

    @property
    def contested_fraction(self) -> float:
        return self.contested / self.n_queries if self.n_queries else 0.0


@dataclass(frozen=True)
class CensusParams:
    """Everything that determines one census run (picklable).

    ``generated=0`` is the paper's census over the TPC-H workload;
    ``generated=N`` switches to N seeded random queries with the
    regime-curve analysis (the scenario defaults to ``colocated``
    there — the cheapest per-query candidate sets, hence the scale
    regime the generated census targets).
    """

    scenario_key: str
    delta: float = DEFAULT_DELTA
    cell_cap: int | None = 64
    usage_tol: float = 1e-9
    share_samples: int = 512
    generated: int = 0
    seed: int = 0
    generator: GeneratorConfig = GeneratorConfig()
    regime_deltas: tuple[float, ...] = DEFAULT_REGIME_DELTAS
    regime_samples: int = 64
    generated_cell_cap: int | None = 16
    generated_share_samples: int = 256


@register_experiment
class CensusExperiment(Experiment):
    """The Section 8.2 census — TPC-H or a generated population.

    One task per query either way; in generated mode a task is a bare
    stream index and the streaming accumulator keeps memory flat no
    matter how large ``--generated`` is.
    """

    name = "census"
    help = "Section 8.2 complementarity census"
    params_type = CensusParams

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--generated", type=int, default=0, metavar="N",
            help="census a seeded stream of N generated SPJ queries "
                 "instead of the TPC-H workload (scenario defaults "
                 "to colocated; memory stays flat for any N)",
        )
        parser.add_argument(
            "--regime-deltas", default="", metavar="D1,D2,...",
            help="drift levels of the generated regime curves "
                 "(default 2,10,100)",
        )
        parser.add_argument(
            "--regime-samples", type=int, default=64, metavar="N",
            help="cost-vector samples per drift level and query "
                 "(default 64)",
        )

    def params_from_args(self, args) -> CensusParams:
        regime_deltas = DEFAULT_REGIME_DELTAS
        if getattr(args, "regime_deltas", ""):
            regime_deltas = tuple(
                float(d) for d in args.regime_deltas.split(",")
            )
        return CensusParams(
            scenario_key=args.scenario,
            generated=getattr(args, "generated", 0),
            seed=getattr(args, "seed", 0),
            regime_deltas=regime_deltas,
            regime_samples=getattr(args, "regime_samples", 64),
        )

    def scenario_default_for(self, args) -> "str | None":
        # `repro census --generated N` needs no scenario argument:
        # colocated has the cheapest per-query candidate sets, which
        # is the scale regime the generated census exists for.
        if getattr(args, "generated", 0):
            return "colocated"
        return self.scenario_default

    def seeds(self, params: CensusParams) -> dict:
        if params.generated:
            return {"generated_workload": params.seed}
        return {}

    def plan_tasks(self, ctx: RunContext, params: CensusParams):
        if params.generated:
            return range(params.generated)
        return list(ctx.queries.values())

    def run_task(
        self, ctx: RunContext, params: CensusParams, task
    ):
        if params.generated:
            return analyze_generated_query(
                task, scenario(params.scenario_key), ctx.params,
                seed=params.seed, generator=params.generator,
                regime_deltas=params.regime_deltas,
                regime_samples=params.regime_samples,
                share_samples=params.generated_share_samples,
                cell_cap=params.generated_cell_cap,
            )
        return analyze_query_census(
            task, ctx.catalog, scenario(params.scenario_key), ctx.params,
            params.delta, params.cell_cap, params.usage_tol,
            cache=ctx.cache, share_samples=params.share_samples,
        )

    # -- streaming reducer -------------------------------------------
    def make_accumulator(self, ctx: RunContext, params: CensusParams):
        if params.generated:
            return GeneratedCensus(
                scenario_key=params.scenario_key, seed=params.seed
            )
        return UsageAnalysisResult(
            scenario_key=params.scenario_key, rows=[]
        )

    def absorb(
        self, ctx: RunContext, params: CensusParams, acc, task, result
    ):
        if params.generated:
            acc.absorb(result)
        else:
            acc.rows.append(result)
        return acc

    def finalize(self, ctx: RunContext, params: CensusParams, acc):
        return acc

    def reduce(self, ctx: RunContext, params: CensusParams, results: list):
        """Legacy batch protocol, kept for digest-parity testing."""
        acc = self.make_accumulator(ctx, params)
        for result in results:
            acc = self.absorb(ctx, params, acc, None, result)
        return self.finalize(ctx, params, acc)

    def render(self, ctx: RunContext, params: CensusParams, reduced) -> str:
        from .report import format_census_table, format_generated_census

        if params.generated:
            return format_generated_census(reduced) + "\n"
        return format_census_table(reduced) + "\n"

    def digest_payloads(
        self, ctx: RunContext, params: CensusParams, reduced
    ) -> dict[str, str]:
        from .report import format_census_table, format_generated_census

        if params.generated:
            return {
                "generated_census": format_generated_census(reduced)
            }
        return {"census_table": format_census_table(reduced)}


def run_usage_analysis(
    scenario_key: str,
    catalog: Catalog | None = None,
    queries: Mapping[str, QuerySpec] | None = None,
    params: SystemParameters = DEFAULT_PARAMETERS,
    delta: float = DEFAULT_DELTA,
    cell_cap: int | None = 64,
    usage_tol: float = 1e-9,
    jobs: int = 1,
    cache: PlanCache | None = None,
    scale: float = 100.0,
    share_samples: int = 512,
) -> UsageAnalysisResult:
    """Run the Section 8.2 analysis for one scenario (engine wrapper)."""
    ctx = RunContext(
        scale=scale, catalog=catalog, queries=queries,
        params=params, cache=cache, jobs=jobs,
    )
    return run_experiment(
        "census",
        CensusParams(
            scenario_key=scenario_key, delta=delta, cell_cap=cell_cap,
            usage_tol=usage_tol, share_samples=share_samples,
        ),
        ctx,
    )


def run_generated_census(
    n: int,
    scenario_key: str = "colocated",
    seed: int = 0,
    generator: GeneratorConfig | None = None,
    regime_deltas: tuple[float, ...] = DEFAULT_REGIME_DELTAS,
    regime_samples: int = 64,
    jobs: int = 1,
    ctx: "RunContext | None" = None,
) -> GeneratedCensus:
    """Run a generated census over ``n`` queries (engine wrapper)."""
    if ctx is None:
        ctx = RunContext(jobs=jobs, seed=seed, cache=None)
    params = CensusParams(
        scenario_key=scenario_key,
        generated=n,
        seed=seed,
        generator=generator or GeneratorConfig(),
        regime_deltas=tuple(regime_deltas),
        regime_samples=regime_samples,
    )
    return run_experiment("census", params, ctx)
