"""Worst-case sensitivity experiments: Figures 5, 6 and 7.

For each query and storage scenario:

1. compute the candidate optimal plan set over the widest feasible
   region (white-box parametric DP + LP filtering);
2. identify the *initial plan* — optimal at the DB2-default cost
   vector ``C_0``;
3. sweep the error level ``delta`` and record the worst-case global
   relative cost of the initial plan over the feasible region's
   vertices (exact by Observation 2).

The per-curve growth classification (constant / intermediate /
quadratic) reproduces the paper's reading of the figures: Figure 5 is
all-constant, Figure 6 mostly quadratic, Figure 7 in between.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..catalog.statistics import Catalog
from ..core.worstcase import WorstCaseCurve, worst_case_curve
from ..obs.decisions import DECISIONS
from ..obs.metrics import METRICS
from ..obs.trace import span
from ..optimizer.config import DEFAULT_PARAMETERS, SystemParameters
from ..optimizer.plancache import PlanCache, cached_candidate_plans
from ..optimizer.query import QuerySpec
from .engine import Experiment, RunContext, register_experiment, run_experiment
from .scenarios import DEFAULT_DELTAS, Scenario, scenario

__all__ = [
    "QueryWorstCase",
    "FigureResult",
    "FigureParams",
    "FigureExperiment",
    "run_query_worst_case",
    "run_figure",
]


@dataclass
class QueryWorstCase:
    """One curve of a worst-case figure."""

    query_name: str
    scenario_key: str
    curve: WorstCaseCurve
    n_candidates: int
    truncated: bool
    initial_signature: str
    resource_count: int

    @property
    def final_gtc(self) -> float:
        return self.curve.final_gtc()

    def growth_class(self) -> str:
        """Asymptotic growth of the curve: how the paper reads a line.

        Log-log slope over the last two sweep points: ``~0`` means the
        Theorem 2 constant regime (``constant``), ``~2`` the Theorem 1
        quadratic regime (``quadratic``), anything in between is
        ``intermediate`` (a knee still in progress at the largest
        delta, like queries 11/16 in Figure 6).
        """
        points = self.curve.points
        if len(points) < 2:
            return "constant"
        (d1, g1), (d2, g2) = (
            (points[-2].delta, points[-2].gtc),
            (points[-1].delta, points[-1].gtc),
        )
        if g1 <= 0 or d2 <= d1:
            return "constant"
        slope = math.log(g2 / g1) / math.log(d2 / d1)
        if slope < 0.3:
            return "constant"
        if slope > 1.5:
            return "quadratic"
        return "intermediate"


@dataclass
class FigureResult:
    """All 22 curves of one figure."""

    scenario_key: str
    figure: str
    curves: list[QueryWorstCase]
    deltas: tuple[float, ...]

    def by_query(self) -> Mapping[str, QueryWorstCase]:
        return {curve.query_name: curve for curve in self.curves}

    def growth_census(self) -> dict[str, int]:
        """Count of curves per growth class."""
        census: dict[str, int] = {}
        for curve in self.curves:
            key = curve.growth_class()
            census[key] = census.get(key, 0) + 1
        return census

    def max_final_gtc(self) -> float:
        return max(curve.final_gtc for curve in self.curves)


def run_query_worst_case(
    query: QuerySpec,
    catalog: Catalog,
    params: SystemParameters,
    config: Scenario,
    deltas: Sequence[float] = DEFAULT_DELTAS,
    cell_cap: int | None = 64,
    cache: PlanCache | None = None,
) -> QueryWorstCase:
    """Worst-case curve of one query under one storage scenario."""
    with span(
        "figure.query", query=query.name, scenario=config.key
    ) as current:
        layout = config.layout_for(query)
        widest = config.region(layout, max(deltas))
        candidates = cached_candidate_plans(
            query, catalog, params, layout, widest, cell_cap=cell_cap,
            cache=cache, scenario_key=config.key,
        )
        if not candidates.plans:
            raise RuntimeError(
                f"no candidate plans for {query.name} under {config.key}"
            )
        initial_index = candidates.initial_plan_index()
        initial = candidates.plans[initial_index]
        base_region = config.region(layout, 1.0)
        with DECISIONS.scoped(f"figure:{query.name}"):
            curve = worst_case_curve(
                initial.usage,
                candidates.usages,
                base_region,
                deltas,
                label=query.name,
                initial_plan_index=initial_index,
            )
        current.set(
            candidates=len(candidates), final_gtc=curve.final_gtc()
        )
    METRICS.counter("figure.queries_total").inc()
    METRICS.histogram("figure.final_gtc").observe(curve.final_gtc())
    return QueryWorstCase(
        query_name=query.name,
        scenario_key=config.key,
        curve=curve,
        n_candidates=len(candidates),
        truncated=candidates.truncated,
        initial_signature=initial.signature,
        resource_count=config.resource_count(query),
    )


@dataclass(frozen=True)
class FigureParams:
    """Everything that determines one figure run (picklable)."""

    scenario_key: str
    deltas: tuple[float, ...] = DEFAULT_DELTAS
    cell_cap: int | None = 64
    #: Rendering choices (do not affect the computed curves).
    csv: bool = False
    chart: tuple[str, ...] = ()


@register_experiment
class FigureExperiment(Experiment):
    """Figures 5-7: one worst-case curve per query, merged per figure."""

    name = "figure"
    help = "regenerate Figure 5/6/7 worst-case curves"
    params_type = FigureParams

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--deltas", default="",
                            help="comma-separated error levels")
        parser.add_argument("--csv", action="store_true")
        parser.add_argument(
            "--chart", default="",
            help="also draw an ASCII chart of these queries, e.g. Q3,Q20",
        )

    def params_from_args(self, args: argparse.Namespace) -> FigureParams:
        deltas = DEFAULT_DELTAS
        if args.deltas:
            deltas = tuple(float(d) for d in args.deltas.split(","))
        chart = tuple(args.chart.split(",")) if args.chart else ()
        return FigureParams(
            scenario_key=args.scenario, deltas=deltas,
            csv=args.csv, chart=chart,
        )

    def plan_tasks(
        self, ctx: RunContext, params: FigureParams
    ) -> list[QuerySpec]:
        return list(ctx.queries.values())

    def run_task(
        self, ctx: RunContext, params: FigureParams, task: QuerySpec
    ) -> QueryWorstCase:
        return run_query_worst_case(
            task, ctx.catalog, ctx.params, scenario(params.scenario_key),
            params.deltas, params.cell_cap, cache=ctx.cache,
        )

    def reduce(
        self, ctx: RunContext, params: FigureParams, results: list
    ) -> FigureResult:
        """Legacy batch protocol, kept for digest-parity testing."""
        return FigureResult(
            scenario_key=params.scenario_key,
            figure=scenario(params.scenario_key).figure,
            curves=results,
            deltas=tuple(params.deltas),
        )

    # -- streaming reducer: curves accrete per task, in query order --
    def make_accumulator(
        self, ctx: RunContext, params: FigureParams
    ) -> FigureResult:
        return FigureResult(
            scenario_key=params.scenario_key,
            figure=scenario(params.scenario_key).figure,
            curves=[],
            deltas=tuple(params.deltas),
        )

    def absorb(
        self, ctx: RunContext, params: FigureParams,
        acc: FigureResult, task: QuerySpec, result: QueryWorstCase,
    ) -> FigureResult:
        acc.curves.append(result)
        return acc

    def finalize(
        self, ctx: RunContext, params: FigureParams, acc: FigureResult
    ) -> FigureResult:
        return acc

    def render(
        self, ctx: RunContext, params: FigureParams, reduced: FigureResult
    ) -> str:
        from .report import (
            figure_to_csv,
            format_figure_chart,
            format_figure_summary,
            format_figure_table,
        )

        if params.csv:
            return figure_to_csv(reduced)
        parts = [
            format_figure_table(reduced),
            "",
            format_figure_summary(reduced),
        ]
        if params.chart:
            parts.extend(["", format_figure_chart(reduced, params.chart)])
        return "\n".join(parts) + "\n"

    def digest_payloads(
        self, ctx: RunContext, params: FigureParams, reduced: FigureResult
    ) -> dict[str, str]:
        from .report import figure_to_csv

        return {"figure_csv": figure_to_csv(reduced)}


def run_figure(
    scenario_key: str,
    catalog: Catalog | None = None,
    queries: Mapping[str, QuerySpec] | None = None,
    params: SystemParameters = DEFAULT_PARAMETERS,
    deltas: Sequence[float] = DEFAULT_DELTAS,
    cell_cap: int | None = 64,
    jobs: int = 1,
    cache: PlanCache | None = None,
    scale: float = 100.0,
) -> FigureResult:
    """Regenerate one of Figures 5-7 over (by default) all 22 queries.

    A convenience wrapper over the engine: select the scenario with
    ``scenario_key`` (``shared``/``split``/``colocated``, Figures
    5/6/7 respectively).  ``jobs`` spreads queries over worker
    processes (results keep input order and are identical to the
    serial run); ``cache`` persists each query's candidate set across
    invocations.
    """
    ctx = RunContext(
        scale=scale, catalog=catalog, queries=queries,
        params=params, cache=cache, jobs=jobs,
    )
    return run_experiment(
        "figure",
        FigureParams(
            scenario_key=scenario_key, deltas=tuple(deltas),
            cell_cap=cell_cap,
        ),
        ctx,
    )
