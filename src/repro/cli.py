"""Command-line interface to the experiment harness.

Run via ``python -m repro <command>``:

* ``figure {shared,split,colocated}`` — regenerate Figure 5/6/7;
* ``census {shared,split,colocated}`` — the Section 8.2 analysis;
* ``robustness {shared,split,colocated}`` — per-parameter switch
  thresholds (which storage parameters to monitor);
* ``expected {shared,split,colocated}`` — Monte-Carlo expected regret
  under random cost drift;
* ``diagram QUERY X_DEVICE Y_DEVICE`` — an ASCII plan diagram over two
  device-cost axes;
* ``explain QUERY`` (or ``--generated SEED:INDEX``) — one decision's
  full provenance: candidate count, winner vs runner-up totals,
  relative margin, the nearest switchover plane and which
  single-coordinate cost perturbation crosses it;
* ``params`` — the Section 7.3 system parameter table;
* ``validate QUERY`` — black-box estimation + discovery validation;
* ``report MANIFEST [MANIFEST]`` — render a run manifest into a
  phase/time/cache breakdown, diff two manifests, or export the span
  tree as a Perfetto/Chrome trace (``--export-trace out.json``);
* ``bench BENCH_JSON`` — render a benchmark telemetry record, or gate
  on regressions against a baseline (``--compare BASELINE.json``,
  threshold 15% by default; exits 1 on regression);
* ``serve`` — the long-running online decision server
  (``POST /v1/decide``): each request answered as it arrives from a
  warm shared candidate-set store, ``/healthz`` + ``/metrics``,
  graceful SIGTERM drain;
* ``loadgen`` — a seeded closed-loop load generator against the
  server (``--qps``/``--duration``), emitting a schema-versioned
  ``BENCH_serve.json`` latency record and optionally digest-verifying
  every response against the offline explain kernel
  (``--verify-offline``);
* ``bench trend`` — judge every series of the append-only perf-history
  store (``benchmarks/history.jsonl`` / ``$REPRO_HISTORY_DIR``)
  against its own recent history: median-of-last-N with MAD bands and
  a change-point flag, exits 1 on a sustained regression.  Records and
  manifests are fed in with ``--append-history`` (benchmark sessions
  append automatically).

The experiment subcommands (``figure``, ``census``, ``robustness``,
``expected``, ``validate``) are generated from the experiment registry
(:mod:`repro.experiments.engine`): each registered
:class:`~repro.experiments.engine.ExperimentSpec` contributes one
subparser carrying its own flags plus the shared ones — a scenario
(``shared``/``split``/``colocated``, or the aliases
``fig5``/``fig6``/``fig7``, positionally or via ``--scenario``),
``--scale`` (TPC-H scale factor, default 100), ``--queries Q1,Q5,...``
to restrict the workload, ``--jobs N`` to spread tasks over worker
processes, and the cache/observability flags below.  Commands that
compute candidate plan sets cache them on disk under ``.repro-cache``
(or ``$REPRO_CACHE_DIR`` / ``--cache-dir``); ``--no-cache`` disables
the cache.

Observability: every experiment command writes a ``run-manifest.json``
(``--manifest PATH`` to move it, ``--no-manifest`` to skip) capturing
git SHA, configuration, RNG seeds, a catalog digest, SHA-256 digests of
the rendered results, and a metrics snapshot — all assembled from the
run's :class:`~repro.experiments.engine.RunContext`; ``--trace``
additionally records the span tree, ``--trace-out PATH`` also exports
it in Trace Event format for ``ui.perfetto.dev``, ``--profile`` samples
the Python stack ~101 times/s (``--profile-hz``) and writes a
speedscope JSON + folded-stack flamegraph input (``--profile-out``;
merged across ``--jobs`` workers, summarised as a hot-function table
in the manifest), ``--decisions`` records decision provenance (margin
decade-histograms, near-plane fractions, a deterministic bottom-k
sample of explain records — ``--decisions-sample K`` sizes it,
``--decisions-out PATH`` exports it as JSONL, and sampled decisions
additionally land in ``--trace-out`` as instant events), and
``--log-level debug`` surfaces the library's loggers.  Long sweeps
render a live progress meter on stderr
when it is a TTY and the log level is below WARNING (force with
``--progress``, silence with ``--no-progress``).  Cached runs end with
a one-line cache summary on stderr.

Resilience: every experiment command takes ``--retries``,
``--task-timeout`` and ``--on-task-error {abort,retry,skip}`` to
survive failing/hanging tasks (retry with seeded, jittered exponential
backoff; ``skip`` finishes the sweep with holes recorded in the
manifest's ``tasks.failed``), ``--checkpoint`` to journal finished
tasks into a content-addressed run directory and ``--resume [RUN_ID]``
to pick an interrupted run back up re-executing only unfinished tasks,
plus ``--inject-faults SPEC`` to deterministically inject
raise/hang/kill faults for testing — all keyed by ``--seed``.

Usage errors (unknown query or scenario names, unknown devices, bad
fault specs, a ``--resume`` id that does not match the configuration)
exit with status 2 and a one-line message listing the valid choices.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, NoReturn, Sequence

from .experiments.engine import (
    ExperimentSpec,
    ResumeMismatchError,
    RunContext,
    UnknownQueryError,
    all_experiments,
    run_experiment,
)
from .experiments.scenarios import (
    SCENARIO_ALIASES,
    SCENARIO_KEYS,
    UnknownScenarioError,
    resolve_scenario_key,
)
from .obs import (
    DECISIONS,
    METRICS,
    ON_ERROR_MODES,
    PROFILER,
    PROGRESS,
    TRACER,
    FaultPlan,
    FaultSpecError,
    RetryPolicy,
    append_history,
    bench_history_entries,
    compare_bench_records,
    configure_logging,
    decision_instant_events,
    default_history_path,
    detect_trends,
    explain_probe,
    folded_path_for,
    load_bench_record,
    load_history,
    manifest_from_context,
    manifest_history_entries,
    render_bench_comparison,
    render_bench_record,
    render_comparison,
    render_manifest,
    render_trend_report,
    span,
    validate_manifest,
    write_decision_records,
    write_folded,
    write_manifest,
    write_speedscope,
    write_trace_events,
    wrong_choice_by_decade,
)

__all__ = ["main", "build_parser"]


class _Run:
    """Holder handing the command's RunContext to the epilogue."""

    ctx: "RunContext | None" = None


def _usage_error(message: str) -> NoReturn:
    """One-line usage failure: message on stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _resilience_from_args(
    args: argparse.Namespace,
) -> "tuple[RetryPolicy | None, FaultPlan | None]":
    """The retry policy and fault plan the parsed flags describe.

    Bad fault specs and bad policy values are usage errors (exit 2).
    """
    seed = getattr(args, "seed", 0)
    try:
        policy = RetryPolicy(
            on_error=getattr(args, "on_task_error", "abort"),
            retries=getattr(args, "retries", 2),
            task_timeout=getattr(args, "task_timeout", None),
            seed=seed,
        )
    except ValueError as exc:
        _usage_error(str(exc))
    spec = getattr(args, "inject_faults", None)
    faults = None
    if spec:
        try:
            faults = FaultPlan.parse(spec, seed=seed)
        except FaultSpecError as exc:
            _usage_error(str(exc))
    return policy, faults


def _context_from_args(args: argparse.Namespace) -> RunContext:
    """The RunContext the parsed flags describe (catalog stays lazy)."""
    from .optimizer.plancache import PlanCache

    cache = None
    if not getattr(args, "no_cache", False):
        cache = PlanCache(getattr(args, "cache_dir", None))
    policy, faults = _resilience_from_args(args)
    return RunContext(
        scale=getattr(args, "scale", 100.0),
        query_filter=getattr(args, "queries", "") or (),
        cache=cache,
        jobs=getattr(args, "jobs", 1),
        seed=getattr(args, "seed", 0),
        policy=policy,
        faults=faults,
        checkpoint=getattr(args, "checkpoint", False),
        resume=getattr(args, "resume", None),
    )


def _resolve_scenario(
    args: argparse.Namespace, spec: "ExperimentSpec | None" = None
) -> str:
    raw = getattr(args, "scenario_opt", None)
    if raw is None:
        raw = getattr(args, "scenario_arg", None)
    if raw is None and spec is not None:
        raw = spec.scenario_default_for(args)
    if raw is None:
        _usage_error(
            "missing scenario; valid choices: "
            + ", ".join(SCENARIO_KEYS + tuple(SCENARIO_ALIASES))
        )
    try:
        return resolve_scenario_key(raw)
    except UnknownScenarioError as exc:
        _usage_error(str(exc))


def _run_spec_command(args: argparse.Namespace, run: _Run) -> int:
    """The one command body behind every registered experiment."""
    spec: ExperimentSpec = args.spec
    if spec.uses_scenario:
        args.scenario = _resolve_scenario(args, spec)
    ctx = _context_from_args(args)
    run.ctx = ctx
    params = spec.params_from_args(args)
    try:
        result = run_experiment(spec, params, ctx)
    except (ResumeMismatchError, UnknownQueryError) as exc:
        _usage_error(str(exc))
    sys.stdout.write(spec.render(ctx, params, result))
    return 0


def _cmd_diagram(args: argparse.Namespace, run: _Run) -> int:
    from .core.diagram import plan_diagram
    from .experiments import scenario
    from .optimizer.plancache import cached_candidate_plans

    args.scenario = _resolve_scenario(args)
    ctx = _context_from_args(args)
    run.ctx = ctx
    try:
        selected = ctx.select([args.query])
    except UnknownQueryError as exc:
        _usage_error(str(exc))
    (query,) = selected.values()
    config = scenario(args.scenario)
    layout = config.layout_for(query)
    region = config.region(layout, args.delta)
    candidates = cached_candidate_plans(
        query, ctx.catalog, ctx.params, layout, region,
        cache=ctx.cache, scenario_key=config.key,
    )
    groups = {g.name: g for g in config.groups_for(layout)}
    for axis in (args.x_device, args.y_device):
        if axis not in groups:
            _usage_error(
                f"unknown device {axis!r}; valid choices: "
                f"{', '.join(sorted(groups))}"
            )
    diagram = plan_diagram(
        candidates.usages,
        layout.center_costs(),
        groups[args.x_device],
        groups[args.y_device],
        delta=args.delta,
        resolution=args.resolution,
        signatures=candidates.signatures,
    )
    rendered = diagram.render()
    ctx.record_digest("diagram", rendered)
    print(rendered)
    return 0


def _render_explain(
    query_name: str,
    scenario_key: str,
    names,
    cost,
    signatures,
    info: dict,
) -> str:
    """One decision's provenance as the ``repro explain`` transcript."""
    lines = [f"decision provenance: {query_name} [{scenario_key}]"]
    lines.append(
        "cost vector: "
        + ", ".join(
            f"{name}={float(value):.6g}"
            for name, value in zip(names, cost)
        )
    )
    lines.append(f"candidates: {info['candidates']} plan(s)")
    winner = info["winner"]
    lines.append(
        f"winner:    plan {winner} {signatures[winner]} "
        f"(total {info['winner_total']:.6g})"
    )
    if info["runner_up"] is None:
        lines.append("runner-up: none (single candidate plan)")
    else:
        runner = info["runner_up"]
        lines.append(
            f"runner-up: plan {runner} {signatures[runner]} "
            f"(total {info['runner_up_total']:.6g})"
        )
    if info["margin"] is not None:
        lines.append(f"margin:    {info['margin']:.6g} (relative)")
    if (
        info["plane_distance"] is not None
        and info["nearest_rival"] is not None
    ):
        lines.append(
            f"nearest switchover plane: vs plan "
            f"{info['nearest_rival']} at normalized distance "
            f"{info['plane_distance']:.6g}"
        )
    if info["crossings"]:
        lines.append(
            "single-coordinate cost perturbations crossing the plane:"
        )
        for crossing in info["crossings"]:
            name = names[crossing["coordinate"]]
            relative = (
                f"{crossing['relative']:+.3%}"
                if crossing["relative"] is not None else "n/a"
            )
            feasible = (
                "" if crossing["feasible"]
                else "  [infeasible: crosses zero]"
            )
            lines.append(
                f"  {name}: {crossing['delta']:+.6g} ({relative}) "
                f"-> {crossing['new_value']:.6g}{feasible}"
            )
    return "\n".join(lines)


def _cmd_explain(args: argparse.Namespace, run: _Run) -> int:
    """``repro explain``: full provenance of one plan decision."""
    import numpy as np

    from .experiments import scenario
    from .optimizer.plancache import cached_candidate_plans

    generated = getattr(args, "generated", None)
    if (
        getattr(args, "scenario_opt", None) is None
        and getattr(args, "scenario_arg", None) is None
    ):
        # Mirror the census defaults: generated queries live in the
        # colocated scenario, named queries default to split.
        args.scenario_opt = "colocated" if generated else "split"
    args.scenario = _resolve_scenario(args)
    ctx = _context_from_args(args)
    run.ctx = ctx
    if generated:
        if args.query is not None:
            _usage_error(
                "give either QUERY or --generated SEED:INDEX, not both"
            )
        from .workloads.generator import generated_task

        seed_text, sep, index_text = generated.partition(":")
        try:
            if not sep:
                raise ValueError(generated)
            gen_seed = int(seed_text)
            gen_index = int(index_text)
        except ValueError:
            _usage_error(
                "--generated takes SEED:INDEX (two integers), "
                "e.g. 0:17"
            )
        if gen_index < 0:
            _usage_error("--generated INDEX must be >= 0")
        catalog, query = generated_task(gen_seed, gen_index)
        cell_cap = 16
        cache = None
        scenario_key_for_cache = None
    elif args.query is None:
        _usage_error("missing QUERY (or --generated SEED:INDEX)")
    else:
        try:
            selected = ctx.select([args.query])
        except UnknownQueryError as exc:
            _usage_error(str(exc))
        (query,) = selected.values()
        catalog = ctx.catalog
        cell_cap = 64
        cache = ctx.cache
        scenario_key_for_cache = args.scenario
    config = scenario(args.scenario)
    layout = config.layout_for(query)
    region = config.region(layout, args.delta)
    candidates = cached_candidate_plans(
        query, catalog, ctx.params, layout, region,
        cell_cap=cell_cap, cache=cache,
        scenario_key=scenario_key_for_cache,
    )
    center = layout.center_costs()
    space = center.space
    if getattr(args, "cost_vector", None):
        parts = args.cost_vector.split(",")
        if len(parts) != space.dimension:
            _usage_error(
                f"--cost-vector needs {space.dimension} components "
                f"({', '.join(space.names)}), got {len(parts)}"
            )
        try:
            values = [float(part) for part in parts]
        except ValueError:
            _usage_error("--cost-vector components must be numbers")
        if any(value <= 0 for value in values):
            _usage_error("--cost-vector components must be > 0")
        cost = np.asarray(values, dtype=float)
    else:
        cost = center.values
    info = explain_probe(candidates.usage_matrix, cost)
    rendered = _render_explain(
        getattr(query, "name", str(query)), args.scenario,
        space.names, cost, candidates.signatures, info,
    )
    ctx.record_digest("explain", rendered)
    print(rendered)
    return 0


def _cmd_params(args: argparse.Namespace, run: _Run) -> int:
    from .experiments import format_parameter_table
    from .optimizer.config import DEFAULT_PARAMETERS

    ctx = _context_from_args(args)
    run.ctx = ctx
    table = format_parameter_table(DEFAULT_PARAMETERS.as_db2_table())
    ctx.record_digest("params_table", table)
    print(table)
    return 0


def _cmd_report(args: argparse.Namespace, run: _Run) -> int:
    manifests = []
    for path in args.manifests:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read manifest {path}: {exc}")
        errors = validate_manifest(data)
        if errors:
            print(
                f"{path}: invalid manifest:", file=sys.stderr
            )
            for error in errors:
                print(f"  {error}", file=sys.stderr)
            return 1
        manifests.append(data)
    export_path = getattr(args, "export_trace", None)
    if export_path:
        if len(manifests) != 1:
            _usage_error(
                "--export-trace takes exactly one manifest"
            )
        trace = manifests[0].get("trace")
        if not trace:
            print(
                f"{args.manifests[0]}: no span tree recorded — rerun "
                "the command with --trace",
                file=sys.stderr,
            )
            return 1
        target = write_trace_events(trace, export_path)
        events = json.loads(target.read_text())
        print(
            f"wrote {sum(1 for e in events if e.get('ph') == 'X')} "
            f"trace events to {target} "
            "(load in ui.perfetto.dev or chrome://tracing)"
        )
        return 0
    if getattr(args, "append_history", False):
        if len(manifests) != 1:
            _usage_error("--append-history takes exactly one manifest")
        entries = manifest_history_entries(
            manifests[0], source=str(args.manifests[0])
        )
        target = append_history(entries, getattr(args, "history", None))
        print(
            f"history: appended {len(entries)} series point(s) to "
            f"{target}",
            file=sys.stderr,
        )
    if len(manifests) == 1:
        print(render_manifest(manifests[0]))
    else:
        print(render_comparison(manifests[0], manifests[1]))
    return 0


def _bench_trend(args: argparse.Namespace) -> int:
    """``repro bench trend``: the multi-run history regression gate."""
    history_path = getattr(args, "history", None) or \
        default_history_path()
    entries = load_history(history_path)
    if not entries:
        _usage_error(
            f"no history at {history_path} — append records with "
            "`repro bench RECORD --append-history` (or run the "
            "benchmarks, which append automatically)"
        )
    try:
        report = detect_trends(
            entries,
            window=args.window,
            mad_k=args.mad_k,
            rel_floor=args.rel_floor,
            series_filter=args.series or None,
        )
    except ValueError as exc:
        _usage_error(str(exc))
    if not report.series:
        _usage_error(
            f"history at {history_path} has no series matching "
            f"{args.series!r}"
        )
    print(render_trend_report(report))
    if report.ok:
        return 0
    if args.advisory:
        print(
            "advisory mode: regressions reported but not gating",
            file=sys.stderr,
        )
        return 0
    return 1


def _cmd_bench(args: argparse.Namespace, run: _Run) -> int:
    if args.record == "trend":
        return _bench_trend(args)
    try:
        current = load_bench_record(args.record)
    except ValueError as exc:
        _usage_error(str(exc))
    if getattr(args, "append_history", False):
        entries = bench_history_entries(
            current, source=str(args.record)
        )
        target = append_history(entries, getattr(args, "history", None))
        print(
            f"history: appended {len(entries)} series point(s) to "
            f"{target}",
            file=sys.stderr,
        )
    if not args.compare:
        print(render_bench_record(current))
        return 0
    try:
        baseline = load_bench_record(args.compare)
    except ValueError as exc:
        _usage_error(str(exc))
    comparison = compare_bench_records(
        baseline, current, threshold=args.threshold
    )
    print(render_bench_comparison(comparison))
    if comparison.ok:
        return 0
    if args.advisory:
        print(
            "advisory mode: regressions reported but not gating",
            file=sys.stderr,
        )
        return 0
    return 1


def _parse_query_list(raw: "str | None") -> tuple[str, ...]:
    return tuple(
        name.strip() for name in (raw or "").split(",") if name.strip()
    )


def _plan_cache_from_args(args: argparse.Namespace):
    """The PlanCache the cache flags describe (None with --no-cache).

    Shared by ``serve`` and ``loadgen`` so the online commands honour
    ``$REPRO_CACHE_DIR`` / ``--cache-dir`` / ``--no-cache`` exactly
    like the offline experiment subcommands.
    """
    from .optimizer.plancache import PlanCache

    if getattr(args, "no_cache", False):
        return None
    return PlanCache(getattr(args, "cache_dir", None))


def _cmd_serve(args: argparse.Namespace, run: _Run) -> int:
    """``repro serve``: the long-running online decision server."""
    from .serve import RequestError
    from .serve.server import run_server
    from .serve.store import CandidateStore

    if args.port < 0:
        _usage_error("--port must be >= 0 (0 = ephemeral)")
    if args.workers < 1:
        _usage_error("--workers must be >= 1")
    if args.quant_digits < 1:
        _usage_error("--quant-digits must be >= 1")
    try:
        warm_scenario = resolve_scenario_key(args.warm_scenario)
    except UnknownScenarioError as exc:
        _usage_error(str(exc))
    warm = _parse_query_list(args.warm)
    cache = _plan_cache_from_args(args)

    def store_factory() -> CandidateStore:
        return CandidateStore(
            scale=args.scale,
            delta=args.delta,
            cache=cache,
            catalog_path=args.catalog,
        )

    try:
        return run_server(
            host=args.host,
            port=args.port,
            store_factory=store_factory,
            warm=warm,
            warm_scenario=warm_scenario,
            quant_digits=args.quant_digits,
            reload_interval=(
                args.reload_interval if args.catalog else 0.0
            ),
            workers=args.workers,
        )
    except RequestError as exc:
        _usage_error(str(exc))


def _cmd_loadgen(args: argparse.Namespace, run: _Run) -> int:
    """``repro loadgen``: the seeded closed-loop latency benchmark."""
    from urllib.parse import urlsplit

    from .serve import RequestError
    from .serve.loadgen import run_loadgen
    from .serve.server import ServeApp
    from .serve.store import CandidateStore

    if args.qps <= 0:
        _usage_error("--qps must be > 0")
    if args.connections < 1:
        _usage_error("--connections must be >= 1")
    if args.quant_digits < 1:
        _usage_error("--quant-digits must be >= 1")
    count = args.requests
    if count is None:
        count = int(round(args.qps * args.duration))
    if count < 1:
        _usage_error(
            "--requests (or --qps * --duration) must be >= 1"
        )
    try:
        scenario_key = resolve_scenario_key(args.scenario_opt)
    except UnknownScenarioError as exc:
        _usage_error(str(exc))
    queries = _parse_query_list(args.queries)
    if not queries:
        _usage_error("--queries must name at least one query")

    host = port = None
    app = None
    store = CandidateStore(
        scale=args.scale,
        delta=args.delta,
        cache=_plan_cache_from_args(args),
    )
    if args.self_serve or not args.url:
        app = ServeApp(
            store,
            quant_digits=args.quant_digits,
            reload_interval=0.0,
        )
    else:
        parts = urlsplit(args.url)
        if not parts.hostname or not parts.port:
            _usage_error(
                "--url must look like http://HOST:PORT "
                f"(got {args.url!r})"
            )
        host, port = parts.hostname, parts.port
    try:
        return run_loadgen(
            store=store,
            queries=queries,
            scenario_key=scenario_key,
            qps=args.qps,
            count=count,
            seed=args.seed,
            connections=min(args.connections, count),
            quant_digits=args.quant_digits,
            warmup=args.warmup,
            host=host,
            port=port,
            self_serve_app=app,
            bench_out=args.bench_out or None,
            verify=args.verify_offline,
            p99_gate=args.p99_gate,
            append_to_history=not args.no_history,
        )
    except RequestError as exc:
        _usage_error(str(exc))


def _workload_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=100.0)
    p.add_argument(
        "--queries", default="",
        help="comma-separated subset, e.g. Q3,Q14,Q20",
    )


def _cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir", default=None,
        help="candidate-set cache directory (default: "
             "$REPRO_CACHE_DIR or .repro-cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="recompute candidate sets; do not read or write the "
             "disk cache",
    )


def _obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", action="store_true",
        help="record a wall/CPU span tree of the run into the "
             "manifest",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also export the span tree as a Chrome/Perfetto Trace "
             "Event file (implies --trace)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="sample the run with the wall-clock stack profiler and "
             "write a speedscope JSON + folded-stack flamegraph input "
             "(merged across --jobs workers)",
    )
    p.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="where to write the speedscope profile (default "
             "profile.speedscope.json; a .folded.txt sibling is "
             "written next to it; implies --profile)",
    )
    p.add_argument(
        "--profile-hz", type=int, default=None, metavar="HZ",
        help="profiler sampling rate in samples/s (default 101)",
    )
    p.add_argument(
        "--decisions", action="store_true",
        help="record decision provenance: winner/runner-up margins "
             "and switchover-plane distances per plan lookup, "
             "aggregated into a fragility block in the "
             "manifest plus a deterministic bottom-k sample of full "
             "explain records (identical for any --jobs value)",
    )
    p.add_argument(
        "--decisions-sample", type=int, default=None, metavar="K",
        help="how many sampled explain records the decision log "
             "keeps (bottom-k by hash; default 64; implies "
             "--decisions)",
    )
    p.add_argument(
        "--decisions-out", default=None, metavar="PATH",
        help="also export the sampled explain records as JSONL "
             "(implies --decisions)",
    )
    p.add_argument(
        "--progress", dest="progress", action="store_const",
        const="on", default="auto",
        help="force the live progress meter on (default: auto — "
             "TTY stderr with --log-level below warning)",
    )
    p.add_argument(
        "--no-progress", dest="progress", action="store_const",
        const="off",
        help="force the live progress meter off",
    )
    p.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="stderr logging level for the repro loggers "
             "(default warning)",
    )
    p.add_argument(
        "--manifest", default="run-manifest.json", metavar="PATH",
        help="where to write the machine-readable run manifest "
             "(default run-manifest.json)",
    )
    p.add_argument(
        "--no-manifest", action="store_true",
        help="do not write a run manifest",
    )


def _resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts per failed task under --on-task-error "
             "retry/skip (default 2; ignored under abort)",
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock limit; a task past it is "
             "interrupted (and its worker respawned if it is wedged)",
    )
    p.add_argument(
        "--on-task-error", default="abort", choices=ON_ERROR_MODES,
        help="what a failed task does to the run: abort the sweep "
             "(default), retry with backoff then abort, or retry "
             "then skip — finishing with holes listed in the "
             "manifest",
    )
    p.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. "
             "'kill:0.2,raise:0.1,hang:0.05,hang=30' "
             "(KIND:RATE entries; hang=SECONDS bounds hangs)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="run seed driving fault injection and backoff jitter "
             "(default 0)",
    )
    p.add_argument(
        "--checkpoint", action="store_true",
        help="journal each finished task to a content-addressed run "
             "directory so the run can be resumed",
    )
    p.add_argument(
        "--resume", nargs="?", const="auto", default=None,
        metavar="RUN_ID",
        help="resume a checkpointed run, skipping journaled tasks; "
             "with no RUN_ID the run id is recomputed from the "
             "configuration (an explicit id must match it)",
    )


def _jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the per-query sweep (default 1; "
             "results are identical for any value)",
    )


def _scenario_arguments(
    p: argparse.ArgumentParser, spec: "ExperimentSpec | None" = None
) -> None:
    positional = spec is None or spec.scenario_positional
    required = spec is not None and spec.scenario_default is None
    if positional:
        p.add_argument(
            "scenario_arg", nargs="?", default=None, metavar="scenario",
            help="storage scenario: shared/split/colocated "
                 "(or fig5/fig6/fig7)"
                 + ("" if required else " [optional]"),
        )
    p.add_argument(
        "--scenario", dest="scenario_opt", default=None, metavar="KEY",
        help="storage scenario: shared/split/colocated or "
             "fig5/fig6/fig7"
             + (
                 ""
                 if spec is None or spec.scenario_default is None
                 else f" (default {spec.scenario_default})"
             ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Sensitivity of query optimization to storage access "
            "cost parameters (SIGMOD 2003 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One subcommand per registered experiment spec.
    for spec in all_experiments():
        p = sub.add_parser(spec.name, help=spec.help)
        spec.add_arguments(p)
        if spec.uses_scenario:
            _scenario_arguments(p, spec)
        _workload_flags(p)
        _cache_flags(p)
        _obs_flags(p)
        _jobs_flag(p)
        _resilience_flags(p)
        p.set_defaults(func=_run_spec_command, spec=spec)

    p_diagram = sub.add_parser(
        "diagram", help="ASCII plan diagram over two device axes"
    )
    p_diagram.add_argument("query")
    p_diagram.add_argument("x_device")
    p_diagram.add_argument("y_device")
    p_diagram.add_argument(
        "--scenario", dest="scenario_opt", default="split", metavar="KEY",
        help="storage scenario: shared/split/colocated or "
             "fig5/fig6/fig7 (default split)",
    )
    p_diagram.add_argument("--delta", type=float, default=100.0)
    p_diagram.add_argument("--resolution", type=int, default=32)
    _workload_flags(p_diagram)
    _cache_flags(p_diagram)
    _obs_flags(p_diagram)
    p_diagram.set_defaults(func=_cmd_diagram)

    p_explain = sub.add_parser(
        "explain",
        help="full provenance of one plan decision: winner vs "
             "runner-up, margin, nearest switchover plane and the "
             "cost perturbations that cross it",
    )
    p_explain.add_argument(
        "query", nargs="?", default=None, metavar="QUERY",
        help="TPC-H query name, e.g. Q5 (or use --generated)",
    )
    p_explain.add_argument(
        "--generated", default=None, metavar="SEED:INDEX",
        help="explain a generated-census query instead of a TPC-H "
             "one (regenerated deterministically from the census "
             "seed and stream index)",
    )
    p_explain.add_argument(
        "--cost-vector", default=None, metavar="C1,C2,...",
        help="probe cost vector, one positive value per resource "
             "(default: the scenario's center costs)",
    )
    p_explain.add_argument(
        "--scenario", dest="scenario_opt", default=None, metavar="KEY",
        help="storage scenario: shared/split/colocated or "
             "fig5/fig6/fig7 (default split; colocated with "
             "--generated)",
    )
    p_explain.add_argument(
        "--delta", type=float, default=100.0,
        help="feasible-region half-width the candidate set is "
             "computed over (default 100)",
    )
    _workload_flags(p_explain)
    _cache_flags(p_explain)
    _obs_flags(p_explain)
    p_explain.set_defaults(func=_cmd_explain)

    p_params = sub.add_parser(
        "params", help="the Section 7.3 system parameter table"
    )
    _obs_flags(p_params)
    p_params.set_defaults(func=_cmd_params)

    p_report = sub.add_parser(
        "report",
        help="render a run manifest (one arg) or diff two manifests",
    )
    p_report.add_argument(
        "manifests", nargs="+", metavar="MANIFEST",
        help="path(s) to run-manifest.json files (one or two)",
    )
    p_report.add_argument(
        "--export-trace", default=None, metavar="PATH",
        help="convert the manifest's span tree to a Chrome/Perfetto "
             "Trace Event file instead of rendering it",
    )
    p_report.add_argument(
        "--append-history", action="store_true",
        help="also append the manifest's wall time and top-level "
             "phase timings to the perf-history store",
    )
    p_report.add_argument(
        "--history", default=None, metavar="PATH",
        help="perf-history store to append to (default "
             "$REPRO_HISTORY_DIR/history.jsonl or "
             "benchmarks/history.jsonl)",
    )
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser(
        "bench",
        help="render or regression-gate benchmark telemetry records",
    )
    p_bench.add_argument(
        "record", metavar="BENCH_JSON",
        help="path to a BENCH_<name>.json record emitted by the "
             "benchmark plugin, or the literal word 'trend' to judge "
             "the perf-history store instead",
    )
    p_bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="baseline record to diff against; exits 1 when a median "
             "regresses beyond the threshold",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=0.15,
        help="relative median slowdown treated as a regression "
             "(default 0.15 = 15%%)",
    )
    p_bench.add_argument(
        "--advisory", action="store_true",
        help="report regressions but always exit 0 (CI advisory mode)",
    )
    p_bench.add_argument(
        "--append-history", action="store_true",
        help="also append the record's per-test medians to the "
             "perf-history store",
    )
    p_bench.add_argument(
        "--history", default=None, metavar="PATH",
        help="perf-history store to read/append (default "
             "$REPRO_HISTORY_DIR/history.jsonl or "
             "benchmarks/history.jsonl)",
    )
    p_bench.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="trend mode: judge the newest point of each series "
             "against the median of up to N preceding points "
             "(default 5)",
    )
    p_bench.add_argument(
        "--mad-k", type=float, default=4.0, metavar="K",
        help="trend mode: MAD-band multiplier; a point beyond "
             "median + K*MAD flags (default 4.0)",
    )
    p_bench.add_argument(
        "--rel-floor", type=float, default=0.25, metavar="F",
        help="trend mode: minimum relative movement that can flag, "
             "so flat series absorb timer jitter (default 0.25)",
    )
    p_bench.add_argument(
        "--series", default=None, metavar="SUBSTR",
        help="trend mode: only judge series whose name contains "
             "SUBSTR",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="long-running online decision server: POST /v1/decide "
             "answers winner/runner-up, margin and switchover-plane "
             "distance, bit-identical to offline `repro explain`",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8787,
        help="bind port; 0 picks an ephemeral port, printed on "
             "stderr (default 8787)",
    )
    p_serve.add_argument(
        "--delta", type=float, default=100.0,
        help="feasible-region half-width candidate sets are computed "
             "over (default 100, matching `repro explain`)",
    )
    p_serve.add_argument(
        "--quant-digits", type=int, default=9,
        help="significant digits incoming cost vectors are quantized "
             "to (default 9)",
    )
    p_serve.add_argument(
        "--warm", default=None, metavar="Q1,Q5,...",
        help="candidate sets to pre-build before accepting traffic",
    )
    p_serve.add_argument(
        "--warm-scenario", default="split", metavar="KEY",
        help="scenario the --warm sets are built for (default split)",
    )
    p_serve.add_argument(
        "--catalog", default=None, metavar="PATH",
        help="pickled catalog to serve from; polled for digest "
             "changes and hot-reloaded (default: TPC-H at --scale)",
    )
    p_serve.add_argument(
        "--reload-interval", type=float, default=5.0,
        metavar="SECONDS",
        help="catalog digest poll interval with --catalog "
             "(default 5s)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="pre-forked server processes sharing the listening "
             "socket and one on-disk plan cache (default 1)",
    )
    p_serve.add_argument("--scale", type=float, default=100.0)
    p_serve.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="stderr logging level (default warning)",
    )
    _cache_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="seeded closed-loop load generator against the decision "
             "server; emits a BENCH_serve.json latency record and "
             "can digest-verify every response against the offline "
             "explain kernel",
    )
    p_loadgen.add_argument(
        "--url", default=None, metavar="http://HOST:PORT",
        help="server to drive; omitted (or --self-serve) runs an "
             "in-process server on an ephemeral port",
    )
    p_loadgen.add_argument(
        "--qps", type=float, default=200.0,
        help="target request rate (default 200)",
    )
    p_loadgen.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="run length; requests = qps * duration (default 5s)",
    )
    p_loadgen.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help="exact request count (overrides --duration)",
    )
    p_loadgen.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for the probe stream; one seed -> one "
             "byte-identical request sequence (default 0)",
    )
    p_loadgen.add_argument(
        "--queries", default="Q1,Q6,Q14",
        help="comma-separated queries to probe, round-robined "
             "(default Q1,Q6,Q14)",
    )
    p_loadgen.add_argument(
        "--scenario", dest="scenario_opt", default="split",
        metavar="KEY",
        help="storage scenario for every probe (default split)",
    )
    p_loadgen.add_argument("--scale", type=float, default=100.0)
    p_loadgen.add_argument(
        "--delta", type=float, default=100.0,
        help="feasible-region half-width probes are sampled from "
             "(default 100)",
    )
    p_loadgen.add_argument(
        "--connections", type=int, default=16,
        help="keep-alive connections issuing requests (default 16)",
    )
    p_loadgen.add_argument(
        "--quant-digits", type=int, default=9,
        help="protocol quantization, must match the server "
             "(default 9)",
    )
    p_loadgen.add_argument(
        "--warmup", type=int, default=4, metavar="N",
        help="unmeasured priming requests before the clock starts "
             "(default 4)",
    )
    p_loadgen.add_argument(
        "--self-serve", action="store_true",
        help="run the server in-process on an ephemeral port "
             "(implied when --url is omitted)",
    )
    p_loadgen.add_argument(
        "--verify-offline", action="store_true",
        help="replay the request stream through the offline explain "
             "kernel and fail on any response-digest mismatch",
    )
    p_loadgen.add_argument(
        "--p99-gate", type=float, default=None, metavar="SECONDS",
        help="exit 1 when p99 latency exceeds this bound",
    )
    p_loadgen.add_argument(
        "--bench-out", default="BENCH_serve.json", metavar="PATH",
        help="where to write the latency BENCH record (default "
             "BENCH_serve.json; '' disables)",
    )
    p_loadgen.add_argument(
        "--no-history", action="store_true",
        help="do not append the record's medians to the perf-history "
             "store",
    )
    p_loadgen.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="stderr logging level (default warning)",
    )
    _cache_flags(p_loadgen)
    p_loadgen.set_defaults(func=_cmd_loadgen)
    return parser


def _serializable_config(args: argparse.Namespace) -> dict[str, Any]:
    """The parsed CLI namespace, minus the non-JSON machinery."""
    config = dict(vars(args))
    for key in ("func", "spec", "scenario_arg", "scenario_opt"):
        config.pop(key, None)
    return config


def _decisions_epilogue(summary: dict) -> str:
    return (
        f"decisions: {summary['probes']} probes observed, "
        f"{summary['sampled']} sampled, {summary['near_plane']} "
        f"within {summary['epsilon']:g} of a switchover plane "
        "(see `repro report`)"
    )


def _fragility_epilogue(summary: dict) -> "str | None":
    """Wrong-choice fraction by margin decade, merged over contexts.

    ``None`` when no probe carried a reference plan (nothing to call
    wrong), e.g. discovery runs outside the census/expected sweeps.
    """
    if not summary.get("with_reference"):
        return None
    by_decade = wrong_choice_by_decade(summary.get("contexts", {}))
    if not by_decade:
        return None
    return (
        "fragility: wrong-choice fraction by margin decade: "
        + ", ".join(
            f"{label} {wrong}/{total} ({wrong / total:.1%})"
            for label, total, wrong in by_decade
        )
    )


def _finish_run(
    args: argparse.Namespace,
    ctx: "RunContext | None",
    wall_seconds: float,
    cpu_seconds: float,
) -> None:
    """Write the manifest and trace artefacts and the cache summary."""
    snapshot = METRICS.snapshot()
    profiling = bool(
        getattr(args, "profile", False)
        or getattr(args, "profile_out", None)
    )
    profile_summary = PROFILER.summary() if profiling else None
    decisions_summary = (
        DECISIONS.summary() if DECISIONS.enabled else None
    )
    if getattr(args, "manifest", None) and not getattr(
        args, "no_manifest", False
    ):
        manifest = manifest_from_context(
            command=args.command,
            config=_serializable_config(args),
            ctx=ctx,
            metrics=snapshot,
            trace=TRACER.export() if TRACER.enabled else None,
            wall_seconds=wall_seconds,
            cpu_seconds=cpu_seconds,
            profile=profile_summary,
            decisions=decisions_summary,
        )
        write_manifest(manifest, args.manifest)
    decisions_out = getattr(args, "decisions_out", None)
    if DECISIONS.enabled and decisions_out:
        records = DECISIONS.records()
        target = write_decision_records(records, decisions_out)
        print(
            f"decisions: wrote {len(records)} sampled explain "
            f"record(s) to {target}",
            file=sys.stderr,
        )
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        write_trace_events(
            TRACER.export(),
            trace_out,
            instant_events=(
                decision_instant_events(DECISIONS.records())
                if DECISIONS.enabled else None
            ),
        )
    if profiling:
        profile_out = (
            getattr(args, "profile_out", None)
            or "profile.speedscope.json"
        )
        state = PROFILER.snapshot()
        target = write_speedscope(
            state, profile_out, name=f"repro {args.command}"
        )
        folded = write_folded(state, folded_path_for(profile_out))
        print(
            f"profile: {PROFILER.sample_count} samples at "
            f"{PROFILER.hz} Hz -> {target} (speedscope.app) and "
            f"{folded} (flamegraph.pl)",
            file=sys.stderr,
        )
    stats = getattr(ctx, "task_stats", None) or {}
    failed = stats.get("failed") or []
    if failed:
        print(
            f"warning: {len(failed)} task(s) failed and were skipped "
            f"— the run has holes (see the manifest's tasks.failed "
            "and `repro report`)",
            file=sys.stderr,
        )
    run_id = getattr(ctx, "run_id", None)
    if run_id:
        print(
            f"checkpoint: run {run_id[:16]} journaled — resume an "
            "interrupted run by re-running with --resume "
            f"(or --resume {run_id} to pin the exact configuration)",
            file=sys.stderr,
        )
    counters = snapshot["counters"]
    lookups = (
        counters.get("plancache.hits", 0)
        + counters.get("plancache.misses", 0)
    )
    if lookups and not getattr(args, "no_cache", False):
        from .optimizer.plancache import default_cache_dir

        if ctx is not None and ctx.cache is not None:
            cache_dir = ctx.cache.root
        else:
            cache_dir = getattr(args, "cache_dir", None) or \
                default_cache_dir()
        print(
            f"cache: {counters.get('plancache.hits', 0)} hits, "
            f"{counters.get('plancache.misses', 0)} misses "
            f"({counters.get('plancache.corrupt', 0)} corrupt) "
            f"under {cache_dir}",
            file=sys.stderr,
        )
    if decisions_summary is not None:
        print(_decisions_epilogue(decisions_summary), file=sys.stderr)
        fragility = _fragility_epilogue(decisions_summary)
        if fragility:
            print(fragility, file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(getattr(args, "log_level", "warning"))
    TRACER.reset()
    # --trace-out needs the span tree, so it implies --trace.
    TRACER.enabled = bool(
        getattr(args, "trace", False)
        or getattr(args, "trace_out", None)
    )
    # --profile-out / --profile-hz imply --profile; off means the
    # profiler object stays inert (no sampler thread exists).
    profiling = bool(
        getattr(args, "profile", False)
        or getattr(args, "profile_out", None)
    )
    if profiling:
        PROFILER.reset()
        try:
            PROFILER.enable(getattr(args, "profile_hz", None))
        except ValueError as exc:
            _usage_error(str(exc))
    else:
        PROFILER.disable()
    PROGRESS.configure(
        mode=getattr(args, "progress", "auto"),
        log_level=getattr(args, "log_level", "warning"),
    )
    # --decisions-sample / --decisions-out imply --decisions.  The
    # sampling seed is fixed (not tied to --seed, which drives fault
    # injection) so the sampled record set is a property of the
    # workload alone.
    decisions_on = bool(
        getattr(args, "decisions", False)
        or getattr(args, "decisions_out", None)
        or getattr(args, "decisions_sample", None) is not None
    )
    DECISIONS.disable()
    DECISIONS.reset()
    if decisions_on:
        sample_k = getattr(args, "decisions_sample", None)
        if sample_k is None:
            DECISIONS.configure()
        else:
            if sample_k < 0:
                _usage_error("--decisions-sample must be >= 0")
            DECISIONS.configure(sample_k=sample_k)
        DECISIONS.enable()
    METRICS.reset()
    run = _Run()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    with span(f"cli.{args.command}"):
        code = args.func(args, run)
    wall_seconds = time.perf_counter() - wall_start
    cpu_seconds = time.process_time() - cpu_start
    # Stop the profiler before reading its state so the artefacts
    # cover exactly the command body.
    if profiling:
        PROFILER.disable()
    # serve/loadgen manage their own artefacts (BENCH record, history
    # append) and never write run manifests.
    if args.command not in ("report", "bench", "serve", "loadgen"):
        _finish_run(args, run.ctx, wall_seconds, cpu_seconds)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
