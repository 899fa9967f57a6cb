"""Run one ``repro`` command with timers around each layer's entry points.

Usage: ``python tracer.py OUT.json REPRO_ARGS...``

The timers are installed from outside the program: each wrapper
replaces the module (or class) attribute that the caller looks up at
call time, so nothing under ``src/`` changes and the command's stdout
is byte-for-byte what ``python -m repro REPRO_ARGS...`` prints.  When
the command returns (for ``serve``: after its SIGTERM drain) the
recorded totals are written to ``OUT.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable


class Recorder:
    """Per-layer call counts, busy seconds, per-call samples and counts."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.max_seconds: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}

    def add(self, name: str, elapsed: float, keep_sample: bool) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.max_seconds[name] = max(
            self.max_seconds.get(name, 0.0), elapsed
        )
        if keep_sample:
            self.samples.setdefault(name, []).append(elapsed)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def as_json(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "max_seconds": self.max_seconds,
            "samples": self.samples,
            "counts": self.counts,
        }


def timed(
    func: Callable,
    name: str,
    recorder: Recorder,
    observe: "Callable[[Recorder, tuple, Any], None] | None" = None,
    keep_sample: bool = False,
) -> Callable:
    """``func`` with its wall time (and ``observe``'s counts) recorded.

    The wrapper returns exactly what ``func`` returns and lets its
    exceptions through unchanged.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.add(
                name, time.perf_counter() - start, keep_sample
            )
        if observe is not None:
            observe(recorder, args, result)
        return result

    return wrapper


def _wrap(owner: Any, attr: str, name: str, recorder: Recorder,
          **options) -> None:
    setattr(owner, attr, timed(getattr(owner, attr), name, recorder,
                               **options))


def _root_plans(recorder: Recorder, args: tuple, result: Any) -> None:
    plans, truncated = result
    recorder.count("optimizer.root_plans", len(plans))
    recorder.count("optimizer.truncated_sets", int(bool(truncated)))


def _lp_filter(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("core.lp_inputs", len(args[0]))
    recorder.count("core.lp_kept", len(result))


def _cache_hit(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("plancache.hits", int(result is not None))


def _cache_store(recorder: Recorder, args: tuple, result: Any) -> None:
    cache, key = args[0], args[1]
    path = cache.root / key[:2] / f"{key}.pkl"
    if path.exists():
        recorder.count("plancache.bytes_written", path.stat().st_size)


def _sweep_probes(recorder: Recorder, args: tuple, result: Any) -> None:
    base_region, deltas = args[2], args[3]
    recorder.count("sweep.probes", len(deltas) * base_region.n_vertices)


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    mod = importlib.import_module
    engine = mod("repro.experiments.engine")
    parametric = mod("repro.optimizer.parametric")
    plancache = mod("repro.optimizer.plancache")
    worst_case = mod("repro.experiments.worst_case")
    usage = mod("repro.experiments.usage_analysis")
    cli = mod("repro.cli")
    server = mod("repro.serve.server")

    _wrap(engine, "build_tpch_catalog", "catalog.build", recorder)
    _wrap(parametric, "enumerate_root_plans", "optimizer.dp", recorder,
          observe=_root_plans)
    _wrap(parametric, "candidate_optimal_indices", "core.lp_filter",
          recorder, observe=_lp_filter)
    _wrap(plancache.PlanCache, "key_for", "plancache.key", recorder)
    _wrap(plancache.PlanCache, "load", "plancache.load", recorder,
          observe=_cache_hit)
    _wrap(plancache.PlanCache, "store", "plancache.store", recorder,
          observe=_cache_store)
    _wrap(worst_case, "worst_case_curve", "sweep.worst_case", recorder,
          observe=_sweep_probes)
    _wrap(usage, "monte_carlo_shares", "sweep.mc", recorder)
    _wrap(usage, "sweep_optimal_totals", "sweep.mc", recorder)
    _wrap(usage, "generated_task", "generator.task", recorder)
    _wrap(engine, "_engine_task_worker", "engine.task", recorder)
    _wrap(cli, "run_experiment", "engine.run", recorder)
    for spec_type in {type(spec) for spec in engine.all_experiments()}:
        _wrap(spec_type, "render", "cli.render", recorder)
    _wrap(server, "parse_decide_request", "serve.parse", recorder,
          keep_sample=True)
    _wrap(server, "decide_group", "serve.decide", recorder,
          keep_sample=True)


def main(argv: "list[str]") -> int:
    out, repro_args = argv[0], argv[1:]
    before = len(sys.modules)
    start = time.perf_counter()
    cli = importlib.import_module("repro.cli")
    import_s = time.perf_counter() - start
    modules = len(sys.modules) - before
    recorder = Recorder()
    recorder.add("cli.import", import_s, keep_sample=False)
    recorder.count("cli.import_modules", modules)
    install(recorder)
    try:
        code = cli.main(repro_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(out, "w") as handle:
        json.dump(recorder.as_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
