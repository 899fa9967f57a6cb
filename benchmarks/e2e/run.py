"""End-to-end benchmark of the ``repro`` command line and decision server.

Run from a checkout (the source under ``src/`` is what gets measured)::

    python benchmarks/e2e/run.py [--workload W]... [--seed S]
        [--trace [0|1]] [--out RESULT.json]
    python benchmarks/e2e/run.py compare A.json... -- B.json...
    python benchmarks/e2e/run.py spread R.json... [--out SPREAD.json]
    python benchmarks/e2e/run.py pin

A run prints ``workload metric value unit`` for each metric the
workload reports and, as its last line, one JSON object ``{"correct",
"attempted", "failed", "metrics"}`` carrying every end-to-end metric.
``--trace`` (or ``--trace 1``) reruns the same work with per-layer
timers and reports the per-layer metrics instead.  ``--seconds`` is
accepted only with the value of ``run_seconds``: the work of a run is
fixed.  Metric names, units, directions and regression bounds live in
``BENCHMARK.json`` at the checkout root; which workload reports which
metric lives in ``layers.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from harness import (
    FIG_SCENARIOS,
    PINS,
    Bench,
    BenchError,
    pinnable_rows,
    quartiles,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _workloads() -> dict[str, Callable]:
    from offline import census_generated, figure
    from serveload import serve_mix

    return {
        "fig-cold": lambda bench: figure(bench, warm=False),
        "fig-warm": lambda bench: figure(bench, warm=True),
        "census-gen": census_generated,
        "serve-mix": serve_mix,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_layer_map() -> dict:
    return json.loads((HERE / "layers.json").read_text())


def _check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {ROOT / 'src' / 'repro'}; run from a "
            "checkout of the repository"
        )


# ----------------------------------------------------------------------
# Running workloads
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, trace: bool, spec: dict) -> dict:
    """One run of one workload, as the record ``compare`` reads.

    ``metrics`` holds what the workload reports (its ``reports`` in
    ``layers.json``; traced, every per-layer metric, 0 for a layer the
    workload never calls).  ``line_metrics`` holds every metric the
    result line must carry: the reported ones plus the stand-ins.
    """
    started = time.time()
    bench = Bench(ROOT, seed, trace)
    try:
        outcome = _workloads()[name](bench)
    finally:
        bench.close()
    if trace:
        listed = spec["per_layer"]
        values = {m["name"]: outcome.metrics.get(m["name"], 0.0)
                  for m in listed}
        reported = [m["name"] for m in listed]
    else:
        listed = spec["end_to_end"]
        values = {**outcome.standins, **outcome.metrics}
        reported = load_layer_map()["workloads"][name]["reports"]
    line = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in listed
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "started": started,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: line[metric] for metric in reported},
        "raw": outcome.raw,
        "line_metrics": line,
        "digests": outcome.digests,
    }


def _run_main(argv: Sequence[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"the work of a run is fixed; --seconds must be "
                     f"{spec['run_seconds']} (run_seconds)")
    _check_checkout()
    runs = [
        run_workload(name, args.seed, bool(args.trace), spec)
        for name in args.workload or names
    ]
    for run in runs:
        for metric, entry in run["metrics"].items():
            print(f"{run['workload']} {metric} {entry['value']:.6g} "
                  f"{entry['unit']}")
        if not run["trace"]:
            print(f"{run['workload']} failed_frac "
                  f"{run['failed'] / run['attempted']:.6g} ratio")
    if args.out:
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    if len(runs) == 1:
        metrics = runs[0]["line_metrics"]
    else:
        metrics = {
            f"{run['workload']}/{metric}": entry
            for run in runs for metric, entry in run["line_metrics"].items()
        }
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> dict:
    """Judge one (workload, metric) pair; ``parent[i]`` pairs ``change[i]``.

    A gain needs the change to win at least 9/10 of the pairs and its
    median to beat the parent's by more than the parent's IQR.  When
    the parent's own IQR is wider than the bound the pair is
    unresolved, unless every change run beats every parent run.
    Otherwise a median worse by more than the bound is a regression.
    """
    lower = better == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    gain = (pm - cm) if lower else (cm - pm)
    if pm == 0:  # a per-layer count the parent never incremented
        label = "unchanged" if cm == 0 else "unresolved"
    elif (p3 - p1) / pm > bound:
        label = (
            "improved" if all(beats(c, p) for c in change for p in parent)
            else "unresolved"
        )
    elif wins >= 0.9 * len(pairs) and gain > p3 - p1:
        label = "improved"
    elif -gain / pm > bound:
        label = "regressed"
    else:
        label = "unchanged"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "wins": wins, "pairs": len(pairs), "bound": bound,
        "verdict": label,
    }


def _load_runs(paths: Sequence[str]) -> list[dict]:
    runs = []
    for path in paths:
        runs.extend(json.loads(Path(path).read_text())["runs"])
    return runs


def _groups(runs: list[dict]) -> dict[tuple[str, bool], list[dict]]:
    """Runs keyed by (workload, traced)."""
    groups: dict[tuple[str, bool], list[dict]] = {}
    for run in runs:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    return groups


def pair_runs(parent: list[dict], change: list[dict]
              ) -> tuple[list[tuple[dict, dict]], "str | None"]:
    """Pair the two sides by seed; say why they are not interleaved.

    Host speed drifts over minutes, so a comparison holds only when
    each pair's two runs ran back to back and the side that ran first
    alternates from pair to pair.  Returns the pairs in the order they
    ran and ``None``, or the pairs and the reason they fail that rule.
    """
    by_seed = {run["seed"]: run for run in change}
    if len(by_seed) != len(change) or len(
        {run["seed"] for run in parent}
    ) != len(parent):
        return [], "a seed appears twice on one side"
    pairs = sorted(
        ((run, by_seed[run["seed"]]) for run in parent
         if run["seed"] in by_seed),
        key=lambda pair: min(r["started"] for r in pair),
    )
    order = sorted(
        [(r["started"], index) for index, pair in enumerate(pairs)
         for r in pair]
    )
    if [index for _, index in order] != [
        index for index in range(len(pairs)) for _ in range(2)
    ]:
        return pairs, "pairs did not run back to back"
    firsts = [a["started"] < b["started"] for a, b in pairs]
    if any(x == y for x, y in zip(firsts, firsts[1:])):
        return pairs, "the side that ran first did not alternate"
    return pairs, None


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """Verdict rows per (workload, metric), interleaving notes and
    digest disagreements.

    Rows of a workload whose runs were not interleaved are reported
    ``unresolved``: host drift and the change cannot be told apart.
    """
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows, notes = [], []
    parents, changes = _groups(parent), _groups(change)
    for key in sorted(parents.keys() & changes.keys()):
        workload = key[0]
        pairs, problem = pair_runs(parents[key], changes[key])
        if not pairs:
            notes.append((workload, problem or "no seed in common"))
            continue
        if problem:
            notes.append((workload, problem))
        a, b = [p for p, _ in pairs], [c for _, c in pairs]
        for name in a[0]["metrics"]:
            if not all(name in r["metrics"] for r in a + b):
                continue
            meta = metrics[name]
            row = verdict(
                [r["metrics"][name]["value"] for r in a],
                [r["metrics"][name]["value"] for r in b],
                meta["better"], meta.get("bound", float("inf")),
            )
            if problem:
                row["verdict"] = "unresolved"
            rows.append((workload, name, row))
        failed = [
            sum(r["failed"] for r in side) / sum(r["attempted"] for r in side)
            for side in (a, b)
        ]
        rows.append((workload, "failed_frac", {
            "values": failed,
            "verdict": "regressed" if failed[1] > failed[0] else "unchanged",
        }))
    digests: dict[tuple, set] = {}
    for run in parent + change:
        for key, value in run["digests"].items():
            digests.setdefault((run["workload"], key), set()).add(value)
    differing = sorted(key for key, values in digests.items()
                       if len(values) > 1)
    return {"rows": rows, "notes": notes, "differing": differing}


def _compare_main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print("usage: run.py compare A.json... -- B.json...",
              file=sys.stderr)
        return 2
    split = list(argv).index("--")
    result = compare(
        _load_runs(argv[:split]), _load_runs(argv[split + 1:]), load_spec()
    )
    for workload, problem in result["notes"]:
        print(f"{workload:10} NOT INTERLEAVED: {problem}")
    for workload, name, row in result["rows"]:
        if name == "failed_frac":
            parent, change = row["values"]
            print(f"{workload:10} {name:24} parent {parent:.6g}"
                  f"  change {change:.6g}  {row['verdict']}")
            continue
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        print(
            f"{workload:10} {name:24} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]"
            f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}]"
            f"  won {row['wins']}/{row['pairs']}"
            f"  bound {row['bound']:g}  {row['verdict']}"
        )
    for workload, key in result["differing"]:
        print(f"{workload:10} digest {key} DIFFERS")
    regressed = any(row["verdict"] == "regressed"
                    for _, _, row in result["rows"])
    return 1 if regressed or result["differing"] else 0


# ----------------------------------------------------------------------
# spread
# ----------------------------------------------------------------------
def spread(runs: list[dict]) -> dict:
    """Run-to-run spread of each untraced (workload, metric) pair.

    ``iqr_frac`` is the quartile distance over the median; ``spread``
    is max/min - 1 over the runs, the figure a bound must be at least
    1.5 times.
    """
    record: dict[str, dict] = {}
    for (workload, traced), group in sorted(_groups(runs).items()):
        if traced:
            continue
        for name in group[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in group]
            q1, median, q3 = quartiles(values)
            record.setdefault(workload, {})[name] = {
                "runs": len(values),
                "median": median,
                "iqr_frac": (q3 - q1) / median,
                "spread": max(values) / min(values) - 1.0,
            }
    return record


def _spread_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py spread")
    parser.add_argument("results", nargs="+")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    record = spread(_load_runs(args.results))
    for workload, metrics in record.items():
        for name, row in metrics.items():
            print(f"{workload:10} {name:14} median {row['median']:.6g}"
                  f"  iqr/median {row['iqr_frac']:.3f}"
                  f"  max/min-1 {row['spread']:.3f}  n={row['runs']}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


# ----------------------------------------------------------------------
# pin
# ----------------------------------------------------------------------
def _pin_main(argv: Sequence[str]) -> int:
    """Rewrite the pinned figure rows from this checkout's output."""
    _check_checkout()
    bench = Bench(ROOT, 0, False)
    try:
        cache = bench.fresh_dir("cache")
        pins = {}
        for scenario in FIG_SCENARIOS:
            command = bench.run(
                ["figure", scenario, "--csv", "--cache-dir", str(cache),
                 "--jobs", "2"]
            )
            if command.code != 0:
                raise BenchError(f"figure {scenario} exited {command.code}")
            pins[scenario] = pinnable_rows(scenario, command.stdout.decode())
    finally:
        bench.close()
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, pins.values()))} row digests to {PINS}")
    return 0


def main(argv: Sequence[str]) -> int:
    try:
        if argv[:1] == ["compare"]:
            return _compare_main(argv[1:])
        if argv[:1] == ["spread"]:
            return _spread_main(argv[1:])
        if argv[:1] == ["pin"]:
            return _pin_main(argv[1:])
        return _run_main(argv)
    except (BenchError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
