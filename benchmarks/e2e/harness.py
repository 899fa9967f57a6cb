"""Process, statistics and output-check helpers shared by the workloads.

Every command runs as a fresh process of the checkout's own source
(``PYTHONPATH=<checkout>/src``) in a temp working directory under
``<checkout>/.bench_work``, so runs never share state except what a
workload deliberately prepares (a filled plan cache).  The work
directory stays inside the checkout because a run may write nowhere
else.

Every timed process runs on one CPU, the *measured* CPU, beside the
pacing loop of ``pace.py``; the harness itself (and the serve client)
runs on another CPU when there is one.  Times are reported paced:
divided by the host's slowdown over the same interval.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from pace import Pacer

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
PINS = HERE / "expected_rows.json"

#: Candidate sets ROADMAP item 3 is expected to change: the truncated
#: split sets and colocated Q8.  Their figure rows are not pinned.
UNPINNED = {
    "shared": frozenset(),
    "split": frozenset({"Q5", "Q8", "Q9", "Q21"}),
    "colocated": frozenset({"Q8"}),
}
FIG_SCENARIOS = ("shared", "split", "colocated")
#: Fresh processes timed per run for ``setup_s``, which reports their
#: median: import time varies by about 15% from one process to the
#: next on a shared 2-core host, so one probe is not enough.
SETUP_PROBES = 3
#: The power of the slowdown (``pace.py``) a set-up probe's time is
#: divided by.  Starting a process and importing modules (exec, mmap,
#: page faults, file reads) follows the pacing loop's speed less
#: closely than computing does: over ten runs of each workload the log
#: of the probe time moved with the log of the slowdown with slope
#: 0.73-0.90, and the power 0.8 instead of 1 took setup_s's quartile
#: distance over the median from 0.03-0.12 to 0.02-0.07.
STARTUP_PACING = 0.8

#: A (start, end) pair of ``time.perf_counter`` readings.
Interval = tuple[float, float]


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed operation)."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def require_tail(n: int, q: float, minimum: int = 10) -> None:
    """Refuse a tail percentile with fewer than ``minimum`` samples beyond."""
    if samples_beyond(n, q) < minimum:
        raise BenchError(
            f"p{q:g} of {n} samples has only {samples_beyond(n, q):g} "
            f"beyond it; need {minimum}"
        )


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sha256(data: "bytes | str") -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# Figure-row pinning
# ----------------------------------------------------------------------
def row_digests(csv_text: str) -> dict[str, str]:
    """SHA-256 of each CSV row, keyed by its first field."""
    digests = {}
    for line in csv_text.splitlines():
        if line:
            digests[line.split(",", 1)[0]] = sha256(line)
    return digests


def pinnable_rows(scenario: str, csv_text: str) -> dict[str, str]:
    """The row digests of one figure that the pin file covers."""
    excluded = UNPINNED[scenario]
    return {
        key: digest for key, digest in row_digests(csv_text).items()
        if key not in excluded
    }


def check_rows(
    scenario: str, csv_text: str, pins: dict[str, dict[str, str]]
) -> list[str]:
    """Pinned rows that are missing or differ (empty list = pass)."""
    got = row_digests(csv_text)
    return [
        key for key, digest in sorted(pins[scenario].items())
        if got.get(key) != digest
    ]


def load_pins() -> dict[str, dict[str, str]]:
    return json.loads(PINS.read_text())


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
@dataclass
class Command:
    """One finished command: exit code, time, memory and output."""

    code: int
    start: float
    end: float
    rss_mb: float
    stdout: bytes
    trace: "dict[str, Any] | None" = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Bench:
    """One benchmark invocation: checkout, seed, tracing and work dir."""

    root: Path
    seed: int
    trace: bool
    work: Path = field(init=False)
    env: dict[str, str] = field(init=False)
    deadline: float = field(init=False)
    cpus: set[int] = field(init=False)
    measured_cpu: int = field(init=False)
    pacer: Pacer = field(init=False)

    def __post_init__(self) -> None:
        base = self.root / ".bench_work"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(self.root / "src")
        # Every process wait and every serve phase is bounded by this,
        # so one run ends inside the 180 s a run may take even when a
        # command or the server hangs.
        self.deadline = time.monotonic() + 150.0
        self.cpus = os.sched_getaffinity(0)
        self.measured_cpu = min(self.cpus)
        try:
            self.pacer = Pacer(self.measured_cpu, self.work, self.env)
        except RuntimeError as exc:
            shutil.rmtree(self.work, ignore_errors=True)
            raise BenchError(str(exc)) from None
        os.sched_setaffinity(0, {max(self.cpus)})

    def close(self) -> None:
        self.pacer.close()
        os.sched_setaffinity(0, self.cpus)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.work))

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def slowdown(self, start: float, end: float) -> float:
        """The host's slowdown from ``start`` to ``end`` (``pace.py``).

        The first call stops the pacing loop, so a workload calls it
        only once everything is measured.
        """
        return self.pacer.slowdown(start, end)

    def paced(self, start: float, end: float, power: float = 1.0) -> float:
        """Seconds from ``start`` to ``end`` over the host's slowdown
        to the ``power``: how closely the measured work follows it."""
        return (end - start) / self.slowdown(start, end) ** power

    def spawn(self, argv: Sequence[str], timed: bool,
              **options) -> subprocess.Popen:
        """Start ``argv``: a timed process on the measured CPU, any
        other on every CPU."""
        proc = subprocess.Popen(argv, env=self.env, **options)
        try:
            os.sched_setaffinity(
                proc.pid, {self.measured_cpu} if timed else self.cpus
            )
        except ProcessLookupError:  # already gone; its exit code says why
            pass
        return proc

    def repro_argv(self, args: Sequence[str], trace_out: "Path | None"):
        if trace_out is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(TRACER), str(trace_out), *args]

    def run(self, args: Sequence[str], traced: bool = False,
            timed: bool = True) -> Command:
        """Run ``repro ARGS`` in a fresh cwd; stdout is kept in memory."""
        cwd = self.fresh_dir("cmd")
        trace_out = cwd / "trace.json" if traced else None
        argv = self.repro_argv(args, trace_out)
        out_path = cwd / "stdout"
        with open(out_path, "wb") as out, open(cwd / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = self.spawn(argv, timed, cwd=cwd, stdout=out, stderr=err)
            timer = threading.Timer(self.remaining(), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        # wait4 reaped the child; tell Popen so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if trace_out is not None and trace_out.exists():
            trace = json.loads(trace_out.read_text())
        return Command(
            code=proc.returncode,
            start=start,
            end=end,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_bytes(),
            trace=trace,
        )

    def run_script(self, code: str, *args: str,
                   timed: bool = False) -> subprocess.Popen:
        """Start ``python -c CODE ARGS`` with the checkout on the path."""
        return self.spawn(
            [sys.executable, "-c", code, *args], timed,
            cwd=self.fresh_dir("script"),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )

    def time_to_ready(self, code: str) -> Interval:
        """From spawning ``python -c CODE`` to its first line."""
        start = time.perf_counter()
        proc = self.run_script(code, timed=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        finally:
            stop(proc, self.remaining())
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up probe failed ({proc.returncode})")
        return start, ready

    def setup_probes(self, code: str) -> list[Interval]:
        """Time-to-ready of ``SETUP_PROBES`` fresh processes."""
        return [self.time_to_ready(code) for _ in range(SETUP_PROBES)]


def stop(proc: subprocess.Popen, limit: float) -> int:
    """Wait up to ``limit`` seconds for ``proc``, then kill it."""
    if proc.stdout is not None:
        proc.stdout.close()
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{proc.args[:4]} did not exit in {limit:.0f}s")


def wait_all(procs: Sequence[subprocess.Popen], limit: float) -> None:
    """Wait for every process; any nonzero exit is a benchmark error."""
    codes = []
    try:
        for proc in procs:
            codes.append(stop(proc, limit))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise BenchError(f"prep process exited with {codes}")


# ----------------------------------------------------------------------
# Per-layer metrics from tracer dumps
# ----------------------------------------------------------------------
def layer_metrics(traces: Sequence[dict], passes: int) -> dict[str, float]:
    """Fold tracer dumps into the per-layer metrics, per pass.

    Times and counts are summed over every traced command and divided
    by the number of traced passes; the module count is the mean per
    command, the slowest DP call is a maximum and the LP keep ratio is
    candidates kept over plans filtered.  A layer the workload never
    calls reads 0.
    """
    def total(kind: str, name: str) -> float:
        return sum(t[kind].get(name, 0) for t in traces) / passes

    def seconds(name: str) -> float:
        return total("seconds", name)

    def count(name: str) -> float:
        return total("counts", name)

    lp_inputs = count("core.lp_inputs")
    return {
        "cli.import_s": seconds("cli.import"),
        "cli.import_modules": (
            sum(t["counts"].get("cli.import_modules", 0) for t in traces)
            / max(len(traces), 1)
        ),
        "cli.render_s": seconds("cli.render"),
        "catalog.build_s": seconds("catalog.build"),
        "optimizer.dp_s": seconds("optimizer.dp"),
        "optimizer.dp_max_s": max(
            (t["max_seconds"].get("optimizer.dp", 0.0) for t in traces),
            default=0.0,
        ),
        "optimizer.root_plans": count("optimizer.root_plans"),
        "optimizer.truncated_sets": count("optimizer.truncated_sets"),
        "core.lp_filter_s": seconds("core.lp_filter"),
        "core.lp_keep_ratio": (
            count("core.lp_kept") / lp_inputs if lp_inputs else 0.0
        ),
        "plancache.store_s": seconds("plancache.store"),
        "plancache.bytes_written": count("plancache.bytes_written"),
        "plancache.load_s": seconds("plancache.load"),
        "plancache.key_s": seconds("plancache.key"),
        "plancache.hits": count("plancache.hits"),
        "sweep.worst_case_s": seconds("sweep.worst_case"),
        "sweep.probes": count("sweep.probes"),
        "sweep.mc_s": seconds("sweep.mc"),
        "generator.task_s": seconds("generator.task"),
        "engine.tasks": total("calls", "engine.task"),
        "engine.overhead_s": seconds("engine.run")
        - seconds("engine.task"),
    }
