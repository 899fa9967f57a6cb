"""The ``serve-mix`` workload: an open-loop client for ``repro serve``.

One asyncio process drives the server over ``CONNECTIONS`` keep-alive
connections.  In the open-loop phases request ``i`` is due at
``start + i / rate`` and is written when due whether or not earlier
replies have arrived (HTTP/1.1 pipelining), so a stalled server makes
later requests wait and that wait is counted: latency runs from the
due time, not the send time.  ``repro loadgen`` cannot do this — each
of its connections waits for a reply before sending again, so an
overloaded server simply receives less load and its latencies look
fine.

Probes come from the program's own ``serve.loadgen.build_requests``
(seeded) round-robined over all 22 TPC-H queries under ``split``, and
every reply is checked against ``serve.decide.verify_offline``.  Every
phase has a time limit, so a server that stops answering costs failed
requests, not a hung benchmark.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from harness import (
    SETUP_PROBES,
    STARTUP_PACING,
    Bench,
    BenchError,
    Interval,
    layer_metrics,
    percentile,
    require_tail,
    sha256,
    stop,
    wait_all,
)
from offline import Outcome

SCENARIO = "split"
QUERIES = tuple(f"Q{i}" for i in range(1, 23))
#: Two warm-up processes fill the plan cache in parallel; the heaviest
#: candidate sets (Q8, then Q9 and Q5) are split between them.
WARM_HALVES = (
    "Q8,Q7,Q20,Q1,Q2,Q3,Q4,Q6,Q10,Q11",
    "Q5,Q9,Q21,Q12,Q13,Q14,Q15,Q16,Q17,Q18,Q19,Q22",
)
WARM_CODE = (
    "import sys\n"
    "from repro.optimizer.plancache import PlanCache\n"
    "from repro.serve.store import CandidateStore\n"
    "CandidateStore(cache=PlanCache(sys.argv[1]))"
    f".warm(sys.argv[2].split(','), {SCENARIO!r})\n"
)
QUANT_DIGITS = 9
CONNECTIONS = 2
#: The fixed-rate phase: 3000 samples in 3 consecutive windows of
#: 1000, so each window's p95 has 50 beyond it.
FIXED_RATE = 200.0
FIXED_S = 15.0
WINDOWS = 3
#: The saturated phases: requests are due far faster than the server
#: answers them (about 500-670 req/s over 2 connections on a 2-vCPU
#: host), so each connection always has its next request waiting and
#: the phase measures the highest rate the server answers at.
SATURATED_RATE = 5000.0
SATURATED_REQUESTS = 1500
SATURATED_PHASES = 3
#: How closely a measurement follows the measured CPU's speed: the
#: power of the slowdown (``pace.py``) it is divided by; offline times
#: and set-up use 1.  A reply at 200 req/s mostly waits on the
#: server's 2 ms tick (parse and decide take about 0.85 ms of a 3.4 ms
#: median); over ten runs dividing p50 by slowdown ** 0.3 took its
#: quartile distance over the median from 0.091 to 0.022, and p95's
#: from 0.084 to 0.021.  A saturated server keeps the CPU busy, so the
#: pacing loop gets only short slices that start with cold caches,
#: which inflates the slowdown; over ten runs the power 0.5 took the
#: saturated rate's quartile distance from 0.17 to 0.03-0.06.
LATENCY_PACING = 0.3
RATE_PACING = 0.5
#: A phase that has not finished this long after its last request was
#: due is cut off; its unanswered requests count as failures.
PHASE_GRACE_S = 10.0
POOL = 4000


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Per-request timings and replies of one load phase."""

    due: list[float]
    sent: list[float]
    done: list[float]
    status: list[int]
    replies: list

    @property
    def failed(self) -> int:
        return sum(code != 200 for code in self.status)

    @property
    def span(self) -> tuple[float, float]:
        """From the first due time to the last reply."""
        return min(self.due), max(self.done)

    @property
    def wall_s(self) -> float:
        start, end = self.span
        return end - start

    def from_due(self) -> list[float]:
        return [d - u for d, u in zip(self.done, self.due)]

    def windows(self, count: int) -> list["Phase"]:
        """``count`` consecutive parts of equal length."""
        size = len(self.due) // count
        return [
            Phase(*(column[i * size:(i + 1) * size] for column in (
                self.due, self.sent, self.done, self.status, self.replies
            )))
            for i in range(count)
        ]


class _Conn:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: asyncio.Queue[int] = asyncio.Queue()

    def send(self, body: bytes) -> None:
        self.writer.write(
            b"POST /v1/decide HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )

    async def receive(self) -> tuple[int, object]:
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await self.reader.readexactly(length)
        return status, json.loads(body)


async def _phase(
    port: int, bodies: Sequence[bytes], rate: "float | None", limit: float
) -> Phase:
    """Send ``bodies`` open-loop at ``rate``, or closed-loop if None.

    After ``limit`` seconds the phase is cut off: every request still
    unanswered keeps status 0 (a failure) and is done at the cut-off.
    """
    n = len(bodies)
    phase = Phase([0.0] * n, [0.0] * n, [0.0] * n, [0] * n, [None] * n)
    try:
        await asyncio.wait_for(_drive(phase, port, bodies, rate), limit)
    except asyncio.TimeoutError:
        now = time.perf_counter()
        for index in range(n):
            if phase.status[index] == 0:
                phase.done[index] = now
                phase.due[index] = phase.due[index] or now
    return phase


async def _drive(
    phase: Phase, port: int, bodies: Sequence[bytes], rate: "float | None"
) -> None:
    n = len(bodies)
    conns = []

    def record(index: int, status: int, reply) -> None:
        phase.done[index] = time.perf_counter()
        phase.status[index] = status
        phase.replies[index] = reply

    async def receive_all(rank: int) -> None:
        conn = conns[rank]
        for _ in range(rank, n, CONNECTIONS):
            index = await conn.pending.get()
            try:
                status, reply = await conn.receive()
            except (ConnectionError, asyncio.IncompleteReadError,
                    ValueError):
                status, reply = 0, None
            record(index, status, reply)

    async def closed_loop(rank: int) -> None:
        conn = conns[rank]
        for index in range(rank, n, CONNECTIONS):
            phase.due[index] = phase.sent[index] = time.perf_counter()
            conn.send(bodies[index])
            try:
                status, reply = await conn.receive()
            except (ConnectionError, asyncio.IncompleteReadError,
                    ValueError):
                status, reply = 0, None
            record(index, status, reply)

    async def open_loop() -> None:
        start = time.perf_counter() + 0.01
        for index in range(n):
            due = start + index / rate
            phase.due[index] = due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = conns[index % CONNECTIONS]
            phase.sent[index] = time.perf_counter()
            conn.send(bodies[index])
            conn.pending.put_nowait(index)

    try:
        for _ in range(CONNECTIONS):
            conns.append(_Conn(*await asyncio.open_connection(
                "127.0.0.1", port
            )))
        if rate is None:
            await asyncio.gather(
                *(closed_loop(rank) for rank in range(CONNECTIONS))
            )
        else:
            await asyncio.gather(
                open_loop(),
                *(receive_all(rank) for rank in range(CONNECTIONS)),
            )
    finally:
        for conn in conns:
            conn.writer.close()


def run_phase(
    port: int, bodies: Sequence[bytes], rate: "float | None", limit: float
) -> Phase:
    return asyncio.run(_phase(port, bodies, rate, limit))


def windowed(
    phase: Phase, q: float, pace: Callable[[Phase], float]
) -> float:
    """The median over the phase's ``WINDOWS`` windows of each window's
    ``q``-th percentile latency from due, divided by ``pace(window)``.

    A host stall of a few hundred milliseconds delays every request
    due during it; in one window of 1000 that is enough to move a tail
    percentile, and with three windows the median ignores it.
    """
    parts = phase.windows(WINDOWS)
    require_tail(len(parts[0].due), q)
    return statistics.median(
        percentile(part.from_due(), q) / pace(part) for part in parts
    )


def answer_rate(phase: Phase) -> tuple[float, Interval]:
    """Replies per second over the middle 80% of a phase's replies, and
    that interval: opening the connections and the last replies, when
    fewer than ``CONNECTIONS`` requests are left, are not counted."""
    done = sorted(phase.done)
    first, last = len(done) // 10, len(done) * 9 // 10
    return (last - first) / (done[last] - done[first]), (
        done[first], done[last]
    )


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process, ready once ``/healthz`` answers."""

    def __init__(self, bench: Bench, cache: Path, traced: bool) -> None:
        workdir = bench.fresh_dir("serve")
        self.trace_out = workdir / "trace.json" if traced else None
        argv = bench.repro_argv(
            [
                "serve", "--host", "127.0.0.1", "--port", "0",
                "--workers", "1", "--warm", ",".join(QUERIES),
                "--warm-scenario", SCENARIO, "--cache-dir", str(cache),
            ],
            self.trace_out,
        )
        stderr_path = workdir / "stderr"
        start = time.perf_counter()
        with open(stderr_path, "wb") as stderr:
            self.proc = bench.spawn(
                argv, timed=True, cwd=workdir,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        try:
            self.port = self._wait_port(bench, stderr_path)
            self._wait_healthy(bench)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        #: From spawn to the first 200 on ``/healthz``.
        self.setup = (start, time.perf_counter())

    def _wait_port(self, bench: Bench, stderr_path: Path) -> int:
        while True:
            found = re.search(
                r"serving on http://[^ ]+:(\d+)",
                stderr_path.read_text(errors="replace"),
            )
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited {self.proc.returncode} before binding"
                )
            bench.remaining()
            time.sleep(0.002)

    def _wait_healthy(self, bench: Bench) -> None:
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            bench.remaining()
            time.sleep(0.002)

    def get(self, path: str) -> tuple[int, object]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kilobytes = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(kilobytes.group(1)) / 1024.0

    def stop(self) -> int:
        """SIGTERM (graceful drain), then the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        return stop(self.proc, 10.0)

    def trace(self) -> dict:
        return json.loads(self.trace_out.read_text())


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
class _Checker:
    """Compares every reply with the offline kernel's answer."""

    def __init__(self, requests: list, entries: dict, verify, core) -> None:
        self.requests = requests
        self.entries = entries
        self.verify = verify
        self.core = core
        self.attempted = 0
        self.failed = 0

    def check(self, phase: Phase, offsets: Sequence[int]) -> list[str]:
        """Count failures; returns the server's canonical reply lines."""
        expected = self.verify(
            self.entries, [self.requests[i] for i in offsets]
        )
        lines = []
        for status, reply, want in zip(phase.status, phase.replies,
                                       expected):
            self.attempted += 1
            got = self._line(reply)
            if status != 200 or got != self._line(want):
                self.failed += 1
            lines.append(got)
        return lines

    def _line(self, reply) -> str:
        try:
            return json.dumps(self.core(reply), sort_keys=True)
        except (KeyError, TypeError):
            return ""


def serve_mix(bench: Bench) -> Outcome:
    cache = bench.fresh_dir("cache")
    warmers = [
        bench.run_script(WARM_CODE, str(cache), half)
        for half in WARM_HALVES
    ]
    try:
        # The client builds its probes with the program's own request
        # generator and checks replies with its offline kernel.
        sys.path.insert(0, str(bench.root / "src"))
        from repro.optimizer.plancache import PlanCache
        from repro.serve.decide import verify_offline
        from repro.serve.loadgen import build_requests
        from repro.serve.protocol import response_core
        from repro.serve.store import CandidateStore
    finally:
        wait_all(warmers, bench.remaining())
    store = CandidateStore(cache=PlanCache(cache))
    requests = build_requests(
        store, QUERIES, SCENARIO, POOL, bench.seed, QUANT_DIGITS
    )
    entries = {(q, SCENARIO): store.entry(q, SCENARIO) for q in QUERIES}
    bodies = [
        json.dumps({
            "query": r["query"], "scenario": r["scenario"],
            "cost_vector": list(r["cost"]),
        }).encode()
        for r in requests
    ]
    checker = _Checker(requests, entries, verify_offline, response_core)

    def offsets(start: int, count: int) -> list[int]:
        return [(start + i) % POOL for i in range(count)]

    fixed_at = offsets(0, int(FIXED_RATE * FIXED_S))
    saturated_at = offsets(len(fixed_at), SATURATED_REQUESTS)

    def load(server: Server, at: Sequence[int], rate=None) -> Phase:
        scheduled = len(at) / rate if rate else 0.0
        limit = min(scheduled + PHASE_GRACE_S, bench.remaining())
        return run_phase(server.port, [bodies[i] for i in at], rate, limit)

    def saturate(server: Server) -> tuple[list[Phase], list[str]]:
        phases = []
        lines: list[str] = []
        for _ in range(SATURATED_PHASES):
            phases.append(load(server, saturated_at, SATURATED_RATE))
            lines = checker.check(phases[-1], saturated_at)
        return phases, lines

    def finish(server: Server) -> None:
        if server.stop() != 0:
            checker.failed += 1
        checker.attempted += 1

    setup = []
    server = None
    try:
        for _ in range(1 if bench.trace else SETUP_PROBES):
            if server is not None:
                finish(server)
            server = Server(bench, cache, traced=False)
            setup.append(server.setup)
        load(server, offsets(POOL - 50, 50))  # connection and cache warm-up
        if bench.trace:
            plain_saturated, plain_lines = saturate(server)
            finish(server)
            server = Server(bench, cache, traced=True)
        fixed = load(server, fixed_at, FIXED_RATE)
        fixed_lines = checker.check(fixed, fixed_at)
        saturated, saturated_lines = saturate(server)
        if bench.trace:
            _, server_metrics = server.get("/metrics")
        else:
            peak_rss = server.peak_rss_mb()
        finish(server)
        server_trace = server.trace() if bench.trace else None
        server = None
    finally:
        if server is not None:
            server.proc.kill()
            server.proc.wait()

    digests = {
        f"decisions:{bench.seed}": sha256(
            "\n".join(fixed_lines + saturated_lines)
        )
    }
    if bench.trace:
        if plain_lines != saturated_lines:
            checker.failed += 1
        metrics = layer_metrics([server_trace], 1)
        parse_us = statistics.median(
            server_trace["samples"]["serve.parse"]) * 1e6
        decide_us = statistics.median(
            server_trace["samples"]["serve.decide"]) * 1e6
        counters = server_metrics["counters"]
        batches = server_metrics["histograms"]["serve.batch_size"]
        empty_ticks = counters.get("serve.empty_ticks", 0)
        ticks = empty_ticks + counters["serve.batches"]
        send_to_reply = [d - s for d, s in zip(fixed.done, fixed.sent)]
        metrics.update({
            "serve.parse_us": parse_us,
            "serve.decide_us": decide_us,
            "serve.wait_ms": percentile(send_to_reply, 50) * 1e3
            - (parse_us + decide_us) / 1e3,
            "serve.batch_size_mean": batches["sum"] / batches["count"],
            "serve.empty_tick_frac": empty_ticks / ticks,
            "serve.dgemm_per_request":
                counters["serve.dgemm_calls"] / counters["serve.requests"],
            "serve.lateness_p99_ms": percentile(
                [s - u for s, u in zip(fixed.sent, fixed.due)], 99
            ) * 1e3,
            # Traced over untraced time to answer the same requests.
            "trace.overhead_frac":
                statistics.median(answer_rate(p)[0] for p in plain_saturated)
                / statistics.median(answer_rate(p)[0] for p in saturated)
                - 1.0,
        })
        return Outcome(checker.attempted, checker.failed, metrics, digests)

    def latency_pace(phase: Phase) -> float:
        return bench.slowdown(*phase.span) ** LATENCY_PACING

    def unpaced(phase: Phase) -> float:
        return 1.0

    rates = [answer_rate(p) for p in saturated]
    max_rate = statistics.median(
        rate * bench.slowdown(*span) ** RATE_PACING for rate, span in rates
    )
    metrics = {
        "setup_s": statistics.median(
            bench.paced(*s, STARTUP_PACING) for s in setup
        ),
        "p50_ms": windowed(fixed, 50, latency_pace) * 1e3,
        "p95_ms": windowed(fixed, 95, latency_pace) * 1e3,
        "peak_rss_mb": peak_rss,
        "max_rate_qps": max_rate,
    }
    raw = {
        "setup_s": statistics.median(end - start for start, end in setup),
        "p50_ms": windowed(fixed, 50, unpaced) * 1e3,
        "p95_ms": windowed(fixed, 95, unpaced) * 1e3,
        "max_rate_qps": statistics.median(rate for rate, _ in rates),
    }
    # The time to answer one saturated phase at that rate.
    standins = {"wall_s": SATURATED_REQUESTS / max_rate}
    return Outcome(checker.attempted, checker.failed, metrics, digests,
                   standins, raw)
