"""Host-speed reference: a low-priority loop on the CPU the program uses.

Usage: ``python pace.py CPU`` (started by :class:`Pacer`).

On a shared host the speed of a virtual CPU drifts by 1.3-2x over
seconds to minutes, and the two virtual CPUs of one machine drift
independently.  So the benchmark runs every timed process on one CPU
and, on that same CPU at nice 19, this loop of fixed rounds of work.
The scheduler gives the loop about 1.5% of the CPU while the program
runs, in slices interleaved with the program's, so the CPU time a
round takes rises and falls with the speed the program sees.  A time
measured over an interval is divided by the *slowdown* over that
interval, the mean CPU time of a round there over ``NOMINAL_ROUND_S``,
and is reported in paced seconds: seconds on a host where a round
takes ``NOMINAL_ROUND_S``.

The round mixes the kinds of work the program does (integer
arithmetic, dict and frozenset bookkeeping like the join-order DP,
small NumPy products like the plan-cost kernels, and scattered memory
reads), and the mean rather than the median is taken, so that cache
refills after a context switch count as they do for the program.
Measured over 14 runs each of ``repro figure shared`` and
``repro census --generated 250`` on a 2-vCPU host, the log of command
time moved with the log of the mean round time with slope 0.87-0.94
and correlation 0.98-0.99; the quartile distance over the median fell
from 0.20 to 0.034 and from 0.12 to 0.026.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: CPU time of one round on the host the benchmark was sized on, when
#: it ran beside a program at normal speed.
NOMINAL_ROUND_S = 280e-6
#: Rounds are summed into buckets of this many seconds of the monotonic
#: clock, so the record stays small when the loop has the CPU to itself.
BUCKET_S = 0.01
HERE = Path(__file__).resolve().parent

_RELATIONS = "abcde"
_ROWS = {name: 10.0 ** (i + 1) for i, name in enumerate(_RELATIONS)}
_rng = np.random.default_rng(0)
_USAGE = _rng.random((40, 12))
_COSTS = _rng.random((8, 12))
_SCATTER = _rng.permutation(1 << 19)


def _integers() -> int:
    total = 0
    for i in range(1000):
        total += i * i % 7
    return total


def _join_orders() -> dict:
    best = {frozenset(r): (_ROWS[r], r) for r in _RELATIONS}
    for size in range(2, len(_RELATIONS) + 1):
        for combo in itertools.combinations(_RELATIONS, size):
            joined = frozenset(combo)
            options = []
            for last in combo:
                cost, plan = best[joined - {last}]
                options.append(
                    (cost + _ROWS[last] * 0.1 + cost * 0.01, (plan, last))
                )
            best[joined] = min(options)
    return best


def _plan_costs() -> None:
    for _ in range(4):
        totals = _COSTS @ _USAGE.T
        totals.argmin(axis=1)
        np.partition(totals, 1, axis=1)


def _scattered_reads() -> int:
    return int(_SCATTER[_SCATTER[:4096]].sum())


def one_round() -> None:
    _integers()
    _join_orders()
    _plan_costs()
    _scattered_reads()


def main(argv: "list[str]") -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    os.nice(19)
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    buckets: dict[int, list] = {}
    clock, now = time.thread_time, time.perf_counter
    print("ready", flush=True)
    while not stopping:
        started = clock()
        one_round()
        used = clock() - started
        bucket = buckets.setdefault(int(now() / BUCKET_S), [0, 0.0])
        bucket[0] += 1
        bucket[1] += used
    json.dump(
        [[key * BUCKET_S, rounds, used]
         for key, (rounds, used) in sorted(buckets.items())],
        sys.stdout,
    )
    return 0


class Pacer:
    """The reference loop on ``cpu``, and the slowdown it measured.

    Times are ``time.perf_counter`` readings, the system-wide monotonic
    clock, so they compare across processes.
    """

    def __init__(self, cpu: int, cwd: Path, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "pace.py"), str(cpu)],
            cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.buckets: "list[list[float]] | None" = None
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("the pacing loop did not start")

    def close(self) -> None:
        """Stop the loop and keep what it measured."""
        if self.buckets is not None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.buckets = json.loads(out) if out else []

    def slowdown(self, start: float, end: float) -> float:
        """The slowdown over ``[start, end]`` (see :func:`slowdown`).

        The first call stops the loop: every interval it is asked about
        has ended by then.
        """
        self.close()
        return slowdown(self.buckets, start, end)


def slowdown(buckets: "list[list[float]]", start: float, end: float
             ) -> float:
    """Mean round time of the buckets overlapping ``[start, end]``,
    over ``NOMINAL_ROUND_S``."""
    rounds = used = 0.0
    for at, count, seconds in buckets:
        if start - BUCKET_S < at <= end:
            rounds += count
            used += seconds
    if not rounds:
        raise RuntimeError(
            f"no pacing rounds between {start:.3f} and {end:.3f}"
        )
    return used / rounds / NOMINAL_ROUND_S


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
