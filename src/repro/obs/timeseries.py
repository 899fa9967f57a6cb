"""Metric time series: periodic counter snapshots over one run.

The metrics registry (:mod:`repro.obs.metrics`) reports one *final*
total per counter — enough to compare two runs, useless for seeing how
a run unfolded (did the plan cache warm up early? did task retries
come in a burst or steadily?).  ``--timeseries`` fixes that: a
background daemon thread samples every counter at a fixed interval,
turning ``plancache.*`` / ``engine.*`` totals into curves over the
run.

The recorded points surface in two places:

* the Chrome-trace export (``--trace-out``) gains one *counter track*
  per metric (Trace Event ``ph: "C"`` events), rendered by Perfetto as
  stacked area charts under the span timeline;
* the run manifest gains a ``timeseries`` summary (first/last/peak per
  counter plus sample bookkeeping), rendered by ``repro report`` as a
  counter-track table.

Sampling runs only in the parent process.  ``--jobs N`` workers ship
their metric deltas back with each finished task (see
:mod:`repro.experiments.parallel`), so the parent registry — and
therefore the sampled curves — advances as tasks complete, which is
exactly the cross-run drift signal wanted; per-sample worker clocks
are not.

Off (the default) nothing exists: no thread, no hook in instrumented
code, zero allocation.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

from .metrics import METRICS

__all__ = [
    "DEFAULT_INTERVAL_SECONDS",
    "TIMESERIES",
    "TimeseriesRecorder",
    "counter_track_events",
]

#: Default sampling interval (seconds) — fine enough to see cache
#: warm-up inside a multi-second sweep, coarse enough to stay free.
DEFAULT_INTERVAL_SECONDS = 0.25


class TimeseriesRecorder:
    """Background sampler of the process-global counter values.

    ``start(interval)`` spawns the daemon thread; ``stop()`` takes one
    final sample (so even sub-interval runs record their end state)
    and joins the thread.  Points are ``(t_seconds, {name: value})``
    tuples with ``t`` relative to ``start()``.
    """

    def __init__(self) -> None:
        self.interval = DEFAULT_INTERVAL_SECONDS
        self.enabled = False
        self._thread: "threading.Thread | None" = None
        self._stop: "threading.Event | None" = None
        self._lock = threading.Lock()
        self._points: list[tuple[float, dict[str, Any]]] = []
        self._t0 = 0.0

    @property
    def thread(self) -> "threading.Thread | None":
        """The live sampler thread, or None while stopped."""
        return self._thread

    def start(self, interval: "float | None" = None) -> None:
        """Begin sampling (restarts cleanly if already running)."""
        if interval is not None:
            if interval <= 0:
                raise ValueError(
                    f"timeseries interval must be positive, got "
                    f"{interval}"
                )
            self.interval = float(interval)
        if self._thread is not None and self._thread.is_alive():
            self.enabled = True
            return
        self._t0 = time.perf_counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run,
            name="repro-timeseries-sampler",
            daemon=True,
        )
        self.enabled = True
        self._thread.start()

    def stop(self) -> None:
        """Take a final sample and stop the sampler thread."""
        thread, stop = self._thread, self._stop
        self._thread = None
        self._stop = None
        self.enabled = False
        if stop is not None:
            stop.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout=2.0)
        if self._t0:
            self.sample_now()

    def reset(self) -> None:
        """Drop all recorded points."""
        with self._lock:
            self._points.clear()
        self._t0 = time.perf_counter() if self.enabled else 0.0

    def _run(self) -> None:
        stop = self._stop
        while stop is not None and not stop.wait(self.interval):
            self.sample_now()

    def sample_now(self) -> None:
        """Record one ``(t, counters)`` point right now."""
        values = {
            name: counter.value
            for name, counter in METRICS._counters.items()
        }
        point = (time.perf_counter() - self._t0, values)
        with self._lock:
            self._points.append(point)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def points(self) -> list[tuple[float, dict[str, Any]]]:
        with self._lock:
            return list(self._points)

    def counter_tracks(self) -> dict[str, list[tuple[float, Any]]]:
        """Per-counter ``[(t, value), ...]`` curves, name-sorted.

        A counter absent from an early sample (created later in the
        run) reads as 0 there, so every track spans the full run.
        """
        points = self.points()
        names = sorted({
            name for _, values in points for name in values
        })
        return {
            name: [
                (t, values.get(name, 0)) for t, values in points
            ]
            for name in names
        }

    def summary(self) -> "dict[str, Any] | None":
        """The manifest-ready ``timeseries`` block (None when empty)."""
        points = self.points()
        if not points:
            return None
        tracks = self.counter_tracks()
        return {
            "interval_seconds": self.interval,
            "samples": len(points),
            "duration_seconds": points[-1][0],
            "counters": {
                name: {
                    "first": track[0][1],
                    "last": track[-1][1],
                    "peak": max(value for _, value in track),
                }
                for name, track in tracks.items()
            },
        }


#: The process-global recorder ``--timeseries`` drives.
TIMESERIES = TimeseriesRecorder()

#: Microseconds per second (trace-event timestamps are in us).
_US = 1_000_000.0


def counter_track_events(
    tracks: "Mapping[str, list[tuple[float, Any]]] | None",
    pid: int = 1,
) -> list[dict[str, Any]]:
    """Counter curves as Trace Event ``ph="C"`` events.

    One event per (counter, sample): Perfetto and chrome://tracing
    render each named counter as its own track of stacked values under
    the span timeline.
    """
    events: list[dict[str, Any]] = []
    for name, track in (tracks or {}).items():
        for t, value in track:
            events.append({
                "name": name,
                "cat": "metric",
                "ph": "C",
                "ts": t * _US,
                "pid": pid,
                "tid": 0,
                "args": {"value": value},
            })
    return events
