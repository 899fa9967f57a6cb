"""A process-mergeable metrics registry: counters, gauges, histograms.

Instrumented code gets or creates metrics by name on the process-global
``METRICS`` registry::

    METRICS.counter("plancache.hits").inc()
    METRICS.histogram("expected.gtc").observe_many(gtcs)

Everything is designed around *merging*: a worker process resets its
registry, runs one task, snapshots, and ships the snapshot (plain JSON
dicts) back to the ``--jobs N`` parent, which :meth:`~MetricsRegistry.merge`\\ s
it — counters and histograms add, gauges overwrite in arrival order.
Because the serial path writes to the parent registry directly and the
parallel path merges per-task deltas, metric totals are identical for
any ``--jobs`` value (pinned in ``tests/experiments/test_parallel_obs.py``).

Histograms keep exact ``count/sum/min/max`` plus per-decade bucket
counts (bucket = ``floor(log10(value))``), which is mergeable without
coordination and is the right resolution for the quantities tracked
here — regret ratios and probe counts spanning many orders of
magnitude.  Non-finite values (``inf``, ``-inf``, ``nan``) have no
decade and would poison the sum and the bounds, so they are only
counted, apart from everything else.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "METRICS"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: "int | float" = 0

    def inc(self, amount: "int | float" = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins scalar (None until first set)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: "float | None" = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Exact count/sum/min/max plus per-decade bucket counts.

    ``count``, ``sum``, ``min``, ``max``, ``decades`` and
    ``nonpositive`` describe the finite values; ``nonfinite`` counts
    the rest.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "decades",
                 "nonpositive", "nonfinite")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: "float | None" = None
        self.maximum: "float | None" = None
        #: decade exponent -> count of values in [10^e, 10^(e+1)).
        self.decades: dict[int, int] = {}
        #: values <= 0 have no decade; counted separately.
        self.nonpositive = 0
        #: inf, -inf and nan: counted here and nowhere else.
        self.nonfinite = 0

    def observe(self, value: float) -> None:
        """One value; leaves the state ``observe_many((value,))`` would."""
        value = float(value)
        if not math.isfinite(value):
            self.nonfinite += 1
            return
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(
            self.minimum, value
        )
        self.maximum = value if self.maximum is None else max(
            self.maximum, value
        )
        if value > 0.0:
            # numpy's log10, as in observe_many, so a value next to a
            # power of ten lands in the same decade on both paths.
            key = math.floor(np.log10(value))
            self.decades[key] = self.decades.get(key, 0) + 1
        else:
            self.nonpositive += 1

    def observe_many(self, values: Iterable[float]) -> None:
        array = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=float,
        ).ravel()
        finite = np.isfinite(array)
        if not finite.all():
            self.nonfinite += int(array.size - finite.sum())
            array = array[finite]
        if not array.size:
            return
        self.count += int(array.size)
        self.total += float(array.sum())
        low = float(array.min())
        high = float(array.max())
        self.minimum = low if self.minimum is None else min(
            self.minimum, low
        )
        self.maximum = high if self.maximum is None else max(
            self.maximum, high
        )
        positive = array[array > 0.0]
        self.nonpositive += int(array.size - positive.size)
        if positive.size:
            exponents = np.floor(np.log10(positive)).astype(int)
            for exponent, bucket_count in zip(
                *np.unique(exponents, return_counts=True)
            ):
                key = int(exponent)
                self.decades[key] = (
                    self.decades.get(key, 0) + int(bucket_count)
                )

    @property
    def mean(self) -> "float | None":
        return self.total / self.count if self.count else None

    def state(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "decades": {
                str(exponent): count
                for exponent, count in sorted(self.decades.items())
            },
            "nonpositive": self.nonpositive,
            "nonfinite": self.nonfinite,
        }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        self.count += int(state.get("count", 0))
        self.total += float(state.get("sum", 0.0))
        for bound, pick in (("min", min), ("max", max)):
            other = state.get(bound)
            if other is None:
                continue
            mine = self.minimum if bound == "min" else self.maximum
            merged = float(other) if mine is None else pick(
                mine, float(other)
            )
            if bound == "min":
                self.minimum = merged
            else:
                self.maximum = merged
        for key, count in (state.get("decades") or {}).items():
            exponent = int(key)
            self.decades[exponent] = (
                self.decades.get(exponent, 0) + int(count)
            )
        self.nonpositive += int(state.get("nonpositive", 0))
        # States written before non-finite values were kept apart lack
        # the key.
        self.nonfinite += int(state.get("nonfinite", 0))


class MetricsRegistry:
    """Named counters/gauges/histograms with snapshot/merge/reset.

    Creation is guarded by a lock so concurrent threads get the same
    object for the same name; increments on the returned objects are
    plain attribute updates (cheap, GIL-atomic).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get(self, table: dict, name: str, factory):
        found = table.get(name)
        if found is None:
            with self._lock:
                found = table.setdefault(name, factory())
        return found

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(self._histograms, name, Histogram)

    def counter_value(self, name: str) -> "int | float":
        """Current value of a counter (0 if it was never touched)."""
        found = self._counters.get(name)
        return found.value if found is not None else 0

    def snapshot(self) -> dict[str, Any]:
        """The whole registry as plain JSON-ready dicts."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.state()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a worker snapshot in: add counts, overwrite gauges."""
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, state in (snapshot.get("histograms") or {}).items():
            self.histogram(name).merge_state(state)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-global registry all instrumentation writes to.
METRICS = MetricsRegistry()
