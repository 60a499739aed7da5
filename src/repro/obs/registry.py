"""Process-wide metrics registry: counters, gauges, streaming histograms.

The registry is the single sink every subsystem reports into.  Three metric
kinds cover the ROADMAP's measurement needs:

* :class:`Counter` — monotonically increasing totals (elements ingested,
  cache hits, journal records).
* :class:`Gauge` — last-write-wins scalar readings (elements/sec of the most
  recent ingest run, queue depth snapshots).
* :class:`Histogram` — log-bucketed streaming distribution.  Observations are
  folded into geometrically spaced buckets (20 per decade, ~12% relative
  width) so p50/p90/p99/max come out of a cumulative bucket walk without ever
  storing samples.  ``count``/``sum``/``min``/``max`` are tracked exactly, so
  derived means are not subject to bucketing error.

Every metric carries its own ``threading.Lock`` so concurrent threads
can update disjoint metrics without contending on a registry-wide lock, and
updates to a shared metric are never lost.  The registry itself only locks on
first registration of a name.

A module-level default registry (:func:`get_registry`) makes instrumentation
call sites one-liners.  The ``enabled`` flag gates all convenience helpers:
with the registry disabled, :meth:`MetricsRegistry.inc` and friends return
immediately and :func:`repro.obs.tracing.trace` hands back a shared no-op
span, so instrumented and uninstrumented code paths stay bit-identical.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

#: Number of histogram buckets per decade.  20/decade gives ~12.2% relative
#: bucket width — tight enough that a reported p99 is within one bucket edge
#: of the true sample quantile.
BUCKETS_PER_DECADE = 20

#: Sentinel bucket key for non-positive observations (a zero-length timing on
#: a coarse clock, an empty batch).  Sorts below every real bucket.
_ZERO_BUCKET = -(10**9)


class Counter:
    """Monotonic integer counter with a per-metric lock."""

    __slots__ = ("name", "unit", "_lock", "_value")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> Dict[str, object]:
        return {"value": self._value, "unit": self.unit}


class Gauge:
    """Last-write-wins scalar reading."""

    __slots__ = ("name", "unit", "_lock", "_value")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> Dict[str, object]:
        return {"value": self._value, "unit": self.unit}


class Histogram:
    """Log-bucketed streaming histogram with exact count/sum/min/max.

    Buckets are geometrically spaced: observation ``v > 0`` lands in bucket
    ``floor(log10(v) * BUCKETS_PER_DECADE)``; non-positive observations share
    a dedicated zero bucket.  Quantiles walk the sorted buckets cumulatively
    and return the geometric midpoint of the bucket holding the target rank,
    clamped into the exact ``[min, max]`` envelope.
    """

    __slots__ = ("name", "unit", "_lock", "_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._lock = threading.Lock()
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    @staticmethod
    def _bucket_key(value: float) -> int:
        if value <= 0.0:
            return _ZERO_BUCKET
        return math.floor(math.log10(value) * BUCKETS_PER_DECADE)

    @staticmethod
    def _bucket_value(key: int) -> float:
        if key == _ZERO_BUCKET:
            return 0.0
        return 10.0 ** ((key + 0.5) / BUCKETS_PER_DECADE)

    def observe(self, value: float) -> None:
        value = float(value)
        key = self._bucket_key(value)
        with self._lock:
            self._buckets[key] = self._buckets.get(key, 0) + 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a whole array of observations in one locked pass.

        Vectorized bucketing keeps bulk observations (per-band bucket-size
        distributions, block latencies) cheap even for large arrays.
        """
        array = np.asarray(values, dtype=np.float64).ravel()
        if array.size == 0:
            return
        keys = np.full(array.shape, _ZERO_BUCKET, dtype=np.int64)
        positive = array > 0.0
        if positive.any():
            keys[positive] = np.floor(
                np.log10(array[positive]) * BUCKETS_PER_DECADE
            ).astype(np.int64)
        unique, counts = np.unique(keys, return_counts=True)
        total = float(array.sum())
        low = float(array.min())
        high = float(array.max())
        with self._lock:
            for key, count in zip(unique.tolist(), counts.tolist()):
                self._buckets[key] = self._buckets.get(key, 0) + count
            self._count += int(array.size)
            self._sum += total
            if self._min is None or low < self._min:
                self._min = low
            if self._max is None or high > self._max:
                self._max = high

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    def quantile(self, q: float) -> Optional[float]:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return None
            target = q * self._count
            cumulative = 0
            for key in sorted(self._buckets):
                cumulative += self._buckets[key]
                if cumulative >= target:
                    value = self._bucket_value(key)
                    return min(max(value, self._min), self._max)
            return self._max

    def reset(self) -> None:
        with self._lock:
            self._buckets.clear()
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            count = self._count
            total = self._sum
            low = self._min
            high = self._max
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else None,
            "min": low,
            "max": high,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "unit": self.unit,
        }


class MetricsRegistry:
    """Thread-safe, process-wide collection of named metrics.

    Metric accessors (:meth:`counter`, :meth:`gauge`, :meth:`histogram`)
    register on first use and are lock-free on the hot re-lookup path.  The
    convenience mutators (:meth:`inc`, :meth:`set_gauge`, :meth:`observe`,
    :meth:`observe_many`) check :attr:`enabled` first so disabled
    instrumentation costs one attribute read and a branch.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.enabled = bool(enabled)

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric in place (registrations and references survive)."""
        with self._lock:
            metrics = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for metric in metrics:
            metric.reset()

    # -- registration / lookup ----------------------------------------

    def counter(self, name: str, unit: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name, unit))
        return metric

    def gauge(self, name: str, unit: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name, unit))
        return metric

    def histogram(self, name: str, unit: str = "seconds") -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(name, Histogram(name, unit))
        return metric

    # -- enabled-gated convenience mutators ---------------------------

    def inc(self, name: str, amount: int = 1, unit: str = "") -> None:
        if self.enabled:
            self.counter(name, unit).inc(amount)

    def set_gauge(self, name: str, value: float, unit: str = "") -> None:
        if self.enabled:
            self.gauge(name, unit).set(value)

    def observe(self, name: str, value: float, unit: str = "seconds") -> None:
        if self.enabled:
            self.histogram(name, unit).observe(value)

    def observe_many(self, name: str, values: Iterable[float], unit: str = "") -> None:
        if self.enabled:
            self.histogram(name, unit).observe_many(values)

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "enabled": self.enabled,
            "counters": {name: metric.snapshot() for name, metric in sorted(counters.items())},
            "gauges": {name: metric.snapshot() for name, metric in sorted(gauges.items())},
            "histograms": {
                name: metric.snapshot() for name, metric in sorted(histograms.items())
            },
        }


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """Return the process-wide default registry."""
    return _GLOBAL


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests use this for isolation)."""
    global _GLOBAL
    _GLOBAL = registry
    return registry
