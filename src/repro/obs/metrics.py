"""A small counters/gauges/histograms registry.

The engines' existing statistics objects (``SolverStats``, ``PassStats``,
``FraigStats``) stay the source of truth for their own runs; the registry
is the *composition* layer — one namespace absorbing numbers from every
engine so a whole CEC or fraig run reads as a single machine-readable
profile (``MetricsRegistry.to_dict``), and so long-running callers (the
future server) can watch counters move across many runs.

Metric names are dotted (``solver.conflicts``, ``opt.gates_removed``);
:meth:`MetricsRegistry.absorb` bulk-imports a plain number dict (the
``to_dict()`` shape every stats object already has) under such a prefix.
"""

from __future__ import annotations

import math
import threading
from typing import Mapping, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (trail depth, class count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Summary of an observed distribution, with exact percentiles.

    Samples are retained (our producers — per-CEC-pair solve times,
    per-fraig-proof conflict counts — are bounded per run, so exact
    nearest-rank percentiles beat bucketing); ``to_dict`` summarizes as
    count/sum/min/max/mean/p50/p95.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self._samples: list[Number] = []

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        self._samples.append(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Observe every sample of ``other`` (a histogram a worker
        process filled and shipped back)."""
        for value in other._samples:
            self.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> Number:
        """Nearest-rank percentile of everything observed (0 if empty)."""
        if not self._samples:
            return 0
        ordered = sorted(self._samples)
        if p <= 0:
            return ordered[0]
        rank = math.ceil(p / 100.0 * len(ordered))
        return ordered[min(len(ordered), max(1, rank)) - 1]

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Asking for an existing name with a different metric kind is an error —
    it would silently fork the data.  All mutations are lock-protected so
    threads can share one registry.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, "Counter | Gauge | Histogram"] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif type(metric) is not cls:
                raise TypeError(
                    f"metric '{name}' already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def absorb(self, prefix: str, values: Mapping[str, Number]) -> None:
        """Add a stats dict's numeric entries as ``prefix.key`` counters.

        This is how the engines' ``SolverStats.to_dict()`` /
        ``PassStats.to_dict()`` numbers flow into the unified profile;
        non-numeric and derived-float entries become gauges (they are
        snapshots, not totals).
        """
        for key, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            name = f"{prefix}.{key}"
            if isinstance(value, float):
                self.gauge(name).set(value)
            else:
                self.counter(name).inc(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold in a registry filled elsewhere (a worker process ships its
        whole registry back): counters add, gauges take ``other``'s
        value, histograms observe ``other``'s samples."""
        for name, metric in other._metrics.items():
            mine = self._get(name, type(metric))
            if isinstance(metric, Counter):
                mine.inc(metric.value)
            elif isinstance(metric, Gauge):
                mine.set(metric.value)
            else:
                mine.merge(metric)

    def __getstate__(self) -> dict:
        # The lock does not cross a process boundary; metrics do.
        with self._lock:
            return {"metrics": dict(self._metrics)}

    def __setstate__(self, state: dict) -> None:
        self._metrics = state["metrics"]
        self._lock = threading.Lock()

    def to_dict(self) -> dict:
        """All metrics, sorted by name, each as its ``to_dict()`` record."""
        with self._lock:
            return {
                name: metric.to_dict()
                for name, metric in sorted(self._metrics.items())
            }

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics
