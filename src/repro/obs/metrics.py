"""Metrics registry: callback gauges that components register into.

Every instrument in a :class:`MetricsRegistry` is a callback-backed
:class:`Gauge`: reading it samples the live component, so the counters
components already keep (``link.segments_carried``, a pipe's
``bytes_moved``) are exposed without touching their hot paths.  The
registry keys gauges by ``(name, labels)``; :meth:`~MetricsRegistry.snapshot`
resolves them to a plain dict (``bench check`` sums its ``"gauges"`` map)
and :meth:`~MetricsRegistry.rows` to flat rows for the CSV export.

:class:`Histogram` holds a distribution of observations with exact,
linear-interpolated percentiles (:func:`percentile_of`); the op ledger
keeps one per entry.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Sequence, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _key_str(key: LabelKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def percentile_of(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of *values*, ``pct`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi or ordered[lo] == ordered[hi]:
        return ordered[lo]
    frac = rank - lo
    # Clamp to the bracketing samples: the products can round outside
    # [lo, hi] for subnormal values (e.g. 5e-324 * 0.5 underflows to 0),
    # which would break percentile monotonicity.
    val = ordered[lo] * (1 - frac) + ordered[hi] * frac
    return min(max(val, ordered[lo]), ordered[hi])


class Gauge:
    """A callback-backed value: reading it samples the live component."""

    __slots__ = ("name", "labels", "fn")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 fn: Callable[[], float]):
        self.name = name
        self.labels = labels
        self.fn = fn

    @property
    def value(self) -> float:
        return float(self.fn())


class Histogram:
    """Distribution of observations with exact interpolated percentiles."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str):
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    def mean(self) -> float:
        return self.total / self.count if self._values else 0.0

    def percentile(self, pct: float) -> float:
        if not self._values:
            return 0.0
        return percentile_of(self._values, pct)

    def summary(self) -> Dict[str, float]:
        if not self._values:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean(),
            "min": min(self._values),
            "max": max(self._values),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Get-or-create home for callback gauges, keyed by ``(name, labels)``."""

    def __init__(self):
        self._metrics: Dict[LabelKey, Gauge] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def gauge(self, name: str, fn: Callable[[], float],
              **labels: Any) -> Gauge:
        """The gauge under ``(name, labels)``, now reading *fn*."""
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Gauge(name, key[1], fn)
            self._metrics[key] = metric
        else:
            metric.fn = fn
        return metric

    def metrics(self) -> List[Gauge]:
        return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Any]:
        """Plain state: every gauge resolved to its current value."""
        return {"gauges": {_key_str(key): self._metrics[key].value
                           for key in sorted(self._metrics)}}

    def rows(self) -> List[Dict[str, Any]]:
        """One flat row per gauge, convenient for tables and CSV."""
        return [{"metric": _key_str(key), "kind": "gauge",
                 "value": self._metrics[key].value}
                for key in sorted(self._metrics)]
