"""Metrics registry: typed instruments components register into.

Three instrument kinds cover everything the simulator counts today:

- :class:`Counter` — monotonically increasing totals (messages sent,
  instructions retired).  Passing the sim time to :meth:`Counter.inc`
  records a mark, enabling :meth:`Counter.rate` over any sim-time window.
- :class:`Gauge` — point-in-time values.  A gauge may be *callback-backed*
  (``fn=...``), in which case reading it samples the live component —
  existing ad-hoc counters (``link.segments_carried``,
  ``pipe.utilization()``) register as callback gauges without changing
  their hot paths at all.
- :class:`Histogram` — distribution of observations with linear-interpolated
  percentiles (:func:`percentile_of`) and sim-time-windowed observation
  rates.

A :class:`MetricsRegistry` keys instruments by ``(name, labels)`` and
supports :meth:`~MetricsRegistry.snapshot` (a plain picklable dict) and
:meth:`~MetricsRegistry.merge` so per-worker registries from a pooled
sweep fold into one: counters add, gauges take the max, histograms
concatenate.

:data:`NULL_REGISTRY` is a shared no-op registry: code that wants to hold
an unconditional metrics handle uses it as the disabled default and every
instrument method degenerates to ``pass``.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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


class Counter:
    """A monotonically increasing total with optional sim-time marks."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_mark_times", "_mark_values")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._mark_times: List[float] = []
        self._mark_values: List[float] = []

    @property
    def value(self) -> float:
        return self._value

    def inc(self, n: float = 1.0, t: Optional[float] = None) -> None:
        """Add *n*; pass the sim time *t* to enable windowed rates."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {n}")
        self._value += n
        if t is not None:
            self._mark_times.append(t)
            self._mark_values.append(self._value)

    def _value_at(self, t: float) -> float:
        idx = bisect.bisect_right(self._mark_times, t)
        return self._mark_values[idx - 1] if idx else 0.0

    def rate(self, since: float, now: Optional[float] = None) -> float:
        """Increments per sim-second over ``[since, now]`` (needs marks)."""
        if not self._mark_times:
            return 0.0
        if now is None:
            now = self._mark_times[-1]
        elapsed = now - since
        if elapsed <= 0:
            return 0.0
        return (self._value_at(now) - self._value_at(since)) / elapsed


class Gauge:
    """A point-in-time value; callback-backed gauges sample live state."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "fn")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.labels = labels
        self.fn = fn
        self._value = 0.0

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise ValueError(
                f"gauge {self.name!r} is callback-backed; cannot set()")
        self._value = float(value)


class Histogram:
    """Distribution of observations with exact interpolated percentiles."""

    kind = "histogram"
    __slots__ = ("name", "labels", "_values", "_times")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._values: List[float] = []
        self._times: List[float] = []

    def observe(self, value: float, t: Optional[float] = None) -> None:
        self._values.append(float(value))
        if t is not None:
            self._times.append(t)

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

    def rate(self, since: float, now: Optional[float] = None) -> float:
        """Observations per sim-second over ``[since, now]`` (needs times)."""
        if not self._times:
            return 0.0
        if now is None:
            now = self._times[-1]
        elapsed = now - since
        if elapsed <= 0:
            return 0.0
        lo = bisect.bisect_left(self._times, since)
        hi = bisect.bisect_right(self._times, now)
        return (hi - lo) / elapsed

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
    """Get-or-create home for instruments, keyed by ``(name, labels)``."""

    def __init__(self):
        self._metrics: Dict[LabelKey, Any] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {_key_str(key)!r} already registered as "
                f"{metric.kind}, not {cls.kind}")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              **labels: Any) -> Gauge:
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Gauge(name, key[1], fn=fn)
            self._metrics[key] = metric
        elif not isinstance(metric, Gauge):
            raise TypeError(
                f"metric {_key_str(key)!r} already registered as "
                f"{metric.kind}, not gauge")
        elif fn is not None:
            metric.fn = fn
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def metrics(self) -> List[Any]:
        return [self._metrics[k] for k in sorted(self._metrics)]

    # -- cross-process merging ---------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain picklable state: resolves callback gauges to values."""
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            ks = _key_str(key)
            if isinstance(metric, Counter):
                out["counters"][ks] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][ks] = metric.value
            else:
                out["histograms"][ks] = list(metric._values)
        return out

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a pool worker) into this
        registry: counters add, gauges keep the max, histograms extend.

        Merged instruments live under their snapshot key string, so worker
        metrics never collide with live callback gauges of the same name.
        """
        for ks, value in snapshot.get("counters", {}).items():
            self._get(Counter, ks, {}).inc(value)
        for ks, value in snapshot.get("gauges", {}).items():
            gauge = self._get(Gauge, ks, {})
            if gauge.fn is None:
                gauge.set(max(gauge.value, value))
        for ks, values in snapshot.get("histograms", {}).items():
            hist = self._get(Histogram, ks, {})
            hist._values.extend(values)

    # -- reporting ---------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """One flat row per instrument, convenient for tables and CSV."""
        rows = []
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            row: Dict[str, Any] = {
                "metric": _key_str(key), "kind": metric.kind,
            }
            if isinstance(metric, Histogram):
                row.update(metric.summary())
            else:
                row["value"] = metric.value
            rows.append(row)
        return rows


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    kind = "null"
    name = "null"
    labels: Tuple = ()
    value = 0.0
    count = 0
    total = 0.0

    def inc(self, n: float = 1.0, t: Optional[float] = None) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, t: Optional[float] = None) -> None:
        pass

    def rate(self, since: float, now: Optional[float] = None) -> float:
        return 0.0

    def percentile(self, pct: float) -> float:
        return 0.0

    def mean(self) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "sum": 0.0}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled default: every instrument is the shared no-op."""

    def __len__(self) -> int:
        return 0

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, fn: Optional[Callable] = None,
              **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def metrics(self) -> List[Any]:
        return []

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        pass

    def rows(self) -> List[Dict[str, Any]]:
        return []


NULL_REGISTRY = NullRegistry()
