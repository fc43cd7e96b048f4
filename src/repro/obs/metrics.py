"""Metrics registry: callback gauges that components register into.

Every instrument in a :class:`MetricsRegistry` is a callback-backed
:class:`Gauge`: reading it samples the live component, so the counters
components already keep (``link.segments_carried``, a pipe's
``bytes_moved``) are exposed without touching their hot paths.  The
registry keys gauges by ``(name, labels)``; :meth:`~MetricsRegistry.snapshot`
resolves them to a plain dict (``bench check`` sums its ``"gauges"`` map)
and :meth:`~MetricsRegistry.rows` to flat rows for the CSV export.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _key_str(key: LabelKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


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
