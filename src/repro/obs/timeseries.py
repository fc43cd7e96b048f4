"""Continuous telemetry: sim-time-cadenced snapshots of the metrics registry.

End-of-run summaries answer "how did it go"; a divergence hunt needs "how
was it going" — utilization ramps, credit stalls, convoy formation over
time.  A :class:`TelemetrySession` rides the simulation heap: every
``cadence`` sim-seconds it reads every instrument in a
:class:`~repro.obs.metrics.MetricsRegistry` (callback gauges sample live
component state) and appends one row to a bounded ring buffer.

The sampler is self-rescheduling and *self-stopping*: a tick only re-arms
while the environment still has work queued (``env.peek()`` finite), so an
``env.run()`` that drains the heap terminates normally — the session never
keeps a dead simulation alive.  Drivers that alternate ``run()`` phases call
:meth:`TelemetrySession.poke` to re-arm before each phase.

Snapshots are plain picklable dicts so pooled sweep workers ship their ring
back to the parent, which :meth:`~TelemetrySession.merge`\\ s them into one
time-ordered series (rows carry a ``source`` tag per worker); ``bench
dashboard`` charts the series.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               _key_str)

#: default ring capacity — at the default cadence this covers the longest
#: traced artifact with room to spare; older samples drop first.
DEFAULT_CAPACITY = 4096


class TelemetrySession:
    """Ring-buffered time-series of registry snapshots on a sim-time cadence.

    Args:
        registry: the instruments to sample (callback gauges read live).
        cadence: sim-seconds between samples (> 0).
        capacity: ring size; the oldest sample drops when full
            (:attr:`dropped` counts how many).
        source: tag stamped on every sample this session takes itself —
            pooled workers use their point id so merged series stay
            attributable.
    """

    def __init__(self, registry: MetricsRegistry, cadence: float,
                 capacity: int = DEFAULT_CAPACITY, source: str = "main"):
        if cadence <= 0:
            raise ValueError(f"telemetry cadence must be > 0, got {cadence}")
        if capacity <= 0:
            raise ValueError(f"telemetry capacity must be > 0: {capacity}")
        self.registry = registry
        self.cadence = cadence
        self.capacity = capacity
        self.source = source
        self.samples: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.samples_taken = 0
        self.dropped = 0
        self._envs: List[Any] = []
        self._armed: Dict[int, bool] = {}

    # -- sampling ----------------------------------------------------------

    def attach(self, env) -> None:
        """Start sampling *env* (first tick immediately, then every
        ``cadence`` sim-seconds while the heap has work)."""
        if id(env) not in self._armed:
            self._envs.append(env)
        self._armed[id(env)] = True
        env.schedule_callback(0.0, self._tick, env)

    def poke(self) -> None:
        """Re-arm the sampler on attached environments whose previous tick
        found an empty heap (between ``run()`` phases)."""
        for env in self._envs:
            if not self._armed.get(id(env)) and env.peek() != float("inf"):
                self._armed[id(env)] = True
                env.schedule_callback(0.0, self._tick, env)

    def _tick(self, env) -> None:
        self.sample(env.now)
        if env.peek() != float("inf"):
            env.schedule_callback(self.cadence, self._tick, env)
        else:
            # Heap drained: this was the final sample.  poke() re-arms.
            self._armed[id(env)] = False

    def sample(self, t: float) -> None:
        """Take one sample of every instrument at sim time *t*."""
        values: Dict[str, float] = {}
        for metric in self.registry.metrics():
            if isinstance(metric, Histogram):
                values[_key_str((metric.name + "_count", metric.labels))] = (
                    float(metric.count))
                values[_key_str((metric.name + "_sum", metric.labels))] = (
                    metric.total)
            elif isinstance(metric, (Counter, Gauge)):
                values[_key_str((metric.name, metric.labels))] = metric.value
        if len(self.samples) == self.capacity:
            self.dropped += 1
        self.samples.append({"t": t, "source": self.source, "values": values})
        self.samples_taken += 1

    # -- cross-process merging ---------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain picklable state (ships worker -> parent in pooled sweeps)."""
        return {
            "source": self.source,
            "cadence": self.cadence,
            "samples": list(self.samples),
            "dropped": self.dropped,
            "taken": self.samples_taken,
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a worker session's :meth:`snapshot` into this one, keeping
        the combined series time-ordered (stable across sources)."""
        incoming = snapshot.get("samples", [])
        if incoming:
            combined = sorted(
                list(self.samples) + list(incoming),
                key=lambda s: (s["t"], s.get("source", "")))
            overflow = len(combined) - self.capacity
            if overflow > 0:
                self.dropped += overflow
                combined = combined[overflow:]
            self.samples = deque(combined, maxlen=self.capacity)
        self.dropped += snapshot.get("dropped", 0)
        self.samples_taken += snapshot.get("taken", len(incoming))

    def summary(self) -> Dict[str, Any]:
        return {
            "samples": len(self.samples),
            "taken": self.samples_taken,
            "dropped": self.dropped,
            "cadence": self.cadence,
        }
