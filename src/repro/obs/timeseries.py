"""Continuous telemetry: sim-time-cadenced snapshots of the metrics registry.

End-of-run summaries answer "how did it go"; a divergence hunt needs "how
was it going" — utilization ramps, credit stalls, convoy formation over
time.  A :class:`TelemetrySession` rides the simulation heap: every
``cadence`` sim-seconds it reads every gauge in a
:class:`~repro.obs.metrics.MetricsRegistry` (each samples live component
state) and appends one row to a bounded ring buffer.

The sampler is self-rescheduling and *self-stopping*: a tick only re-arms
while the environment still has work queued (``env.peek()`` finite), so an
``env.run()`` that drains the heap terminates normally — the session never
keeps a dead simulation alive.  Drivers that alternate ``run()`` phases call
:meth:`TelemetrySession.poke` to re-arm before each phase.

``bench dashboard`` charts the series: one ``{"t", "values"}`` row per
sample, ``values`` keyed like the registry's snapshot.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List

from repro.obs.metrics import MetricsRegistry

#: default ring capacity — at the default cadence this covers the longest
#: traced artifact with room to spare; older samples drop first.
DEFAULT_CAPACITY = 4096


class TelemetrySession:
    """Ring-buffered time-series of registry snapshots on a sim-time cadence.

    Args:
        registry: the gauges to sample.
        cadence: sim-seconds between samples (> 0).
        capacity: ring size; the oldest sample drops when full
            (:attr:`dropped` counts how many).
    """

    def __init__(self, registry: MetricsRegistry, cadence: float,
                 capacity: int = DEFAULT_CAPACITY):
        if cadence <= 0:
            raise ValueError(f"telemetry cadence must be > 0, got {cadence}")
        if capacity <= 0:
            raise ValueError(f"telemetry capacity must be > 0: {capacity}")
        self.registry = registry
        self.cadence = cadence
        self.capacity = capacity
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
        """Take one sample of every gauge at sim time *t*."""
        if len(self.samples) == self.capacity:
            self.dropped += 1
        self.samples.append(
            {"t": t, "values": self.registry.snapshot()["gauges"]})
        self.samples_taken += 1

    def summary(self) -> Dict[str, Any]:
        return {
            "samples": len(self.samples),
            "taken": self.samples_taken,
            "dropped": self.dropped,
            "cadence": self.cadence,
        }
