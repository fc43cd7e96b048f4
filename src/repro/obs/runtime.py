"""Wiring: attach an observability bundle to a built cluster.

An :class:`Observability` pairs one :class:`MetricsRegistry` with one
:class:`SpanTracer`.  :func:`attach` wires a bundle into every engine, POE,
link and endpoint of an :class:`~repro.cluster.builder.FpgaCluster`; it is
the only way to observe a run, and a cluster nobody attaches to carries no
tracer and registers no gauge.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.sim.kernel import Environment


class Observability:
    """One metrics registry + one span tracer, attached as a unit; neither
    adds a heap event."""

    def __init__(self, trace_capacity: int = 100_000):
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(capacity=trace_capacity)

    def attach(self, cluster) -> "Observability":
        return attach(cluster, self)

    def summary(self) -> dict:
        """Counts for run reports: metrics, spans, open and dropped spans."""
        return {
            "metrics": len(self.registry),
            "spans": len(self.tracer.completed_spans),
            "unclosed_spans": self.tracer.unclosed_count,
            "spans_dropped": self.tracer.spans_dropped,
        }


def attach(cluster, obs: Optional[Observability] = None) -> Observability:
    """Wire *obs* (or a fresh bundle) into every layer of *cluster*.

    Engines (and through them their POEs) and links get the span tracer;
    engines, POEs, links and endpoints register callback gauges into the
    registry; the sim kernel's global event counters are exposed too.
    """
    if obs is None:
        obs = Observability()
    registry = obs.registry
    for node in cluster.nodes:
        node.engine.attach_tracer(obs.tracer)
        node.engine.register_metrics(registry)
    for ep in cluster.topology.endpoints:
        registry.gauge("endpoint_segments_sent",
                       fn=_count_of(ep, "segments_sent"), endpoint=ep.name)
        registry.gauge("endpoint_segments_received",
                       fn=_count_of(ep, "segments_received"),
                       endpoint=ep.name)
        if ep.uplink is not None:
            ep.uplink.register_metrics(registry, endpoint=ep.name)
    # Links record queueing stalls as wait:link_busy spans (critical-path
    # attribution).
    for link in cluster.topology.iter_links():
        link.bind_tracer(obs.tracer)
    registry.gauge("kernel_events_processed",
                   fn=lambda: float(Environment.total_events_processed))
    registry.gauge("kernel_sim_time_s",
                   fn=lambda: Environment.total_sim_time)
    return obs


def _count_of(obj, attr: str):
    return lambda: float(getattr(obj, attr))
