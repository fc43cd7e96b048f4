"""Wiring: attach an observability bundle to a built cluster.

An :class:`Observability` pairs one :class:`MetricsRegistry` with one
:class:`SpanTracer`.  :func:`attach` wires a bundle into every engine, POE,
link and endpoint of an :class:`~repro.cluster.builder.FpgaCluster`; the
module-level :func:`enable` / :func:`disable` pair makes a bundle *global*
so that every cluster built afterwards auto-attaches it (the hook in
``build_fpga_cluster`` calls :func:`auto_attach`, a no-op while disabled).

The global is process-local: a :class:`~repro.bench.runner.SweepRunner`
worker that forked after :func:`enable` carries the enabled state into its
own process, collects into its own registry, and ships a picklable
snapshot back with each point result for the parent to
:meth:`~repro.obs.metrics.MetricsRegistry.merge`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import TelemetrySession


class Observability:
    """One metrics registry + one span tracer, attached as a unit.

    ``telemetry_cadence`` (sim-seconds) additionally starts a
    :class:`~repro.obs.timeseries.TelemetrySession` that snapshots the
    registry continuously; ``None`` (the default) keeps telemetry off so
    plain span tracing adds no heap events.
    """

    def __init__(self, trace_capacity: int = 100_000,
                 telemetry_cadence: Optional[float] = None,
                 telemetry_capacity: int = 4096):
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(capacity=trace_capacity)
        self.telemetry: Optional[TelemetrySession] = None
        if telemetry_cadence is not None:
            self.telemetry = TelemetrySession(
                self.registry, telemetry_cadence,
                capacity=telemetry_capacity)

    def attach(self, cluster) -> "Observability":
        return attach(cluster, self)

    def summary(self) -> dict:
        """Counts for run reports: metrics, spans, open and dropped spans."""
        out = {
            "metrics": len(self.registry),
            "spans": len(self.tracer.completed_spans),
            "unclosed_spans": self.tracer.unclosed_count,
            "spans_dropped": self.tracer.spans_dropped,
        }
        if self.telemetry is not None:
            out["telemetry_samples"] = self.telemetry.samples_taken
            out["telemetry_dropped"] = self.telemetry.dropped
        return out


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
    iter_links = getattr(cluster.topology, "iter_links", None)
    if iter_links is not None:
        # Links record queueing stalls as wait:link_busy spans (critical-path
        # attribution).
        for link in iter_links():
            link.bind_tracer(obs.tracer)
    from repro.sim.kernel import Environment

    registry.gauge("kernel_events_processed",
                   fn=lambda: float(Environment.total_events_processed))
    registry.gauge("kernel_sim_time_s",
                   fn=lambda: Environment.total_sim_time)
    if obs.telemetry is not None:
        obs.telemetry.attach(cluster.env)
    return obs


def _count_of(obj, attr: str):
    return lambda: float(getattr(obj, attr))


# ---------------------------------------------------------------------------
# Global (process-local) enablement
# ---------------------------------------------------------------------------

_GLOBAL: Optional[Observability] = None


def enable(trace_capacity: int = 100_000,
           telemetry_cadence: Optional[float] = None) -> Observability:
    """Turn on auto-attach for every cluster built after this call."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = Observability(trace_capacity=trace_capacity,
                                telemetry_cadence=telemetry_cadence)
    return _GLOBAL


def disable() -> None:
    global _GLOBAL
    _GLOBAL = None


def get_global() -> Optional[Observability]:
    return _GLOBAL


def is_enabled() -> bool:
    return _GLOBAL is not None


def auto_attach(cluster) -> None:
    """Hook called by ``build_fpga_cluster``; free while disabled."""
    if _GLOBAL is not None:
        attach(cluster, _GLOBAL)


@contextmanager
def scoped(telemetry_cadence: Optional[float] = None,
           telemetry_source: str = "main") -> Iterator[Observability]:
    """Run a block against a fresh global bundle, then restore the old one.

    Used by :func:`repro.bench.runner.execute_point` so each sweep point
    collects into its own registry — the snapshot it ships back to the
    parent covers exactly that point, whether the point ran inline or in a
    forked pool worker.  The fresh bundle's tracer has the capacity of the
    bundle being shadowed, so ``enable(trace_capacity=...)`` sizes every
    point's tracer.  A telemetry cadence (explicit, or inherited from the
    shadowed bundle) gives the point its own
    :class:`~repro.obs.timeseries.TelemetrySession`, tagged with
    *telemetry_source* so merged series stay attributable per point.
    """
    global _GLOBAL
    prev = _GLOBAL
    trace_capacity = 100_000 if prev is None else prev.tracer.capacity
    if telemetry_cadence is None and prev is not None \
            and prev.telemetry is not None:
        telemetry_cadence = prev.telemetry.cadence
    _GLOBAL = Observability(trace_capacity=trace_capacity,
                            telemetry_cadence=telemetry_cadence)
    if _GLOBAL.telemetry is not None:
        _GLOBAL.telemetry.source = telemetry_source
    try:
        yield _GLOBAL
    finally:
        _GLOBAL = prev
