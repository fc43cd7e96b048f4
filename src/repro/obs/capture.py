"""Traced replays of small evaluation scenarios (the ``bench trace`` CLI).

The sweep artifacts (fig07 …) run thousands of collectives — too much to
look at in a trace viewer.  Each ``trace_*`` function here instead replays
one *representative* scenario of an artifact with a span tracer attached and
returns the capture: open the exported Chrome JSON in Perfetto to see the
collective's uC / DMP / POE / wire phases laid out per node, or read the
:func:`~repro.obs.export.attribute_op` reports the CLI prints.

A scenario accepts no keyword it does not name: an unknown ``--arg`` key
is a ``TypeError`` that the CLI reports with exit 2.
Scenarios run at the process-wide fidelity (``REPRO_FIDELITY``); fig07's
16 MiB leg and fig12 are large enough to engage the flow fast-forward path
when it is on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro import units
from repro.obs.export import attribute_op
from repro.obs.runtime import Observability, attach
from repro.sim import all_of


@dataclass
class TraceCapture:
    """One traced scenario: the bundle plus what ran."""

    artifact: str
    description: str
    obs: Observability
    op_ids: List[int] = field(default_factory=list)
    _reports: Optional[List[Dict[str, Any]]] = field(
        default=None, init=False, repr=False)

    @property
    def tracer(self):
        return self.obs.tracer

    def breakdowns(self) -> List[Dict[str, Any]]:
        """One :func:`~repro.obs.export.attribute_op` report per op: what
        ``bench trace --json`` and ``bench critpath --json`` write.  The
        replay is over, so the sweep runs once and every reader shares
        its reports."""
        if self._reports is None:
            self._reports = [attribute_op(self.obs.tracer, op)
                             for op in self.op_ids]
        return self._reports


def _traced_cluster(n_nodes: int, protocol: str = "rdma",
                    platform: str = "coyote"):
    from repro.cluster.builder import build_fpga_cluster
    from repro.driver.api import attach_drivers

    cluster = build_fpga_cluster(n_nodes, protocol=protocol,
                                 platform=platform)
    obs = attach(cluster)
    return cluster, obs, attach_drivers(cluster)


def _check_sizes(arg: str, value: Any, *legs: int) -> None:
    """Raise ValueError naming *arg* unless *value*, and every leg size
    derived from it, is a positive multiple of 4 B (float32 data)."""
    for nbytes in (value, *legs):
        if not isinstance(nbytes, int) or nbytes <= 0 or nbytes % 4:
            leg = "" if nbytes is value else f" (a leg of {nbytes} B is not)"
            raise ValueError(f"{arg} must give positive multiples of 4 B, "
                             f"got {arg}={value!r}{leg}")


def _drain(cluster, requests) -> None:
    cluster.env.run(until=all_of(cluster.env,
                                 [r.event for r in requests]))


def trace_fig08() -> TraceCapture:
    """Invocation latency: host nop calls — pure uC dispatch, no wire."""
    cluster, obs, drivers = _traced_cluster(2)
    for driver in drivers:
        _drain(cluster, [driver.nop()])
    return TraceCapture(
        "fig08", "host nop invocations on 2 nodes (uC dispatch only)",
        obs, obs.tracer.op_ids())


def trace_fig07() -> TraceCapture:
    """Send/recv throughput: a small (eager), a large (rendezvous) and a
    bulk (flow-eligible) transfer, back to back — the eager/rendezvous
    protocol switch and, under ``REPRO_FIDELITY=flow``, the burst
    fast-forward path are all visible in one trace."""
    cluster, obs, drivers = _traced_cluster(2)
    for tag, nbytes in ((7, 16 * units.KIB), (8, units.MIB),
                        (9, 16 * units.MIB)):
        data = np.ones(nbytes // 4, dtype=np.float32)
        _drain(cluster, [
            drivers[0].send(drivers[0].wrap(data), nbytes, dst=1, tag=tag),
            drivers[1].recv(drivers[1].alloc(nbytes), nbytes, src=0,
                            tag=tag),
        ])
    return TraceCapture(
        "fig07",
        "eager (16 KiB) + rendezvous (1 MiB) + bulk (16 MiB) send/recv "
        "on 2 nodes",
        obs, obs.tracer.op_ids())


def trace_allreduce(nbytes: int = 64 * units.KIB,
                    n_nodes: int = 4) -> TraceCapture:
    """One cluster-wide allreduce — the richest per-phase picture."""
    _check_sizes("nbytes", nbytes)
    cluster, obs, drivers = _traced_cluster(n_nodes)
    data = np.ones(nbytes // 4, dtype=np.float32)
    _drain(cluster, [
        d.allreduce(d.wrap(data), d.alloc(nbytes), nbytes) for d in drivers
    ])
    return TraceCapture(
        "allreduce", f"{n_nodes}-node allreduce of {nbytes} B",
        obs, obs.tracer.op_ids())


def trace_fig12(nbytes: int = 32 * units.MIB,
                n_nodes: int = 4) -> TraceCapture:
    """Bulk reduce to a root: ring chunks at the flow admission floor.

    A 32 MiB reduce across 4 nodes moves 8 MiB ring chunks — exactly the
    flow fast-forward floor — so under ``REPRO_FIDELITY=flow`` every bulk
    hop runs the burst admission/re-admission pipeline; under packet
    fidelity it is the heaviest traced scenario."""
    _check_sizes("nbytes", nbytes)
    cluster, obs, drivers = _traced_cluster(n_nodes)
    data = np.ones(nbytes // 4, dtype=np.float32)
    _drain(cluster, [
        d.reduce(d.wrap(data), d.alloc(nbytes), nbytes, 0) for d in drivers
    ])
    return TraceCapture(
        "fig12", f"{n_nodes}-node reduce of {nbytes} B to root 0",
        obs, obs.tracer.op_ids())


def throttle_links(cluster, pattern: str, factor: float) -> List[str]:
    """Divide the bandwidth of every fabric link whose name contains
    *pattern* by *factor* (fault injection for straggler studies).

    Must run after the cluster is built but before traffic starts.  A link
    is its own serializer, so rescaling its one ``rate`` slows packet
    serialisation and flow bursts alike.  Returns the throttled link names;
    raises ValueError unless *factor* is finite and positive, or if the
    pattern matches nothing.
    """
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(
            f"slow_factor must be finite and > 0, got {factor!r}")
    hits: List[str] = []
    for link in cluster.topology.iter_links():
        if pattern in link.name:
            link.rate /= factor
            hits.append(link.name)
    if not hits:
        names = sorted(l.name for l in cluster.topology.iter_links())
        raise ValueError(
            f"slow_link pattern {pattern!r} matched no link; fabric has: "
            f"{', '.join(names[:12])}{' ...' if len(names) > 12 else ''}")
    return hits


def trace_figX_scale(n_nodes: int = 16, size: int = units.MIB,
                     slow_link: Optional[str] = None,
                     slow_factor: float = 8.0) -> TraceCapture:
    """One scale-study leg under a tracer: two bcasts on a three-tier
    fabric.

    Unlike the 2–4 node star scenarios above, this builds the same fat
    tree as ``figX_scale``, so per-node and per-link attribution has real
    switches and uplinks to blame.
    Traffic is binomial-tree bcasts at two sizes: every non-root endpoint
    receives exactly one message per op, so per-endpoint load is uniform
    and an outlier node or link is an anomaly, not an artifact of the
    traffic pattern (root-centric collectives would drown it in root-link
    congestion, and packet-fidelity ring collectives are too slow at this
    scale).  Pass ``slow_link=<name-substring>`` (e.g. ``fpga137.down``)
    with ``slow_factor`` to throttle matching links before traffic starts
    — the injected straggler that ``bench critpath --per-node`` must find.
    """
    from repro.bench.harness import scale_topology_factory
    from repro.cluster.builder import build_fpga_cluster
    from repro.driver.api import attach_drivers

    n_nodes, size = int(n_nodes), int(size)
    slow_factor = float(slow_factor)
    _check_sizes("size", size, max(size // 4, 256))
    factory = scale_topology_factory("fattree", n_nodes)
    cluster = build_fpga_cluster(n_nodes, topology_factory=factory)
    obs = attach(cluster, Observability(
        trace_capacity=max(200_000, n_nodes * 4_000)))
    throttled: List[str] = []
    if slow_link:
        throttled = throttle_links(cluster, str(slow_link), slow_factor)
    drivers = attach_drivers(cluster)
    for nbytes in (size, max(size // 4, 256)):
        chunk = np.ones(nbytes // 4, dtype=np.float32)
        _drain(cluster, [
            d.bcast(d.wrap(chunk) if i == 0 else d.alloc(nbytes),
                    nbytes, 0)
            for i, d in enumerate(drivers)
        ])
    desc = (f"{n_nodes}-node fattree scale leg: bcasts of {size} and "
            f"{max(size // 4, 256)} B")
    if throttled:
        desc += (f" [slowed x{slow_factor:g}: "
                 f"{', '.join(throttled[:4])}"
                 f"{' ...' if len(throttled) > 4 else ''}]")
    return TraceCapture("figX_scale", desc, obs, obs.tracer.op_ids())


def trace_artifact(name: str, **kwargs: Any) -> TraceCapture:
    """Replay scenario *name* (see :data:`repro.bench.artifacts.SCENARIOS`)
    under a tracer."""
    from repro.bench.artifacts import SCENARIOS

    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"no traced scenario for {name!r}; available: "
            f"{', '.join(SCENARIOS)}") from None
    return fn(**kwargs)
