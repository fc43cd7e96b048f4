"""Cluster topologies.

The evaluation cluster (§5) connects every CPU NIC and every FPGA Ethernet
port to Cisco Nexus switches — a star from the traffic-pattern point of
view.  :class:`StarTopology` builds that: N endpoints, one switch, duplex
100 Gb/s links.

Beyond the paper's 10-node testbed, :class:`FatTreeTopology` builds the
three-tier k-ary fat tree (k³/4 hosts) of the ``figX_scale`` study.  It
grows its switching tiers lazily as addresses are added, routes the
aggregation tiers through O(switches) block tables instead of O(endpoints)
per-address entries, and balances equal-cost paths with a deterministic
(src, dst) flow hash, so results are reproducible across processes and job
counts.  Both builders share :class:`FabricTopology` (endpoint bookkeeping,
duplex host wiring, link enumeration).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.errors import NetworkError
from repro.sim import Environment
from repro.network.endpoint import Endpoint
from repro.network.fidelity import default_fidelity
from repro.network.link import Link
from repro.network.switch import Switch
from repro import units


class FabricTopology:
    """Shared machinery of every fabric builder.

    Subclasses implement :meth:`_edge_switch_for` — grow whatever switching
    tiers the address implies and return the switch the endpoint plugs
    into — plus :meth:`_switches` for link enumeration.
    """

    def __init__(
        self,
        env: Environment,
        link_rate: float = units.gbps(100),
        link_latency: float = units.ns(500),
        name: str = "fabric",
    ):
        self.env = env
        self.link_rate = link_rate
        self.link_latency = link_latency
        self.name = name
        self.fidelity = default_fidelity()
        self._endpoints: Dict[int, Endpoint] = {}

    @property
    def endpoints(self) -> List[Endpoint]:
        return [self._endpoints[a] for a in sorted(self._endpoints)]

    def endpoint(self, address: int) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError:
            raise NetworkError(f"no endpoint with address {address}") from None

    def _link(self, name: str) -> Link:
        return Link(self.env, self.link_rate, self.link_latency, name=name)

    def _duplex(self, a: Switch, b: Switch, up_name: str,
                down_name: str) -> (Link, Link):
        """Wire a duplex switch-to-switch connection; returns (a->b, b->a)."""
        up = self._link(up_name)
        down = self._link(down_name)
        b.connect_ingress(up)
        a.connect_ingress(down)
        return up, down

    def _edge_switch_for(self, address: int) -> Switch:
        """Grow the fabric to cover *address*; return its edge switch."""
        raise NotImplementedError

    def _switches(self) -> Iterable[Switch]:
        """Every switch in the fabric (for link enumeration)."""
        raise NotImplementedError

    def add_endpoint(self, address: int, name: str = "") -> Endpoint:
        """Create an endpoint and wire duplex links to its edge switch."""
        if address in self._endpoints:
            raise NetworkError(f"address {address} already in topology")
        edge = self._edge_switch_for(address)
        ep = Endpoint(self.env, address, name=name)
        uplink = self._link(f"{ep.name}.up")
        downlink = self._link(f"{ep.name}.down")
        edge.connect_ingress(uplink)
        downlink.connect(ep.deliver)
        # Bursts only flow when a protocol engine on a flow-fidelity
        # endpoint creates them; the endpoint takes one at its tail.
        downlink.connect_burst(ep.deliver_burst, at_tail=True)
        ep.fidelity = self.fidelity
        ep.attach_uplink(uplink)
        edge.attach(address, downlink)
        self._endpoints[address] = ep
        return ep

    def iter_links(self) -> List[Link]:
        """Every link in the fabric, once each: endpoint uplinks plus every
        switch egress, block and default route."""
        links: List[Link] = []
        seen = set()
        candidates: List[Link] = [ep.uplink for ep in self.endpoints]
        for switch in self._switches():
            candidates.extend(switch.iter_egress())
        for link in candidates:
            if link is not None and id(link) not in seen:
                seen.add(id(link))
                links.append(link)
        return links

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} "
                f"n={len(self._endpoints)}>")


class StarTopology(FabricTopology):
    """All endpoints hang off one switch with duplex links.

    Args:
        env: simulation environment.
        link_rate: bytes/second per direction (default 100 Gb/s).
        link_latency: one-way cable+PHY latency.
    """

    def __init__(
        self,
        env: Environment,
        link_rate: float = units.gbps(100),
        link_latency: float = units.ns(500),
        name: str = "fabric",
    ):
        super().__init__(env, link_rate, link_latency, name)
        self.switch = Switch(env, name=f"{name}.sw")

    def _edge_switch_for(self, address: int) -> Switch:
        return self.switch

    def _switches(self) -> Iterable[Switch]:
        return (self.switch,)

    def one_way_base_latency(self) -> float:
        """Zero-byte one-way fabric latency: two links + switch forwarding."""
        return 2 * self.link_latency + self.switch.forwarding_latency

    def __repr__(self) -> str:
        return f"<StarTopology {self.name!r} n={len(self._endpoints)}>"


class FatTreeTopology(FabricTopology):
    """Three-tier k-ary fat-tree (Al-Fares et al.): k pods of k/2 edge and
    k/2 aggregation switches, (k/2)² core switches, k³/4 host ports.

    Address layout: host ``a`` lives in pod ``a // (k²/4)`` on edge switch
    ``(a % (k²/4)) // (k/2)`` of that pod.  Pods (and the core tier) are
    grown lazily as addresses arrive, so a 1024-host fabric (k=16) only
    builds the pods its endpoints actually occupy.

    Routing is the standard up/down scheme with deterministic ECMP:

    - edge: exact host entries down, flow-hashed default over its k/2
      aggregation uplinks;
    - aggregation: one block entry per edge switch (``dst // (k/2)``) down,
      flow-hashed default over its k/2 core uplinks;
    - core: one block entry per pod (``dst // (k²/4)``) down.

    Block tables keep route construction O(switch ports) per switch.
    """

    def __init__(
        self,
        env: Environment,
        k: int = 4,
        link_rate: float = units.gbps(100),
        link_latency: float = units.ns(500),
        name: str = "fattree",
    ):
        if k < 2 or k % 2:
            raise NetworkError(f"fat-tree arity must be even and >= 2, got {k}")
        super().__init__(env, link_rate, link_latency, name)
        self.k = k
        self.radix = k // 2                  # hosts per edge, links per tier
        self.hosts_per_pod = self.radix * self.radix
        self.capacity = k * self.hosts_per_pod
        self._pods: List[dict] = []          # {"edges": [...], "aggs": [...]}
        self._cores: List[Switch] = []

    def pod_of(self, address: int) -> int:
        return address // self.hosts_per_pod

    def edge_of(self, address: int) -> int:
        """Global edge-switch index of *address*."""
        return address // self.radix

    def _grow_cores(self) -> None:
        if self._cores:
            return
        hpp = self.hosts_per_pod
        for c in range(self.radix * self.radix):
            core = Switch(self.env, name=f"{self.name}.core{c}")
            core.set_resolver(lambda dst, hpp=hpp: dst // hpp)
            self._cores.append(core)

    def _grow_pods(self, pod_idx: int) -> None:
        if pod_idx >= self.k:
            raise NetworkError(
                f"fat-tree k={self.k} holds {self.capacity} hosts; "
                f"address implies pod {pod_idx}"
            )
        self._grow_cores()
        radix = self.radix
        while len(self._pods) <= pod_idx:
            p = len(self._pods)
            edges = [Switch(self.env, name=f"{self.name}.p{p}.edge{e}")
                     for e in range(radix)]
            aggs = [Switch(self.env, name=f"{self.name}.p{p}.agg{a}")
                    for a in range(radix)]
            for a, agg in enumerate(aggs):
                agg.set_resolver(lambda dst, r=radix: dst // r)
                # Down tier: one block route per edge switch in the pod.
                for e, edge in enumerate(edges):
                    up, down = self._duplex(
                        edge, agg, f"{edge.name}.up{a}",
                        f"{agg.name}.down{e}")
                    edge.add_default_route(up)
                    agg.attach_block(p * radix + e, down)
                # Up tier: agg a owns cores [a*radix, (a+1)*radix).
                for j in range(radix):
                    core = self._cores[a * radix + j]
                    up, down = self._duplex(
                        agg, core, f"{agg.name}.up{j}",
                        f"{core.name}.down{p}")
                    agg.add_default_route(up)
                    core.attach_block(p, down)
            self._pods.append({"edges": edges, "aggs": aggs})

    def _edge_switch_for(self, address: int) -> Switch:
        pod_idx = self.pod_of(address)
        self._grow_pods(pod_idx)
        edge_idx = (address % self.hosts_per_pod) // self.radix
        return self._pods[pod_idx]["edges"][edge_idx]

    def _switches(self) -> Iterable[Switch]:
        for pod in self._pods:
            yield from pod["edges"]
            yield from pod["aggs"]
        yield from self._cores

    def one_way_base_latency(self, tier: str = "core") -> float:
        """Zero-byte one-way latency for a path peaking at *tier*:
        ``"edge"`` (same edge switch), ``"agg"`` (same pod) or ``"core"``
        (cross-pod)."""
        hops, switches = {"edge": (2, 1), "agg": (4, 3), "core": (6, 5)}[tier]
        forwarding = units.ns(600) if not self._cores else \
            self._cores[0].forwarding_latency
        return hops * self.link_latency + switches * forwarding

    def __repr__(self) -> str:
        return (
            f"<FatTreeTopology {self.name!r} k={self.k} "
            f"pods={len(self._pods)} n={len(self._endpoints)}>"
        )
