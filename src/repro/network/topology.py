"""Cluster topologies.

The evaluation cluster (§5) connects every CPU NIC and every FPGA Ethernet
port to Cisco Nexus switches — a star from the traffic-pattern point of
view.  :class:`StarTopology` builds that: N endpoints, one switch, duplex
100 Gb/s links.

Beyond the paper's 10-node testbed, the fabric builders scale to the
regimes ACCL-class engines would meet in a real data center:

- :class:`LeafSpineTopology` — two-tier Clos, ECMP over the spines;
- :class:`FatTreeTopology` — three-tier k-ary fat-tree (k³/4 hosts);
- :class:`DragonflyTopology` — group-based low-diameter fabric with
  direct global links.

All of them share :class:`FabricTopology` (endpoint bookkeeping, duplex
host wiring, link enumeration), grow their switching tiers lazily as
addresses are added, route the aggregation tiers through O(switches) block
tables instead of O(endpoints) per-address entries, and balance equal-cost
paths with the same deterministic (src, dst) flow hash, so results are
reproducible across processes and job counts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

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

    def _link(self, name: str, rate: Optional[float] = None) -> Link:
        return Link(self.env, rate if rate is not None else self.link_rate,
                    self.link_latency, name=name)

    def _duplex(self, a: Switch, b: Switch, up_name: str, down_name: str,
                rate: Optional[float] = None) -> (Link, Link):
        """Wire a duplex switch-to-switch connection; returns (a->b, b->a)."""
        up = self._link(up_name, rate)
        down = self._link(down_name, rate)
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


class LeafSpineTopology(FabricTopology):
    """Two-tier Clos fabric: endpoints on leaf switches, leaves meshed
    through spine switches.

    Intra-leaf traffic crosses one switch; cross-leaf traffic crosses
    leaf -> spine -> leaf, ECMP-balanced over the spines on a flow hash.
    This is the data-center-scale integration story of §1: collectives run
    over the same packet-switched infrastructure CPUs use, not dedicated
    FPGA-to-FPGA links.

    Spines route per *leaf* (one block-table entry per downstream leaf via
    ``address // ports_per_leaf``), so route construction is O(leaves ×
    spines), not O(endpoints × spines).
    """

    def __init__(
        self,
        env: Environment,
        ports_per_leaf: int = 4,
        n_spines: int = 2,
        link_rate: float = units.gbps(100),
        link_latency: float = units.ns(500),
        name: str = "clos",
        oversubscription: float = 1.0,
    ):
        if ports_per_leaf < 1 or n_spines < 1:
            raise NetworkError("need at least one leaf port and one spine")
        if oversubscription <= 0:
            raise NetworkError("oversubscription factor must be positive")
        super().__init__(env, link_rate, link_latency, name)
        self.ports_per_leaf = ports_per_leaf
        self.n_spines = n_spines
        self.oversubscription = oversubscription
        self._uplink_rate = link_rate / oversubscription
        self._leaves: List[Switch] = []
        self._spines: List[Switch] = [
            Switch(env, name=f"{name}.spine{i}") for i in range(n_spines)
        ]
        ppl = ports_per_leaf
        for spine in self._spines:
            spine.set_resolver(lambda dst, ppl=ppl: dst // ppl)

    def leaf_of(self, address: int) -> int:
        return address // self.ports_per_leaf

    def _grow_leaves(self, leaf_idx: int) -> None:
        while len(self._leaves) <= leaf_idx:
            idx = len(self._leaves)
            leaf = Switch(self.env, name=f"{self.name}.leaf{idx}")
            # Full bipartite leaf<->spine wiring; one block route per leaf
            # on the spine replaces the per-port entries.
            for s, spine in enumerate(self._spines):
                up, down = self._duplex(
                    leaf, spine, f"{leaf.name}.up{s}",
                    f"{spine.name}.down{idx}", rate=self._uplink_rate)
                leaf.add_default_route(up)
                spine.attach_block(idx, down)
            self._leaves.append(leaf)

    def _edge_switch_for(self, address: int) -> Switch:
        leaf_idx = self.leaf_of(address)
        self._grow_leaves(leaf_idx)
        return self._leaves[leaf_idx]

    def _switches(self) -> Iterable[Switch]:
        return self._leaves + self._spines

    def one_way_base_latency(self, cross_leaf: bool = True) -> float:
        hops = 4 if cross_leaf else 2
        switches = 3 if cross_leaf else 1
        forwarding = self._spines[0].forwarding_latency
        return hops * self.link_latency + switches * forwarding

    def __repr__(self) -> str:
        return (
            f"<LeafSpineTopology {self.name!r} leaves={len(self._leaves)} "
            f"spines={self.n_spines} n={len(self._endpoints)}>"
        )


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
    ``oversubscription`` divides the rate of every switch-to-switch link
    (> 1.0 starves the upper tiers the way real pods do).
    """

    def __init__(
        self,
        env: Environment,
        k: int = 4,
        link_rate: float = units.gbps(100),
        link_latency: float = units.ns(500),
        name: str = "fattree",
        oversubscription: float = 1.0,
    ):
        if k < 2 or k % 2:
            raise NetworkError(f"fat-tree arity must be even and >= 2, got {k}")
        if oversubscription <= 0:
            raise NetworkError("oversubscription factor must be positive")
        super().__init__(env, link_rate, link_latency, name)
        self.k = k
        self.oversubscription = oversubscription
        self._uplink_rate = link_rate / oversubscription
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
                        f"{agg.name}.down{e}", rate=self._uplink_rate)
                    edge.add_default_route(up)
                    agg.attach_block(p * radix + e, down)
                # Up tier: agg a owns cores [a*radix, (a+1)*radix).
                for j in range(radix):
                    core = self._cores[a * radix + j]
                    up, down = self._duplex(
                        agg, core, f"{agg.name}.up{j}",
                        f"{core.name}.down{p}", rate=self._uplink_rate)
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


class DragonflyTopology(FabricTopology):
    """Dragonfly fabric (Kim et al.): groups of ``a`` routers, each with
    ``p`` host ports and ``h`` global links; routers within a group are
    fully meshed, groups are connected by one direct global channel per
    pair (the canonical "palmtree" assignment), supporting up to
    ``a*h + 1`` groups.

    Address layout: host ``addr`` sits on router ``addr // p``; routers
    number ``a`` per group.  Groups grow lazily; creating group *g* wires
    its intra-group mesh and the duplex global channels to every
    previously built group.

    Routing is minimal and deterministic — local hop to the gateway
    router, one global hop, local hop to the destination router — encoded
    entirely in per-router block tables: a router holds one entry per
    other local router and one per remote group (either its own global
    link or the intra-group link toward the gateway that owns it), so
    tables stay O(a + groups) regardless of host count.
    ``oversubscription`` divides the rate of the global links only (the
    classic tapered dragonfly).
    """

    def __init__(
        self,
        env: Environment,
        routers_per_group: int = 4,
        hosts_per_router: int = 4,
        global_links_per_router: int = 2,
        link_rate: float = units.gbps(100),
        link_latency: float = units.ns(500),
        name: str = "dfly",
        oversubscription: float = 1.0,
    ):
        if min(routers_per_group, hosts_per_router,
               global_links_per_router) < 1:
            raise NetworkError(
                "dragonfly needs >= 1 router per group, host per router "
                "and global link per router"
            )
        if oversubscription <= 0:
            raise NetworkError("oversubscription factor must be positive")
        super().__init__(env, link_rate, link_latency, name)
        self.a = routers_per_group
        self.p = hosts_per_router
        self.h = global_links_per_router
        self.oversubscription = oversubscription
        self._global_rate = link_rate / oversubscription
        self.max_groups = self.a * self.h + 1
        self.capacity = self.max_groups * self.a * self.p
        self._groups: List[List[Switch]] = []

    def router_of(self, address: int) -> int:
        """Global router index of *address*."""
        return address // self.p

    def group_of(self, address: int) -> int:
        return address // (self.a * self.p)

    def _gateway(self, group: int, dst_group: int) -> (int, int):
        """(local router, link slot) owning *group*'s channel to *dst_group*."""
        channel = dst_group if dst_group < group else dst_group - 1
        return channel // self.h, channel % self.h

    def _make_resolver(self, group: int):
        a, p = self.a, self.p

        def resolver(dst: int, group=group, a=a, p=p) -> int:
            router = dst // p
            dst_group = router // a
            # Local routers key by global router index (>= 0); remote
            # groups by -(group+1) — the two key spaces never collide.
            return router if dst_group == group else -(dst_group + 1)

        return resolver

    def _grow_groups(self, group_idx: int) -> None:
        if group_idx >= self.max_groups:
            raise NetworkError(
                f"dragonfly a={self.a} h={self.h} supports "
                f"{self.max_groups} groups ({self.capacity} hosts); "
                f"address implies group {group_idx}"
            )
        while len(self._groups) <= group_idx:
            g = len(self._groups)
            routers = [
                Switch(self.env, name=f"{self.name}.g{g}.r{r}")
                for r in range(self.a)
            ]
            for router in routers:
                router.set_resolver(self._make_resolver(g))
            # Intra-group full mesh.
            for i, ri in enumerate(routers):
                for j in range(i + 1, self.a):
                    rj = routers[j]
                    lij, lji = self._duplex(
                        ri, rj, f"{ri.name}.l{j}", f"{rj.name}.l{i}")
                    ri.attach_block(g * self.a + j, lij)
                    rj.attach_block(g * self.a + i, lji)
            # Global channels to every existing group (one per pair).
            for other in range(g):
                lo_r, lo_s = self._gateway(other, g)
                hi_r, hi_s = self._gateway(g, other)
                src = self._groups[other][lo_r]
                dst = routers[hi_r]
                out, back = self._duplex(
                    src, dst, f"{src.name}.gl{lo_s}", f"{dst.name}.gl{hi_s}",
                    rate=self._global_rate)
                src.attach_block(-(g + 1), out)
                dst.attach_block(-(other + 1), back)
                # Non-gateway routers reach the remote group through the
                # gateway's intra-group links; the gateway's own block
                # entry for the group is the global link itself, and every
                # other router already has a block entry per local router —
                # so route the group key onto the existing mesh link.
                for r, router in enumerate(self._groups[other]):
                    if r != lo_r:
                        router.attach_block(
                            -(g + 1),
                            router._blocks[other * self.a + lo_r])
                for r, router in enumerate(routers):
                    if r != hi_r:
                        router.attach_block(
                            -(other + 1),
                            router._blocks[g * self.a + hi_r])
            self._groups.append(routers)

    def _edge_switch_for(self, address: int) -> Switch:
        group_idx = self.group_of(address)
        self._grow_groups(group_idx)
        local_router = (address // self.p) % self.a
        return self._groups[group_idx][local_router]

    def _switches(self) -> Iterable[Switch]:
        for group in self._groups:
            yield from group

    def one_way_base_latency(self, scope: str = "global") -> float:
        """Zero-byte one-way latency: ``"router"`` (same router),
        ``"group"`` (intra-group mesh hop) or ``"global"`` (worst minimal
        path: local, global, local)."""
        hops, switches = {"router": (2, 1), "group": (3, 2),
                          "global": (5, 4)}[scope]
        forwarding = units.ns(600) if not self._groups else \
            self._groups[0][0].forwarding_latency
        return hops * self.link_latency + switches * forwarding

    def __repr__(self) -> str:
        return (
            f"<DragonflyTopology {self.name!r} a={self.a} p={self.p} "
            f"h={self.h} groups={len(self._groups)} "
            f"n={len(self._endpoints)}>"
        )
