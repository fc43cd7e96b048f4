"""Output-queued switch model (Cisco Nexus class).

Forwarding is cut-through with a fixed port-to-port latency; contention shows
up on the egress :class:`~repro.network.link.Link` of the destination port,
which is exactly where in-cast congestion (the paper's motivation for
tree-based reduce/gather at large sizes) materializes.

The forwarding latency costs no kernel event of its own.  Each ingress link
is wired with :meth:`Switch.connect_ingress`, which makes the link deliver
every segment (and every flow-mode burst head) at its arrival time plus the
forwarding latency; the switch then routes and hands it to the egress link
in the same callback.  The egress send runs at the same float time as a
separately deferred send would: one kernel event per switch hop.

Routing resolves in three stages, cheapest and most specific first:

1. exact per-address entries (:meth:`Switch.attach` — the ports endpoints
   hang off), which the forwarding paths look up inline before calling
   :meth:`Switch._route`;
2. *block* entries (:meth:`Switch.attach_block`) keyed by a resolver
   function over the destination address — one route per downstream
   leaf/pod/group instead of one per endpoint, which is what keeps route
   tables O(ports) instead of O(endpoints) on spine/aggregation/core tiers;
3. default routes, ECMP-balanced on a deterministic (src, dst) flow hash.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import NetworkError
from repro.sim import Environment
from repro.network.link import Link
from repro.network.packet import Burst, Segment
from repro import units


class Switch:
    """A single-stage switch: address -> egress link table."""

    __slots__ = ("env", "forwarding_latency", "name", "_egress", "_blocks",
                 "_resolver", "_default_routes", "segments_forwarded")

    def __init__(
        self,
        env: Environment,
        forwarding_latency: float = units.ns(600),
        name: str = "switch",
    ):
        self.env = env
        self.forwarding_latency = forwarding_latency
        self.name = name
        self._egress: Dict[int, Link] = {}
        self._blocks: Dict[int, Link] = {}
        self._resolver: Optional[Callable[[int], int]] = None
        self._default_routes: list = []
        self.segments_forwarded = 0

    @property
    def port_count(self) -> int:
        return len(self._egress) + len(self._blocks)

    def attach(self, address: int, egress: Link) -> None:
        """Register the egress link toward endpoint *address*."""
        if address in self._egress:
            raise NetworkError(
                f"switch {self.name!r}: address {address} already attached"
            )
        self._egress[address] = egress

    def set_resolver(self, resolver: Callable[[int], int]) -> None:
        """Install the address -> block-key mapping for block routes.

        The resolver collapses whole address ranges onto one table entry
        (e.g. ``addr // ports_per_leaf`` on a spine), so aggregation tiers
        install O(downstream switches) routes, not O(endpoints).
        """
        self._resolver = resolver

    def attach_block(self, key: int, egress: Link) -> None:
        """Register the egress link for every address resolving to *key*."""
        if key in self._blocks:
            raise NetworkError(
                f"switch {self.name!r}: block {key} already attached"
            )
        self._blocks[key] = egress

    def add_default_route(self, egress: Link) -> None:
        """Register an uplink used for addresses with no local entry.

        Multiple default routes load-balance ECMP-style on a (src, dst)
        flow hash, keeping one flow's segments in order.
        """
        self._default_routes.append(egress)

    def _route(self, src: int, dst: int) -> Link:
        """The egress toward *dst* from the block and default stages; the
        forwarding paths look the exact table up inline and call this only
        on a miss."""
        egress = None
        if self._resolver is not None:
            egress = self._blocks.get(self._resolver(dst))
        if egress is None and self._default_routes:
            flow = hash((src, dst))
            egress = self._default_routes[flow % len(self._default_routes)]
        if egress is None:
            raise NetworkError(
                f"switch {self.name!r}: no route to address {dst}"
            )
        return egress

    def connect_ingress(self, link: Link) -> None:
        """Make *link* deliver its segments and bursts into this switch,
        each ``forwarding_latency`` after it arrives."""
        link.connect(self.ingress, self.forwarding_latency)
        link.connect_burst(self.ingress_burst)

    def ingress(self, segment: Segment) -> None:
        """Forward *segment*; runs at its arrival plus the forwarding
        latency (see :meth:`connect_ingress`)."""
        egress = self._egress.get(segment.dst)
        if egress is None:
            egress = self._route(segment.src, segment.dst)
        self.segments_forwarded += 1
        egress.send(segment)

    def ingress_burst(self, burst: Burst) -> None:
        """Forward a fast-forwarded train (flow fidelity) in one step.

        Runs at the head segment's arrival plus the forwarding latency;
        routing uses the same (src, dst) flow hash as per-segment
        forwarding, so ECMP placement is identical.  Every segment's
        availability shifts by the same fixed latency, and the egress link
        decides whether the train stays analytic or expands.
        """
        egress = self._egress.get(burst.dst)
        if egress is None:
            egress = self._route(burst.src, burst.dst)
        self.segments_forwarded += burst.n_segments
        latency = self.forwarding_latency
        burst.head_at += latency
        burst.last_at += latency
        egress.send_burst(burst)

    def iter_egress(self):
        """Every distinct egress link this switch can forward onto."""
        yield from self._egress.values()
        yield from self._blocks.values()
        yield from self._default_routes

    def __repr__(self) -> str:
        return f"<Switch {self.name!r} ports={self.port_count}>"
