"""Network endpoint: the attachment point of an FPGA port or commodity NIC.

An :class:`Endpoint` owns the uplink toward the switch and receives segments
from its downlink.  Protocol engines register themselves as the receive
handler; transmit paces segments through the uplink's serializer.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import NetworkError
from repro.sim import Environment
from repro.network.link import Link
from repro.network.packet import Burst, Segment


class Endpoint:
    """One fabric port with an address, an uplink and a downlink."""

    __slots__ = ("env", "address", "name", "fidelity", "uplink",
                 "_rx_handler", "_rx_burst_handler", "segments_sent",
                 "segments_received")

    def __init__(self, env: Environment, address: int, name: str = ""):
        self.env = env
        self.address = address
        self.name = name or f"ep{address}"
        #: network fidelity level this port runs at; set by the owning
        #: topology ("packet" unless the topology was built in flow mode).
        self.fidelity = "packet"
        self.uplink: Optional[Link] = None
        self._rx_handler: Optional[Callable[[Segment], None]] = None
        self._rx_burst_handler: Optional[Callable[[Burst], None]] = None
        self.segments_sent = 0
        self.segments_received = 0

    def attach_uplink(self, link: Link) -> None:
        if self.uplink is not None:
            raise NetworkError(f"endpoint {self.name!r} already has an uplink")
        self.uplink = link

    def on_receive(self, handler: Callable[[Segment], None]) -> None:
        """Install the protocol engine's receive handler."""
        if self._rx_handler is not None:
            raise NetworkError(
                f"endpoint {self.name!r} already has a receive handler"
            )
        self._rx_handler = handler

    def deliver(self, segment: Segment) -> None:
        """Sink for the downlink; invoked by the fabric."""
        if self._rx_handler is None:
            raise NetworkError(
                f"endpoint {self.name!r} received a segment but has no handler"
            )
        self.segments_received += 1
        self._rx_handler(segment)

    def send(self, segment: Segment) -> float:
        """Transmit a segment; returns serialization-complete time."""
        if self.uplink is None:
            raise NetworkError(f"endpoint {self.name!r} has no uplink")
        if segment.src != self.address:
            raise NetworkError(
                f"endpoint {self.name!r} (addr {self.address}) asked to send "
                f"a segment with src={segment.src}"
            )
        self.segments_sent += 1
        return self.uplink.send(segment)

    # -- flow-fidelity burst path -----------------------------------------

    def on_receive_burst(self, handler: Callable[[Burst], None]) -> None:
        """Install the protocol engine's fast-forwarded-burst handler."""
        if self._rx_burst_handler is not None:
            raise NetworkError(
                f"endpoint {self.name!r} already has a burst handler"
            )
        self._rx_burst_handler = handler

    def deliver_burst(self, burst: Burst) -> None:
        """Sink for fast-forwarded bursts; invoked at last-segment arrival."""
        if self._rx_burst_handler is None:
            raise NetworkError(
                f"endpoint {self.name!r} received a burst but has no "
                "burst handler"
            )
        self.segments_received += burst.n_segments
        self._rx_burst_handler(burst)

    def send_burst(self, burst: Burst) -> Optional[float]:
        """Fast-forward a segment train through the uplink.

        Returns the handoff time of the last segment (what the sender paces
        to), or ``None`` when a convoy mismatch keeps the uplink off the
        analytic path, in which case the caller must fall back to the
        per-segment transmit loop.  A busy uplink carries the burst behind
        its own backlog.
        """
        if self.uplink is None:
            raise NetworkError(f"endpoint {self.name!r} has no uplink")
        if burst.src != self.address:
            raise NetworkError(
                f"endpoint {self.name!r} (addr {self.address}) asked to send "
                f"a burst with src={burst.src}"
            )
        handoff = self.uplink.try_send_burst(burst)
        if handoff is None:
            return None
        self.segments_sent += burst.n_segments
        return handoff

    def __repr__(self) -> str:
        return f"<Endpoint {self.name!r} addr={self.address}>"
