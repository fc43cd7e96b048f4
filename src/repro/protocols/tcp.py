"""TCP protocol offload engine (EasyNet-style, §4.3).

Models the properties that matter to collectives:

- explicit sessions (up to 1000), established with a one-RTT handshake;
- a sliding window bounding bytes in flight, replenished by ACK segments.

The fabric is lossless, so retransmission never triggers.  The memory
traffic of the POE's retransmission buffers (the paper: "the TCP POE also
needs to access protocol-internal buffers for re-transmission") is not
modeled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ProtocolError
from repro.protocols.base import BasePoe
from repro.sim import Event
from repro.sim.resources import TokenBucket
from repro import units


@dataclass
class TcpSession:
    session_id: int
    local_addr: int
    remote_addr: int
    window: "TokenBucket"


class TcpPoe(BasePoe):
    """Reliable, connection-oriented engine with windowed flow control."""

    protocol_name = "tcp"
    mtu = 1460
    poe_latency = units.ns(500)
    #: a closed window means unacknowledged bytes fill what the sender
    #: holds for retransmission; label the stall as that back-pressure
    flow_control_cause = "retx_backpressure"
    #: a cumulative ACK per delivered segment (coalescing would change
    #: little at 32 KiB segments) restores the sender's window
    return_kind = "ack"
    return_bytes = 58

    MAX_SESSIONS = 1000
    DEFAULT_WINDOW_BYTES = 256 * units.KIB

    def __init__(
        self,
        env,
        endpoint,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        name: str = "",
    ):
        super().__init__(env, endpoint, name)
        self.window_bytes = window_bytes
        self._session_ids = itertools.count(1)
        self._sessions: Dict[int, TcpSession] = {}
        self._by_remote: Dict[int, TcpSession] = {}

    # -- session management -------------------------------------------------

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    @property
    def acks_sent(self) -> int:
        return self.returns_sent

    def connect(self, remote_addr: int) -> Event:
        """Three-way handshake (modeled as one fabric RTT); the event value
        is the new session id."""
        if len(self._sessions) >= self.MAX_SESSIONS:
            raise ProtocolError(
                f"{self.name}: session table full ({self.MAX_SESSIONS})"
            )
        if remote_addr == self.address:
            raise ProtocolError(f"{self.name}: cannot connect to self")
        session = self._open_session(remote_addr)

        def handshake():
            # SYN out, SYN-ACK back: two fabric traversals plus POE passes.
            rtt = 2 * (self._fabric_hop() + self.poe_latency)
            yield self.env.timeout(rtt)
            return session.session_id

        return self.env.process(handshake(), name=f"{self.name}.connect")

    def accept(self, remote_addr: int) -> int:
        """Passive side of connect: install session state immediately."""
        return self._open_session(remote_addr).session_id

    def _open_session(self, remote_addr: int) -> TcpSession:
        if remote_addr in self._by_remote:
            return self._by_remote[remote_addr]
        session = TcpSession(
            session_id=next(self._session_ids),
            local_addr=self.address,
            remote_addr=remote_addr,
            window=TokenBucket(
                self.env, self.window_bytes, name=f"{self.name}.win"
            ),
        )
        self._sessions[session.session_id] = session
        self._by_remote[remote_addr] = session
        return session

    def session_to(self, remote_addr: int) -> TcpSession:
        session = self._by_remote.get(remote_addr)
        if session is None:
            raise ProtocolError(
                f"{self.name}: no session to address {remote_addr}"
            )
        return session

    def _fabric_hop(self) -> float:
        # One-way zero-byte latency estimate used for handshake costing only.
        link = self.endpoint.uplink
        return 2 * link.latency + units.ns(600)

    # -- transmit path -------------------------------------------------------

    def transmit(self, dst_addr, nbytes, meta=None, data=None,
                 kind="send", session=0, pace=None, lead=0.0):
        """Send on the established session toward *dst_addr* (*session* is
        ignored); raises at the call when there is none."""
        sess = self._by_remote.get(dst_addr)
        if sess is None:
            raise ProtocolError(
                f"{self.name}: send to {dst_addr} without an established "
                "session; call connect()/accept() first"
            )
        return super().transmit(dst_addr, nbytes, meta, data, kind,
                                sess.session_id, pace, lead)

    # -- flow-control returns ------------------------------------------------

    def _return_bucket(self, peer: int) -> Optional[TokenBucket]:
        session = self._by_remote.get(peer)
        return None if session is None else session.window
