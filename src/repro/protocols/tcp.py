"""TCP protocol offload engine (EasyNet-style, §4.3).

Models the properties that matter to collectives:

- explicit sessions (up to 1000), established with a one-RTT handshake;
- a sliding window bounding bytes in flight, replenished by ACK segments;
- retransmission buffering: every transmitted segment is also written to a
  POE-private region of FPGA memory, charging memory bandwidth (the paper:
  "the TCP POE also needs to access protocol-internal buffers for
  re-transmission").

The fabric is lossless, so actual retransmission never triggers; its *cost*
(the extra memory traffic) is what shapes performance and is modeled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ProtocolError
from repro.memory.model import Memory
from repro.network.packet import Segment
from repro.protocols.base import BasePoe, MessageHeader
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
    #: window stalls exist because every segment is mirrored into the
    #: retransmission buffer; label them as that back-pressure
    flow_control_cause = "retx_backpressure"
    #: per elided segment: a window-take yield and a retx-write event on the
    #: transmit side; one 58-byte ACK segment (three wire hops) back
    _FLOW_TX_ELIDED_PER_SEGMENT = 2
    _FLOW_RX_ELIDED_PER_SEGMENT = 3
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
        retx_memory: Optional[Memory] = None,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        name: str = "",
    ):
        super().__init__(env, endpoint, name)
        self.window_bytes = window_bytes
        self.retx_memory = retx_memory
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

    # -- transmit path overrides ---------------------------------------------

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

    def _tx_post_segment(self, header: MessageHeader,
                         segment: Segment) -> Optional[float]:
        # Retransmission buffering: the segment is mirrored into POE-private
        # FPGA memory; that write shares the memory port with everyone else.
        if self.retx_memory is not None and segment.payload_bytes > 0:
            return self.retx_memory.access_delay(segment.payload_bytes)
        return None

    def _flow_tx_post(self, header: MessageHeader, burst):
        # Retx mirroring in bulk: the head of the train is charged to the
        # memory port up front (it overlaps serialization, as the
        # per-segment writes did), while the last chunk's write is what the
        # packet-level loop finishes on — local completion waits for it.
        if self.retx_memory is None:
            return None
        head_bytes = burst.payload_bytes - burst.last_bytes
        if head_bytes > 0:
            self.retx_memory.access_delay(head_bytes)
        return self.retx_memory.access_delay(burst.last_bytes)

    # -- flow-control returns ------------------------------------------------

    def _return_bucket(self, peer: int) -> Optional[TokenBucket]:
        session = self._by_remote.get(peer)
        return None if session is None else session.window
