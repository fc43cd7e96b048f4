"""RDMA protocol offload engine (Coyote network service, §4.3).

Supports the verbs the CCLO uses:

- **SEND** (two-sided): delivered to the remote consumer's message handler —
  the CCLO "consistently manages data and metadata streams from two-sided
  SEND".
- **WRITE** (one-sided): on the passive side, data bypasses the CCLO and is
  written straight to virtualized memory through a writer hook installed by
  the platform integration; only an optional completion record surfaces.

A queue pair is created at the first verb toward a peer (QP exchange is an
out-of-band control-plane step that charges no simulated time), and flow
control is credit-based, which is what makes rendezvous algorithms safe at
scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import ProtocolError
from repro.protocols.base import BasePoe, DeferredPayload, MessageHeader
from repro.sim.resources import TokenBucket
from repro import units


@dataclass(slots=True)
class QueuePair:
    qp_num: int
    local_addr: int
    remote_addr: int
    credits: "TokenBucket"


class RdmaPoe(BasePoe):
    """RoCE-style engine with SEND/WRITE verbs and QP-level credits."""

    protocol_name = "roce"
    mtu = 4096
    poe_latency = units.ns(300)
    #: QP-level credit exhaustion is the RDMA flow-control stall
    flow_control_cause = "credit_stall"
    return_kind = "credit"
    return_bytes = 16
    one_sided_kind = "write"

    DEFAULT_CREDIT_BYTES = 1 * units.MIB

    def __init__(
        self,
        env,
        endpoint,
        credit_bytes: int = DEFAULT_CREDIT_BYTES,
        name: str = "",
    ):
        super().__init__(env, endpoint, name)
        self.credit_bytes = credit_bytes
        self._qp_nums = itertools.count(1)
        self._by_remote: Dict[int, QueuePair] = {}
        # One shared name for every QP's credit bucket: large clusters
        # create many QPs and per-QP f-strings are pure construction cost.
        self._credit_name = f"{self.name}.crd"
        self._memory_writer: Optional[
            Callable[[MessageHeader, Any], None]
        ] = None
        self.writes_completed = 0

    # -- queue pair management ------------------------------------------------

    @property
    def qp_count(self) -> int:
        return len(self._by_remote)

    def qp_to(self, remote_addr: int) -> QueuePair:
        """The queue pair toward *remote_addr*, created at the first verb.

        QP number exchange is an out-of-band control-plane step that
        charges no simulated time, so a node that talks to k peers holds k
        QPs.  A QP to this engine's own address raises.
        """
        qp = self._by_remote.get(remote_addr)
        if qp is not None:
            return qp
        if remote_addr == self.address:
            raise ProtocolError(f"{self.name}: cannot create QP to self")
        qp = QueuePair(
            qp_num=next(self._qp_nums),
            local_addr=self.address,
            remote_addr=remote_addr,
            credits=TokenBucket(self.env, self.credit_bytes,
                                name=self._credit_name),
        )
        self._by_remote[remote_addr] = qp
        return qp

    def set_memory_writer(
        self, writer: Callable[[MessageHeader, Any], None]
    ) -> None:
        """Install the passive-side WRITE path (platform memory management).

        The writer receives ``(header, data)``; ``header.meta`` carries the
        initiator-supplied destination descriptor (virtual address tuple).
        """
        if self._memory_writer is not None:
            raise ProtocolError(f"{self.name}: memory writer already set")
        self._memory_writer = writer

    # -- verbs ------------------------------------------------------------------

    def transmit(self, dst_addr, nbytes, meta=None, data=None,
                 kind="send", session=0, pace=None, lead=0.0):
        """Post a verb on the QP toward *dst_addr*: ``kind="write"`` is a
        one-sided WRITE whose *meta* is the remote buffer descriptor (it
        lands through the peer's memory writer); any other kind is a
        two-sided SEND.  *session* is ignored: the QP number is used."""
        qp = self.qp_to(dst_addr)
        if kind != "write":
            kind = "send"
        return super().transmit(dst_addr, nbytes, meta, data, kind,
                                qp.qp_num, pace, lead)

    # -- flow control -------------------------------------------------------------

    def _return_bucket(self, peer: int) -> Optional[TokenBucket]:
        qp = self._by_remote.get(peer)
        return None if qp is None else qp.credits

    # -- delivery ---------------------------------------------------------------

    def _rx_complete(self, header: MessageHeader, data: Any) -> None:
        if header.kind == "write":
            # One-sided: the data goes to memory at POE delivery, past the
            # message consumer and its front-end latency.
            self.env.schedule_callback(
                self.poe_latency, self._write_delivered, header, data)
            return
        super()._rx_complete(header, data)

    def _write_delivered(self, header: MessageHeader, data: Any) -> None:
        if self._memory_writer is None:
            raise ProtocolError(
                f"{self.name}: WRITE arrived but no memory writer is "
                "installed (platform integration missing)"
            )
        self.writes_completed += 1
        self._memory_writer(header, DeferredPayload.resolve(data))
