"""Protocol offload engines (POEs).

The CCLO engine has POE-independent internal interfaces (two meta/data stream
pairs); each POE here exposes the matching message-level service on top of the
fabric:

- :class:`UdpPoe` -- connectionless datagrams, no flow control (VNx-style).
- :class:`TcpPoe` -- sessions and windowed flow control (EasyNet-style,
  up to 1000 connections).
- :class:`RdmaPoe` -- queue pairs, two-sided SEND and one-sided WRITE verbs
  with credit-based flow control (Coyote network service).

All POEs segment messages to bounded wire segments and reassemble on the
receive side, delivering ``(header, data)`` to the registered handler.
"""

from repro.protocols.base import BasePoe, MessageHeader
from repro.protocols.udp import UdpPoe
from repro.protocols.tcp import TcpPoe
from repro.protocols.rdma import RdmaPoe

__all__ = [
    "BasePoe",
    "MessageHeader",
    "UdpPoe",
    "TcpPoe",
    "RdmaPoe",
]
