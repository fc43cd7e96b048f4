"""Packet-switched network fabric.

Models the evaluation cluster's data-center network: endpoints (FPGA
Ethernet ports, commodity NICs) attach to a :class:`Switch` through
full-duplex 100 Gb/s :class:`Link` pairs.  Transfers are carried as
:class:`Segment` descriptors — MTU-coalesced bursts whose wire time accounts
for per-frame header overhead, so effective goodput matches an Ethernet
reality without per-frame event cost.
"""

from repro.network.packet import Segment
from repro.network.link import Link
from repro.network.switch import Switch
from repro.network.endpoint import Endpoint
from repro.network.topology import (
    FabricTopology,
    FatTreeTopology,
    StarTopology,
)

__all__ = [
    "Segment", "Link", "Switch", "Endpoint", "FabricTopology",
    "StarTopology", "FatTreeTopology",
]
