"""The CCLO-internal network on chip (§4.4.2).

"All the data streams internal to the CCLO can be routed in packets based on
the dest field that comes along with the data."

The NoC is the shared internal datapath: every stream between blocks
(memory <-> plugin <-> Tx/Rx <-> kernel streams) crosses it, so it is where
the 64 B/cycle clock-rate ceiling binds.  Routing is dest-field based over a
registered port table; a transfer charges the shared stream bandwidth plus a
per-hop pipeline latency.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import CcloError
from repro.sim import BandwidthResource, Environment
from repro.cclo.config_mem import CcloConfig


class NoC:
    """Dest-routed internal stream fabric of one CCLO instance."""

    def __init__(self, env: Environment, config: CcloConfig, name: str = "noc"):
        self.env = env
        self.config = config
        self.name = name
        self._stream = BandwidthResource(
            env, config.datapath_rate, name=f"{name}.stream"
        )
        self._ports: Dict[str, int] = {}
        self.transfers = 0

    def register_port(self, port: str) -> int:
        """Register a block's stream port; returns its dest field value."""
        if port in self._ports:
            raise CcloError(f"NoC port {port!r} already registered")
        dest = len(self._ports)
        self._ports[port] = dest
        return dest

    def dest_of(self, port: str) -> int:
        try:
            return self._ports[port]
        except KeyError:
            raise CcloError(f"unknown NoC port {port!r}") from None

    @property
    def bytes_routed(self) -> int:
        return self._stream.bytes_moved

    def route_delay(self, src_port: str, dst_port: str, nbytes: int) -> float:
        """Charge moving *nbytes* from one block to another through the
        crossbar; returns the delay from *now* until the last byte is out."""
        # Validating both ports catches wiring mistakes at simulation time
        # the way elaboration would in hardware.
        self.dest_of(src_port)
        self.dest_of(dst_port)
        if nbytes < 0:
            raise CcloError(f"negative NoC transfer: {nbytes}")
        self.transfers += 1
        hop = self.config.cycles(self.config.noc_hop_cycles)
        done = self._stream.reserve(nbytes) + hop
        return done - self.env.now

    def __repr__(self) -> str:
        return f"<NoC {self.name!r} ports={list(self._ports)}>"
