"""Build simulated FPGA clusters mirroring the evaluation testbed (§5).

``build_fpga_cluster(8, protocol="rdma", platform="coyote")`` reproduces the
paper's main configuration: Alveo-U55C-class nodes on a 100 Gb/s star
fabric, with TCP sessions established up front (the CCL driver's POE
initialization duty) and RDMA queue pairs created at their first verb.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.cclo.config_mem import CcloConfig, CommunicatorConfig
from repro.cclo.engine import CcloEngine
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster.node import FpgaNode
from repro.network.topology import StarTopology
from repro.platform.coyote import CoyotePlatform
from repro.platform.simplatform import SimPlatform
from repro.platform.vitis import VitisPlatform
from repro.protocols.rdma import RdmaPoe
from repro.protocols.tcp import TcpPoe
from repro.protocols.udp import UdpPoe
from repro.sim import Environment, all_of
from repro import units

_PLATFORMS = {
    "coyote": CoyotePlatform,
    "vitis": VitisPlatform,
    "sim": SimPlatform,
}

_POES = {
    "rdma": RdmaPoe,
    "tcp": TcpPoe,
    "udp": UdpPoe,
}


class FpgaCluster:
    """N FPGA nodes on one switch, sharing communicator 0."""

    def __init__(
        self,
        env: Environment,
        nodes: List[FpgaNode],
        topology: StarTopology,
        protocol: str,
    ):
        self.env = env
        self.nodes = nodes
        self.topology = topology
        self.protocol = protocol

    @property
    def size(self) -> int:
        return len(self.nodes)

    def engine(self, rank: int) -> CcloEngine:
        return self.nodes[rank].engine

    def add_subcommunicator(self, comm_id: int, ranks: List[int]) -> None:
        """Configure a communicator over a subset of the cluster's nodes.

        ``ranks`` are cluster ranks; inside the new communicator they are
        renumbered 0..len-1 in the given order (MPI sub-communicator style).
        """
        addresses = [self.nodes[r].address for r in ranks]
        for sub_rank, r in enumerate(ranks):
            self.nodes[r].engine.add_communicator(
                CommunicatorConfig(
                    comm_id=comm_id,
                    local_rank=sub_rank,
                    addresses=addresses,
                    protocol=self.protocol,
                )
            )

    def call_on_all(
        self, make_args: Callable[[int], Optional[CollectiveArgs]]
    ) -> list:
        """Submit one command per rank; returns the completion events.

        ``make_args(rank)`` may return ``None`` to skip a rank.
        """
        events = []
        for node in self.nodes:
            args = make_args(node.rank)
            if args is not None:
                events.append(node.engine.call(args))
        return events

    def run_collective(
        self, make_args: Callable[[int], Optional[CollectiveArgs]]
    ) -> float:
        """Run one collective across the cluster; returns elapsed seconds."""
        start = self.env.now
        events = self.call_on_all(make_args)
        self.env.run(until=all_of(self.env, events))
        return self.env.now - start


def build_fpga_cluster(
    n_nodes: int,
    protocol: str = "rdma",
    platform: str = "coyote",
    cclo_config: Optional[CcloConfig] = None,
    env: Optional[Environment] = None,
    link_rate: float = units.gbps(100),
    topology_factory: Optional[Callable[[Environment], object]] = None,
    peering: str = "lazy",
) -> FpgaCluster:
    """Construct an ``n_nodes`` cluster with communicator 0 ready to use.

    TCP sessions are established the way the host CCL driver initializes
    POEs before any collective runs; the handshakes advance simulated time.
    An RDMA queue pair is created at its first verb (QP exchange charges
    no simulated time), so a node holds one per peer it talks to.
    ``peering`` accepts only ``"lazy"``, the one way QPs are made.
    """
    if n_nodes < 1:
        raise ConfigurationError(f"cluster needs n_nodes >= 1, got {n_nodes}")
    if protocol not in _POES:
        raise ConfigurationError(f"unknown protocol {protocol!r}")
    if platform not in _PLATFORMS:
        raise ConfigurationError(f"unknown platform {platform!r}")
    if peering != "lazy":
        raise ConfigurationError(
            f"unknown peering mode {peering!r}; QPs are made lazily")

    env = env or Environment()
    if topology_factory is not None:
        topology = topology_factory(env)
    else:
        topology = StarTopology(env, link_rate=link_rate)
    platform_cls = _PLATFORMS[platform]
    poe_cls = _POES[protocol]
    # One read-only config object for the whole cluster: every engine's
    # ConfigMemory references it instead of instantiating a private copy.
    if cclo_config is None:
        cclo_config = CcloConfig()

    nodes: List[FpgaNode] = []
    for rank in range(n_nodes):
        endpoint = topology.add_endpoint(rank, name=f"fpga{rank}")
        plat = platform_cls(env)
        poe = poe_cls(env, endpoint)
        engine = CcloEngine(env, plat, poe, config=cclo_config,
                            name=f"cclo{rank}")
        nodes.append(FpgaNode(rank, endpoint, plat, poe, engine))

    addresses = [node.address for node in nodes]
    for node in nodes:
        node.engine.add_communicator(
            CommunicatorConfig(
                comm_id=0,
                local_rank=node.rank,
                addresses=addresses,
                protocol=protocol,
            )
        )

    if protocol == "tcp":
        _establish_sessions(env, nodes)
    return FpgaCluster(env, nodes, topology, protocol)


def _establish_sessions(env: Environment, nodes: List[FpgaNode]) -> None:
    """TCP session setup, as the host drivers would perform."""
    # i connects, j accepts, for every ordered pair.
    handshakes = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            b.poe.accept(a.address)
            a.poe.accept(b.address)
            handshakes.append(a.poe.connect(b.address))
            handshakes.append(b.poe.connect(a.address))
    if handshakes:
        env.run(until=all_of(env, handshakes))
