"""CCLO configuration memory (§4.4.1).

"The uC, DMP, and RBM store states in a small configuration memory
implemented as FPGA BRAM.  The configuration memory is also accessible by
the CPU through MMIO and includes information about the communicator, e.g.,
session or queue pair IDs, pool of allocated Rx buffers."

Runtime-tunable algorithm parameters also live here — "the tuning of the
algorithms for specific collectives can be done at runtime by setting
configuration parameters to the CCLO engine" (§4.4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro import units


@dataclass
class CcloConfig:
    """Compile-time-equivalent hardware parameters of one CCLO instance."""

    clock_hz: float = 250e6
    datapath_bytes_per_cycle: int = 64
    #: uC cycles to accept a command and dispatch firmware.  ACCL+'s uC
    #: issues only coarse-grained commands with FIFO-decoupled hardware
    #: blocks doing the real work, so dispatch stays lean (the v1 engine,
    #: which does per-packet work on the uC, overrides these upward).
    uc_dispatch_cycles: int = 150
    #: uC cycles per coarse firmware control step
    uc_instr_cycles: int = 50
    #: DMP pipeline fill per microcode
    dmp_pipeline_cycles: int = 60
    #: Tx/Rx FSM handling per message
    txrx_fsm_cycles: int = 40
    #: NoC hop latency in cycles
    noc_hop_cycles: int = 8
    #: eager Rx buffer pool
    rx_pool_bytes: int = 64 * units.MIB
    rx_max_messages: int = 256
    #: streaming plugins compiled in ("sum", "max", ... or empty to strip);
    #: the fp16 pair implements the wire codec (unary compression, §4.4.2)
    plugins: tuple = ("sum", "max", "min", "prod", "to_fp16", "from_fp16")
    #: maximum concurrently executing microcodes in the DMP
    dmp_parallel_slots: int = 4
    #: ACCL-v1 mode: uC instructions charged per KiB of inbound payload
    #: (packet assembling on the micro-processor instead of the RBM).
    #: 0 = ACCL+ behaviour (RBM offload, no uC involvement per packet).
    uc_rx_instr_per_kib: int = 0

    def cycles(self, n: int) -> float:
        """n clock cycles in seconds at this instance's clock."""
        return n / self.clock_hz

    @classmethod
    def functional(cls) -> "CcloConfig":
        """The paper's *functional* simulation level: validate collective
        logic with negligible hardware latencies (vs the default calibrated
        'cycle-approximate' level)."""
        return cls(
            clock_hz=1e12,
            uc_dispatch_cycles=1,
            uc_instr_cycles=1,
            dmp_pipeline_cycles=0,
            txrx_fsm_cycles=0,
            noc_hop_cycles=0,
        )

    @property
    def datapath_rate(self) -> float:
        """Internal stream bandwidth in bytes/s (64 B/cycle at the clock)."""
        return self.datapath_bytes_per_cycle * self.clock_hz


@dataclass
class CommunicatorConfig:
    """One communicator: the rank -> fabric address map plus session ids."""

    comm_id: int
    local_rank: int
    addresses: List[int]  # rank -> endpoint address
    protocol: str = "rdma"  # "rdma" | "tcp" | "udp"
    session_ids: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.local_rank < len(self.addresses):
            raise ConfigurationError(
                f"local rank {self.local_rank} outside communicator of "
                f"size {len(self.addresses)}"
            )
        if len(set(self.addresses)) != len(self.addresses):
            raise ConfigurationError("duplicate addresses in communicator")
        if self.protocol not in ("rdma", "tcp", "udp"):
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")

    @property
    def size(self) -> int:
        return len(self.addresses)

    def address_of(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise ConfigurationError(
                f"rank {rank} outside communicator of size {self.size}"
            )
        return self.addresses[rank]


@dataclass
class AlgorithmParams:
    """Runtime-settable thresholds steering algorithm selection (Table 1)."""

    #: below this, rendezvous bcast keeps one-to-all; above, recursive doubling
    bcast_one_to_all_max_ranks: int = 4
    #: below this byte count, reduce/gather use all-to-one; above, binary tree
    tree_threshold_bytes: int = 64 * units.KIB
    #: eager/rendezvous switch for RDMA point-to-point.  Kept below 8 KiB so
    #: the Fig 12 operating points (8 KB -> all-to-one, 128 KB -> binary
    #: tree) run in rendezvous mode, as in the paper.
    eager_max_bytes: int = 4 * units.KIB


class ConfigMemory:
    """BRAM-resident state shared by uC, DMP and RBM; MMIO-visible."""

    def __init__(self, config: Optional[CcloConfig] = None):
        self.config = config or CcloConfig()
        self.communicators: Dict[int, CommunicatorConfig] = {}
        self.params = AlgorithmParams()

    def add_communicator(self, comm: CommunicatorConfig) -> None:
        if comm.comm_id in self.communicators:
            raise ConfigurationError(
                f"communicator {comm.comm_id} already configured"
            )
        self.communicators[comm.comm_id] = comm

    def communicator(self, comm_id: int) -> CommunicatorConfig:
        try:
            return self.communicators[comm_id]
        except KeyError:
            raise ConfigurationError(
                f"communicator {comm_id} not configured"
            ) from None
