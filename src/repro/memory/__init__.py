"""Memory subsystem models: HBM / host DRAM and PCIe.

Each memory is a :class:`Memory` with a byte-pipe port model (bandwidth +
access latency) and a capacity-tracking allocator.  :class:`PcieLink` models
the host<->FPGA DMA path used by staging (Vitis) and unified memory (Coyote).
"""

from repro.memory.model import Allocation, Memory, hbm_stack, host_dram
from repro.memory.pcie import PcieLink

__all__ = [
    "Memory",
    "Allocation",
    "PcieLink",
    "hbm_stack",
    "host_dram",
]
