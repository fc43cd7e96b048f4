"""PCIe Gen3 x16 model: one DMA pipe per direction.

Two costs matter for the paper's results:

- bulk DMA bandwidth (~13 GB/s effective) — staging cost on Vitis, unified
  memory cost on Coyote, and the F2F baseline's FPGA->CPU->FPGA detour;
- DMA setup latency (~0.9 us).

Invocation cost (MMIO doorbells, Fig 8) is each platform's
``host_invocation_latency``, not a cost of this link.
"""

from __future__ import annotations

from repro.sim import BandwidthResource, Environment
from repro import units


class PcieLink:
    """Duplex host<->device PCIe connection."""

    #: effective bulk bandwidth per direction (Gen3 x16 after framing)
    DEFAULT_BANDWIDTH = 13e9
    #: DMA descriptor setup + completion latency
    DEFAULT_DMA_LATENCY = units.ns(900)

    def __init__(
        self,
        env: Environment,
        bandwidth: float = DEFAULT_BANDWIDTH,
        dma_latency: float = DEFAULT_DMA_LATENCY,
        name: str = "pcie",
    ):
        self.env = env
        self.dma_latency = dma_latency
        self.name = name
        self._h2d = BandwidthResource(env, bandwidth, name=f"{name}.h2d")
        self._d2h = BandwidthResource(env, bandwidth, name=f"{name}.d2h")

    @property
    def bytes_h2d(self) -> int:
        return self._h2d.bytes_moved

    @property
    def bytes_d2h(self) -> int:
        return self._d2h.bytes_moved

    def _dma_delay(self, pipe: BandwidthResource, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"negative DMA size: {nbytes}")
        return pipe.reserve(nbytes) + self.dma_latency - self.env.now

    def dma_h2d_delay(self, nbytes: int) -> float:
        """Charge a host -> device DMA; returns the delay to completion."""
        return self._dma_delay(self._h2d, nbytes)

    def dma_d2h_delay(self, nbytes: int) -> float:
        """Charge a device -> host DMA; returns the delay to completion."""
        return self._dma_delay(self._d2h, nbytes)

    def __repr__(self) -> str:
        return f"<PcieLink {self.name!r} {self._h2d.rate / 1e9:.0f} GB/s>"
