"""Vitis/XRT: the partitioned-memory platform (§4.2 "Integration with Vitis").

Vitis "implements a partitioned memory model": FPGA kernels (and the CCLO)
can only reach FPGA memory; host data must be explicitly migrated — *staged*
— across PCIe by the XRT-controlled XDMA engine before and after collectives.
The paper calls out two penalties measured in the evaluation:

- **staging** dominates H2H collectives on XRT (Fig 13's host-vs-device gap);
- **invocation latency** through XRT is "significantly higher" than through
  Coyote, "as it is not intended for fine-grained data movement" (Fig 8).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PlatformError
from repro.memory import Memory, PcieLink, hbm_stack, host_dram
from repro.platform.base import BaseBuffer, BasePlatform, BufferLocation
from repro.sim import Environment
from repro import units


class VitisBuffer(BaseBuffer):
    """An XRT buffer object (``xrt::bo`` analogue).

    A host-located VitisBuffer has a *shadow* allocation in device memory:
    staging copies bounce through it, mirroring XRT's host-pointer +
    device-buffer pairing.
    """

    def __init__(self, platform: "VitisPlatform", nbytes: int,
                 location: BufferLocation, array: Optional[np.ndarray] = None):
        super().__init__(platform, nbytes, location, array)
        if location is BufferLocation.DEVICE:
            self._allocation = platform.device_memory.allocate(nbytes)
            self._shadow = None
        else:
            self._allocation = platform.host_memory.allocate(nbytes)
            self._shadow = platform.device_memory.allocate(nbytes)
        self.staged = location is BufferLocation.DEVICE

    def free(self) -> None:
        super().free()
        if self._shadow is not None:
            self._shadow.memory.free(self._shadow)


class VitisPlatform(BasePlatform):
    """Commodity XRT platform: HBM device memory behind an XDMA IP core."""

    name = "vitis"
    # XRT kernel start + completion polling round trip: Fig 8 "XRT host".
    host_invocation_latency = units.us(80)
    kernel_invocation_latency = units.ns(80)

    def __init__(
        self,
        env: Environment,
        host_memory: Optional[Memory] = None,
        device_memory: Optional[Memory] = None,
        pcie: Optional[PcieLink] = None,
    ):
        super().__init__(env)
        self.host_memory = host_memory or host_dram(env, name="xrt.dram")
        self.device_memory = device_memory or hbm_stack(env, name="xrt.hbm")
        self.pcie = pcie or PcieLink(env, name="xrt.xdma")
        self.stagings = 0

    def allocate(self, nbytes, location=BufferLocation.DEVICE, array=None):
        return VitisBuffer(self, nbytes, location, array)

    def device_access_delay(self, buffer: BaseBuffer, nbytes: int,
                            direction: str) -> float:
        if buffer.platform is not self:
            raise PlatformError("buffer belongs to a different platform")
        if nbytes > buffer.nbytes:
            raise PlatformError(
                f"access of {nbytes}B exceeds buffer of {buffer.nbytes}B"
            )
        if (buffer.location is BufferLocation.HOST and not buffer.staged
                and direction == "read"):
            # Writes are fine: they land in the device shadow and stage_out
            # migrates them home.  Reads need the data migrated first.
            raise PlatformError(
                "partitioned memory: host buffer must be staged to device "
                "memory before the CCLO can read it (call stage_in)"
            )
        return self.device_memory.access_delay(nbytes)

    def requires_staging(self, buffer: BaseBuffer) -> bool:
        return buffer.location is BufferLocation.HOST

    def stage_in(self, buffer: BaseBuffer) -> float:
        """Host -> device migration through XDMA (before the collective)."""
        if buffer.location is BufferLocation.DEVICE:
            return 0.0
        self.stagings += 1
        read = self.host_memory.access_delay(buffer.nbytes)
        dma = self.pcie.dma_h2d_delay(buffer.nbytes)
        write = self.device_memory.access_delay(buffer.nbytes)
        buffer.staged = True
        return max(read, dma, write)

    def stage_out(self, buffer: BaseBuffer) -> float:
        """Device -> host migration through XDMA (after the collective)."""
        if buffer.location is BufferLocation.DEVICE:
            return 0.0
        self.stagings += 1
        read = self.device_memory.access_delay(buffer.nbytes)
        dma = self.pcie.dma_d2h_delay(buffer.nbytes)
        write = self.host_memory.access_delay(buffer.nbytes)
        buffer.staged = False
        return max(read, dma, write)
