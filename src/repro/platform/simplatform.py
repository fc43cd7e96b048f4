"""The functional-simulation platform (§4.2 "Simulation Platform").

The paper ships a ZMQ-based simulation platform so applications can be
debugged without hardware: "a stand-alone simulated FPGA node is compiled to
include memory and one ACCL+ CCLO Engine" and the host driver connects to it
through dedicated buffer and device abstractions.

In this reproduction the *whole build* is a simulator already, so the
SimPlatform's job is the same as the paper's: a frictionless functional
target — infinite-bandwidth memory, zero invocation cost — against which
collective logic can be validated independently of timing artifacts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PlatformError
from repro.memory.model import Memory
from repro.platform.base import BaseBuffer, BasePlatform, BufferLocation
from repro.sim import Environment
from repro import units


class SimBuffer(BaseBuffer):
    """Buffer in the simulated node's flat memory."""

    def __init__(self, platform: "SimPlatform", nbytes: int,
                 location: BufferLocation, array: Optional[np.ndarray] = None):
        super().__init__(platform, nbytes, location, array)
        self._allocation = platform.memory.allocate(nbytes)


class SimPlatform(BasePlatform):
    """Functional target: correct semantics, negligible timing."""

    name = "sim"
    host_invocation_latency = 0.0
    kernel_invocation_latency = 0.0

    def __init__(self, env: Environment, capacity: int = 64 * units.GIB):
        super().__init__(env)
        self.memory = Memory(
            env, capacity=capacity, bandwidth=1e15, name="sim.mem"
        )

    def allocate(self, nbytes, location=BufferLocation.DEVICE, array=None):
        return SimBuffer(self, nbytes, location, array)

    def device_access_delay(self, buffer: BaseBuffer, nbytes: int,
                            direction: str) -> float:
        if buffer.platform is not self:
            raise PlatformError("buffer belongs to a different platform")
        if nbytes > buffer.nbytes:
            raise PlatformError(
                f"access of {nbytes}B exceeds buffer of {buffer.nbytes}B"
            )
        return 0.0
