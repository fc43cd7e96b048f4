"""Platform abstraction: BaseBuffer and BasePlatform.

The host CCL driver "layers the APIs on top of generic class types, such as
BaseBuffer for memory allocation and data movement between host and FPGA,
and BaseDevice for CCLO invocation.  These are specialized to individual
platforms through class inheritance" (§4.2).  Here :class:`BasePlatform`
plays the BaseDevice role as well, since invocation and data movement always
come from the same platform runtime.

Buffers carry an optional numpy array so collectives move *real* values
end-to-end; the timing side charges the owning memory's port and, when the
access crosses PCIe, the PCIe pipes.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, PlatformError
from repro.memory.model import Allocation, Memory
from repro.sim import Environment, Event


class BufferLocation(enum.Enum):
    HOST = "host"
    DEVICE = "device"


class BaseBuffer:
    """A registered communication buffer.

    Args:
        platform: owning platform.
        nbytes: buffer size.
        location: where the backing pages live.
        array: optional numpy array wrapped by this buffer (its ``nbytes``
            must match); collectives read and write it functionally.
    """

    def __init__(
        self,
        platform: "BasePlatform",
        nbytes: int,
        location: BufferLocation,
        array: Optional[np.ndarray] = None,
    ):
        if array is not None and array.nbytes != nbytes:
            raise ConfigurationError(
                f"array of {array.nbytes}B does not match buffer size {nbytes}B"
            )
        self.platform = platform
        self.nbytes = nbytes
        self.location = location
        self.array = array
        self._allocation: Optional[Allocation] = None
        self._freed = False

    @property
    def memory(self) -> Memory:
        """The physical memory backing this buffer."""
        if self._allocation is None:
            raise PlatformError("buffer has no backing allocation")
        return self._allocation.memory

    def free(self) -> None:
        if self._freed:
            raise PlatformError("double free of buffer")
        self._freed = True
        if self._allocation is not None:
            self._allocation.memory.free(self._allocation)

    def view(self, offset_bytes: int = 0,
             nbytes: Optional[int] = None) -> "BufferView":
        """A sub-range of this buffer (collectives chunk buffers this way)."""
        return BufferView(self, offset_bytes, nbytes)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.nbytes}B {self.location.value}>"
        )


class BufferView:
    """A byte range inside a :class:`BaseBuffer`.

    Firmware works exclusively in views, so chunked algorithms (ring reduce,
    recursive doubling) address sub-ranges without re-registering memory.
    The numpy side is sliced by element so functional payloads stay aligned
    with the byte range.
    """

    def __init__(self, buffer: BaseBuffer, offset_bytes: int = 0,
                 nbytes: Optional[int] = None):
        nbytes = buffer.nbytes - offset_bytes if nbytes is None else nbytes
        if offset_bytes < 0 or nbytes < 0 or offset_bytes + nbytes > buffer.nbytes:
            raise ConfigurationError(
                f"view [{offset_bytes}, {offset_bytes + nbytes}) outside "
                f"buffer of {buffer.nbytes}B"
            )
        self.buffer = buffer
        self.offset = offset_bytes
        self.nbytes = nbytes

    @property
    def array(self) -> Optional[np.ndarray]:
        """The numpy slice covered by this view (None for timing-only)."""
        whole = self.buffer.array
        if whole is None:
            return None
        itemsize = whole.itemsize
        if self.offset % itemsize or self.nbytes % itemsize:
            raise ConfigurationError(
                f"view [{self.offset}, +{self.nbytes}) not aligned to "
                f"dtype {whole.dtype} ({itemsize}B items)"
            )
        start = self.offset // itemsize
        stop = start + self.nbytes // itemsize
        flat = whole.reshape(-1)
        return flat[start:stop]

    def set_array(self, values: np.ndarray) -> None:
        """Write functional payload into the viewed range.

        Writing a whole view of an array-less buffer materializes the array
        (scratch buffers acquire their dtype from the first payload staged
        into them); partial writes into array-less buffers are timing-only.
        """
        if self.buffer.array is None:
            if self.offset == 0 and self.nbytes == self.buffer.nbytes:
                self.buffer.array = np.array(values, order="C").reshape(-1)
            return
        target = self.array
        target[...] = values.reshape(-1)

    def view(self, offset_bytes: int = 0,
             nbytes: Optional[int] = None) -> "BufferView":
        """A sub-view, relative to this view's own range."""
        nbytes = self.nbytes - offset_bytes if nbytes is None else nbytes
        return BufferView(self.buffer, self.offset + offset_bytes, nbytes)

    def __repr__(self) -> str:
        return f"<BufferView +{self.offset} {self.nbytes}B of {self.buffer!r}>"


class BasePlatform:
    """Common platform services; subclasses define memory routing/staging.

    Subclass contract:

    - :meth:`allocate` creates a platform-specific buffer;
    - :meth:`device_access_delay` routes a CCLO access to the right
      memory/PCIe pipes and returns the delay until it completes; it is
      the only way a CCLO access is charged;
    - :attr:`host_invocation_latency` / :attr:`kernel_invocation_latency`
      calibrate Figure 8;
    - :meth:`requires_staging` says whether host-resident data must be
      migrated before the CCLO can touch it (Vitis yes, Coyote no).
    """

    name = "base"
    host_invocation_latency = 0.0
    kernel_invocation_latency = 0.0

    def __init__(self, env: Environment):
        self.env = env

    # -- memory -----------------------------------------------------------

    def allocate(
        self,
        nbytes: int,
        location: BufferLocation = BufferLocation.DEVICE,
        array: Optional[np.ndarray] = None,
    ) -> BaseBuffer:
        raise NotImplementedError

    def wrap(self, array: np.ndarray,
             location: BufferLocation = BufferLocation.DEVICE) -> BaseBuffer:
        """Wrap a numpy array in a registered buffer (the paper's buffer
        class "can wrap normal C++ arrays")."""
        return self.allocate(array.nbytes, location, array=array)

    def device_access_delay(self, buffer: BaseBuffer, nbytes: int,
                            direction: str) -> float:
        """Charge a CCLO access to the memory/PCIe pipes it crosses and
        return the delay until it completes."""
        raise NotImplementedError

    def requires_staging(self, buffer: BaseBuffer) -> bool:
        return False

    def stage_in(self, buffer: BaseBuffer) -> float:
        """Migrate a host buffer into device memory; returns the delay until
        it is there (no-op by default)."""
        return 0.0

    def stage_out(self, buffer: BaseBuffer) -> float:
        """Migrate a device buffer back to host memory; returns the delay
        until it is there (no-op by default)."""
        return 0.0

    # -- invocation ---------------------------------------------------------

    def invoke_from_host(self) -> Event:
        """Cost of the host driver kicking the CCLO and reading back the ack."""
        return self.env.timeout(self.host_invocation_latency)

    def invoke_from_kernel(self) -> Event:
        """Cost of an on-fabric kernel command into the CCLO FIFO."""
        return self.env.timeout(self.kernel_invocation_latency)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
