"""The host CCL driver: MPI-like collective API (Listing 1).

One :class:`Accl` instance binds to one node's platform + CCLO engine and
exposes ``send/recv/bcast/reduce/allreduce/gather/allgather/scatter/
alltoall/barrier``.  Every call:

1. charges the platform's host invocation latency (Fig 8);
2. stages host buffers through XDMA on partitioned-memory platforms
   (Vitis), before and after the collective — the paper's *staging* penalty;
3. submits the command to the uC and returns a :class:`CclRequest`.

Buffers passed to collectives are :class:`BaseBuffer`/views created through
:meth:`Accl.alloc` / :meth:`Accl.wrap`; raw numpy arrays are accepted and
wrapped transparently (host-located), matching the paper's "can wrap normal
C++ arrays" convenience.
"""

from __future__ import annotations

from typing import Any, List, Optional, Union

import numpy as np

from repro.errors import PlatformError
from repro.cclo.engine import CcloEngine
from repro.cclo.microcontroller import CollectiveArgs
from repro.driver.communicator import Communicator
from repro.driver.request import CclRequest
from repro.platform.base import (
    BaseBuffer,
    BasePlatform,
    BufferLocation,
    BufferView,
)
from repro.sim import Environment

BufferLike = Union[BaseBuffer, BufferView, np.ndarray, None]


class Accl:
    """Host driver bound to one FPGA node."""

    def __init__(self, engine: CcloEngine, platform: Optional[BasePlatform] = None):
        self.engine = engine
        self.platform = platform or engine.platform
        self.env: Environment = engine.env
        self._communicators = {}
        for comm_id, config in engine.config_mem.communicators.items():
            self._communicators[comm_id] = Communicator(config)

    # -- communicators -------------------------------------------------------

    def communicator(self, comm_id: int = 0) -> Communicator:
        return self._communicators[comm_id]

    @property
    def rank(self) -> int:
        return self.communicator(0).rank

    @property
    def size(self) -> int:
        return self.communicator(0).size

    # -- buffers ------------------------------------------------------------------

    def alloc(self, nbytes: int,
              location: BufferLocation = BufferLocation.DEVICE) -> BaseBuffer:
        """Allocate a registered communication buffer."""
        return self.platform.allocate(nbytes, location)

    def wrap(self, array: np.ndarray,
             location: BufferLocation = BufferLocation.HOST) -> BaseBuffer:
        """Register an existing array (defaults to host memory: H2H style)."""
        return self.platform.wrap(np.ascontiguousarray(array), location)

    def _as_view(self, buf: BufferLike) -> Optional[BufferView]:
        if buf is None:
            return None
        if isinstance(buf, BufferView):
            return buf
        if isinstance(buf, BaseBuffer):
            return buf.view()
        if isinstance(buf, np.ndarray):
            return self.wrap(buf).view()
        raise PlatformError(f"cannot use {type(buf).__name__} as a buffer")

    # -- the collective API -----------------------------------------------------------

    def send(self, sbuf: BufferLike, count_bytes: int, dst: int,
             tag: int = 0, comm_id: int = 0, from_stream: bool = False,
             sync: bool = False, codec: Optional[str] = None) -> Any:
        args = CollectiveArgs(
            opcode="send", comm_id=comm_id, nbytes=count_bytes, peer=dst,
            tag=tag, sbuf=self._as_view(sbuf), from_stream=from_stream,
            extra={"codec": codec} if codec else {},
        )
        return self._submit(args, stage=[args.sbuf], sync=sync)

    def recv(self, rbuf: BufferLike, count_bytes: int, src: int,
             tag: int = 0, comm_id: int = 0, to_stream: bool = False,
             sync: bool = False, codec: Optional[str] = None) -> Any:
        args = CollectiveArgs(
            opcode="recv", comm_id=comm_id, nbytes=count_bytes, peer=src,
            tag=tag, rbuf=self._as_view(rbuf), to_stream=to_stream,
            extra={"codec": codec} if codec else {},
        )
        return self._submit(args, unstage=[args.rbuf], sync=sync)

    def bcast(self, buf: BufferLike, count_bytes: int, root: int,
              comm_id: int = 0, sync: bool = False,
              algorithm: Optional[str] = None,
              protocol: Optional[str] = None) -> Any:
        comm = self.communicator(comm_id)
        view = self._as_view(buf)
        args = CollectiveArgs(
            opcode="bcast", comm_id=comm_id, nbytes=count_bytes, root=root,
            tag=comm.next_tag(), rbuf=view, algorithm=algorithm,
            protocol=protocol,
        )
        stage = [view] if comm.rank == root else []
        unstage = [] if comm.rank == root else [view]
        return self._submit(args, stage=stage, unstage=unstage, sync=sync)

    def reduce(self, sbuf: BufferLike, rbuf: BufferLike, count_bytes: int,
               root: int, func: str = "sum", comm_id: int = 0,
               sync: bool = False, algorithm: Optional[str] = None,
               protocol: Optional[str] = None,
               from_stream: bool = False, to_stream: bool = False) -> Any:
        comm = self.communicator(comm_id)
        args = CollectiveArgs(
            opcode="reduce", comm_id=comm_id, nbytes=count_bytes, root=root,
            tag=comm.next_tag(), func=func, sbuf=self._as_view(sbuf),
            rbuf=self._as_view(rbuf), algorithm=algorithm, protocol=protocol,
            from_stream=from_stream, to_stream=to_stream,
        )
        unstage = [args.rbuf] if comm.rank == root else []
        return self._submit(args, stage=[args.sbuf], unstage=unstage,
                            sync=sync)

    def allreduce(self, sbuf: BufferLike, rbuf: BufferLike, count_bytes: int,
                  func: str = "sum", comm_id: int = 0, sync: bool = False,
                  algorithm: Optional[str] = None,
                  protocol: Optional[str] = None) -> Any:
        comm = self.communicator(comm_id)
        args = CollectiveArgs(
            opcode="allreduce", comm_id=comm_id, nbytes=count_bytes,
            tag=comm.next_tag(), func=func, sbuf=self._as_view(sbuf),
            rbuf=self._as_view(rbuf), algorithm=algorithm, protocol=protocol,
        )
        return self._submit(args, stage=[args.sbuf], unstage=[args.rbuf],
                            sync=sync)

    def gather(self, sbuf: BufferLike, rbuf: BufferLike, count_bytes: int,
               root: int, comm_id: int = 0, sync: bool = False,
               algorithm: Optional[str] = None,
               protocol: Optional[str] = None) -> Any:
        comm = self.communicator(comm_id)
        args = CollectiveArgs(
            opcode="gather", comm_id=comm_id, nbytes=count_bytes, root=root,
            tag=comm.next_tag(), sbuf=self._as_view(sbuf),
            rbuf=self._as_view(rbuf), algorithm=algorithm, protocol=protocol,
        )
        unstage = [args.rbuf] if comm.rank == root else []
        return self._submit(args, stage=[args.sbuf], unstage=unstage,
                            sync=sync)

    def allgather(self, sbuf: BufferLike, rbuf: BufferLike, count_bytes: int,
                  comm_id: int = 0, sync: bool = False,
                  protocol: Optional[str] = None) -> Any:
        comm = self.communicator(comm_id)
        args = CollectiveArgs(
            opcode="allgather", comm_id=comm_id, nbytes=count_bytes,
            tag=comm.next_tag(), sbuf=self._as_view(sbuf),
            rbuf=self._as_view(rbuf), protocol=protocol,
        )
        return self._submit(args, stage=[args.sbuf], unstage=[args.rbuf],
                            sync=sync)

    def scatter(self, sbuf: BufferLike, rbuf: BufferLike, count_bytes: int,
                root: int, comm_id: int = 0, sync: bool = False,
                algorithm: Optional[str] = None,
                protocol: Optional[str] = None) -> Any:
        comm = self.communicator(comm_id)
        args = CollectiveArgs(
            opcode="scatter", comm_id=comm_id, nbytes=count_bytes, root=root,
            tag=comm.next_tag(), sbuf=self._as_view(sbuf),
            rbuf=self._as_view(rbuf), algorithm=algorithm, protocol=protocol,
        )
        stage = [args.sbuf] if comm.rank == root else []
        return self._submit(args, stage=stage, unstage=[args.rbuf],
                            sync=sync)

    def alltoall(self, sbuf: BufferLike, rbuf: BufferLike, count_bytes: int,
                 comm_id: int = 0, sync: bool = False,
                 protocol: Optional[str] = None) -> Any:
        comm = self.communicator(comm_id)
        args = CollectiveArgs(
            opcode="alltoall", comm_id=comm_id, nbytes=count_bytes,
            tag=comm.next_tag(), sbuf=self._as_view(sbuf),
            rbuf=self._as_view(rbuf), protocol=protocol,
        )
        return self._submit(args, stage=[args.sbuf], unstage=[args.rbuf],
                            sync=sync)

    def barrier(self, comm_id: int = 0, sync: bool = True) -> Any:
        comm = self.communicator(comm_id)
        args = CollectiveArgs(
            opcode="barrier", comm_id=comm_id, tag=comm.next_tag()
        )
        return self._submit(args, sync=sync)

    def nop(self, sync: bool = False) -> Any:
        """Invoke the CCLO with a no-op (the Fig 8 microbenchmark)."""
        return self._submit(CollectiveArgs(opcode="nop"), sync=sync)

    # -- host-side streaming (§4.1: "the host can also call streaming
    # collectives via the host-side CCL driver") -----------------------------

    def push_stream(self, chunk: np.ndarray) -> Any:
        """Feed one chunk into the CCLO's kernel-side data stream.

        Pair with a ``from_stream=True`` collective.  Returns a CclRequest
        that completes once the chunk crosses PCIe and enters the stream.
        """
        chunk = np.ascontiguousarray(chunk)

        def proc():
            # Host data must cross PCIe before it can enter the fabric
            # stream; on Coyote this is a unified-memory read, on XRT an
            # explicit XDMA hop.
            pcie = getattr(self.platform, "pcie", None)
            if pcie is not None:
                yield pcie.dma_h2d_delay(chunk.nbytes)
            yield self.engine.kernel_data_in.put((chunk.nbytes, chunk))

        return CclRequest(
            self.env, self.env.process(proc(), name="accl.push"), "push")

    def pull_stream(self) -> Any:
        """Take the next chunk from the CCLO's outbound stream.

        Returns a CclRequest whose value is ``(nbytes, data)``.
        """

        def proc():
            nbytes, data = yield self.engine.kernel_data_out.get()
            pcie = getattr(self.platform, "pcie", None)
            if pcie is not None:
                yield pcie.dma_d2h_delay(nbytes)
            return nbytes, data

        return CclRequest(
            self.env, self.env.process(proc(), name="accl.pull"), "pull")

    # -- submission machinery ----------------------------------------------------------

    def _submit(self, args: CollectiveArgs, stage: list = (),
                unstage: list = (), sync: bool = False) -> Any:
        request = CclRequest(
            self.env,
            self.env.process(
                self._invoke(args, list(stage), list(unstage)),
                name=f"accl{self.rank}.{args.opcode}",
            ),
            args.opcode,
        )
        if sync:
            return request.wait()
        return request

    def _pcie_wait(self, args: CollectiveArgs, t0: float, step: str) -> None:
        """Record host<->device time (MMIO/XDMA) as a ``wait:pcie`` span."""
        tracer = self.engine.tracer
        now = self.env.now
        if tracer is not None and args.op_id >= 0 and now > t0:
            tracer.span_complete(f"{self.engine.name}.driver", "wait:pcie",
                                 t0, now, phase="wait", op_id=args.op_id,
                                 cause="pcie", step=step)

    def _invoke(self, args: CollectiveArgs, stage: list, unstage: list):
        # Observability: allocate the collective's op id and open its root
        # span; every uC/DMP/POE/wire span downstream links back to it.
        root_sid = -1
        if self.engine.tracer is not None:
            args.op_id = self.engine.next_op_id()
            root_sid = self.engine.span_begin(
                "driver", f"collective:{args.opcode}", phase="collective",
                op_id=args.op_id, nbytes=args.nbytes, rank=self.rank)
        try:
            # Host -> CCLO invocation cost (MMIO doorbell + ack).
            t_mark = self.env.now
            yield self.platform.invoke_from_host()
            self._pcie_wait(args, t_mark, "invoke")
            # Partitioned memory: migrate host inputs to device memory first.
            for view in stage:
                if view is not None and self.platform.requires_staging(view.buffer):
                    t_mark = self.env.now
                    yield self.platform.stage_in(view.buffer)
                    self._pcie_wait(args, t_mark, "stage_in")
            yield self.engine.call(args)
            # ...and migrate results back afterwards.
            for view in unstage:
                if view is not None and self.platform.requires_staging(view.buffer):
                    t_mark = self.env.now
                    yield self.platform.stage_out(view.buffer)
                    self._pcie_wait(args, t_mark, "stage_out")
        finally:
            self.engine.span_end(root_sid)
        return args.opcode


def attach_drivers(cluster) -> List[Accl]:
    """One host driver per node of a built cluster."""
    return [Accl(node.engine, node.platform) for node in cluster.nodes]
