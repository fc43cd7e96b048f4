"""CcloEngine: composition of the CCLO blocks on a platform + POE (§4.4).

"The CCLO Engine orchestrates the collective data movement through a set of
standardized CCLO interfaces.  The CCLO accepts communication requests from
the host or application kernels, communicates with the protocol offload
engine, manages buffers in FPGA memory, and manages data streams from other
kernels."

One engine instance lives on one simulated FPGA.  Host-side drivers talk to
:meth:`call`; FPGA kernels talk to the same interface through
:class:`repro.driver.streaming.KernelInterface` plus the two kernel data
channels.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import CcloError
from repro.platform.base import BasePlatform, BufferLocation
from repro.protocols.base import BasePoe, MessageHeader
from repro.protocols.rdma import RdmaPoe
from repro.sim import Channel, Environment, Event
from repro.cclo.config_mem import CcloConfig, CommunicatorConfig, ConfigMemory
from repro.cclo.dmp import DataMovementProcessor
from repro.cclo.microcontroller import (
    CollectiveArgs,
    FirmwareRegistry,
    MicroController,
)
from repro.cclo.noc import NoC
from repro.cclo.plugins import PluginRegistry
from repro.cclo.rbm import RxBufManager
from repro.cclo.txrx import RxSystem, TxSystem


_SELECTOR = None


def _default_selector():
    """Shared stateless selection policy (one instance per process)."""
    global _SELECTOR
    if _SELECTOR is None:
        from repro.collectives import AlgorithmSelector

        _SELECTOR = AlgorithmSelector()
    return _SELECTOR


class CcloEngine:
    """One collective offload engine instance."""

    def __init__(
        self,
        env: Environment,
        platform: BasePlatform,
        poe: BasePoe,
        config: Optional[CcloConfig] = None,
        name: str = "cclo",
    ):
        self.env = env
        self.platform = platform
        self.poe = poe
        self.name = name
        self.config_mem = ConfigMemory(config)
        cfg = self.config_mem.config

        self.plugins = PluginRegistry(cfg.plugins)
        self.noc = NoC(env, cfg, name=f"{name}.noc")
        for port in ("memory", "plugin", "tx", "rx", "kernel"):
            self.noc.register_port(port)

        device_memory = getattr(platform, "device_memory", None)
        if device_memory is None:
            device_memory = platform.memory  # SimPlatform's flat memory
        self.device_memory = device_memory
        self.rbm = RxBufManager(env, cfg, device_memory, name=f"{name}.rbm")
        self.tx = TxSystem(env, cfg, poe, name=f"{name}.tx")
        self.rx = RxSystem(env, cfg, self.rbm, name=f"{name}.rx")
        poe.on_message(self.rx.handle,
                       latency=cfg.cycles(cfg.txrx_fsm_cycles))
        if isinstance(poe, RdmaPoe):
            poe.set_memory_writer(self._rndz_memory_write)
            poe.set_segment_writer(self._rndz_segment_landing)

        self.dmp = DataMovementProcessor(env, cfg, self, name=f"{name}.dmp")

        # Default firmware + selection policy (Table 1); users may register
        # additional collectives against ``self.uc.registry`` at runtime.
        # The stock table and the (stateless) selector are process-wide
        # shared objects; each node's registry is a thin overlay so runtime
        # registrations stay per-engine.
        from repro.collectives.registry import default_firmware_registry

        self.selector = _default_selector()
        registry = FirmwareRegistry(parent=default_firmware_registry())
        self.uc = MicroController(
            env, self.config_mem, self, registry, name=f"{name}.uc"
        )
        self.rx.uc_charge = self.uc.charge
        self.rx.uc_pipe = self.uc._uc_time

        #: kernel -> CCLO data stream (items: ``(nbytes, data)``)
        self.kernel_data_in = Channel(env, capacity=64, name=f"{name}.k_in")
        #: CCLO -> kernel data stream
        self.kernel_data_out = Channel(env, capacity=64, name=f"{name}.k_out")

        self._rndz_targets: Dict[int, dict] = {}
        self._target_ids = itertools.count(1)
        #: the cluster's :class:`repro.obs.spans.SpanTracer`, or None while
        #: untraced; hot paths test it directly, so the disabled cost is one
        #: None check.
        self.tracer = None

    # -- tracing ------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Record this node's spans into *tracer* (a
        :class:`repro.obs.spans.SpanTracer`; ``None`` detaches): the uC, DMP,
        RBM, Rx path and POE emit structured phase and wait spans carrying
        per-collective op ids."""
        self.tracer = tracer
        # Sub-blocks with their own blocking sites get the raw hook; they
        # carry node-qualified component names already.
        span_complete = None if tracer is None else tracer.span_complete
        self.rbm._span_complete = span_complete
        self.rx._span_complete = span_complete
        self.rx._trace_node = self.name
        bind = getattr(self.poe, "bind_tracer", None)
        if bind is not None:
            bind(tracer, self.name)

    def next_op_id(self) -> int:
        """Allocate a collective op id, or -1 while untraced."""
        if self.tracer is None:
            return -1
        return self.tracer.next_op_id()

    def span_begin(self, component: str, name: str, phase: str = "other",
                   op_id: int = -1, parent: int = -1, **detail) -> int:
        """Open a span on this node's *component* track; -1 when untraced."""
        if self.tracer is None:
            return -1
        return self.tracer.span_begin(self.env.now,
                                      f"{self.name}.{component}", name,
                                      phase=phase, op_id=op_id,
                                      parent=parent, **detail)

    def span_end(self, sid: int, **detail) -> None:
        if sid >= 0 and self.tracer is not None:
            self.tracer.span_end(self.env.now, sid, **detail)

    def span_complete(self, component: str, name: str, t0: float, t1: float,
                      phase: str = "other", op_id: int = -1,
                      **detail) -> None:
        if self.tracer is not None:
            self.tracer.span_complete(f"{self.name}.{component}", name, t0,
                                      t1, phase=phase, op_id=op_id, **detail)

    def register_metrics(self, registry) -> None:
        """Register every sub-block's counters as callback gauges."""
        self.uc.register_metrics(registry, node=self.name)
        self.dmp.register_metrics(registry, node=self.name)
        self.tx.register_metrics(registry, node=self.name)
        self.rx.register_metrics(registry, node=self.name)
        self.rbm.register_metrics(registry, node=self.name)
        poe_register = getattr(self.poe, "register_metrics", None)
        if poe_register is not None:
            poe_register(registry, node=self.name)

    # -- identity -----------------------------------------------------------

    @property
    def address(self) -> int:
        """Fabric address of this engine's network port."""
        return self.poe.address

    @property
    def config(self) -> CcloConfig:
        return self.config_mem.config

    # -- configuration ---------------------------------------------------------

    def add_communicator(self, comm: CommunicatorConfig) -> None:
        self.config_mem.add_communicator(comm)

    # -- command interface ----------------------------------------------------------

    def call(self, args: CollectiveArgs) -> Event:
        """Submit a command (from host driver or kernel adapter)."""
        return self.uc.call(args)

    # -- rendezvous target registry ---------------------------------------------------

    def register_rndz_target(self, dest: Any, nbytes: int) -> int:
        """Pin a receive destination for an inbound one-sided WRITE.

        ``dest`` is a BufferView, or ``None`` for the kernel stream (the
        compile-time "streaming into the application kernel" datapath).
        """
        target_id = next(self._target_ids)
        self._rndz_targets[target_id] = {
            "view": dest,
            "nbytes": nbytes,
            # the event a receive waits on, created only when it claims the
            # target before the WRITE has landed (see :meth:`rndz_written`)
            "written": None,
            "landed": False,
            # completion time of the latest cut-through segment landing
            "landed_at": None,
        }
        return target_id

    def claim_rndz_target(self, target_id: int) -> dict:
        try:
            return self._rndz_targets.pop(target_id)
        except KeyError:
            raise CcloError(
                f"{self.name}: rendezvous target {target_id} unknown or "
                "already claimed"
            ) from None

    def rndz_written(self, entry: dict) -> Optional[Event]:
        """``None`` once a claimed target's WRITE has landed; else the event
        that fires when it does."""
        if entry["landed"]:
            return None
        written = entry["written"] = Event(self.env)
        return written

    def _rndz_memory_write(self, header: MessageHeader, data: Any) -> None:
        """Passive-side WRITE: data bypasses the CCLO into memory/stream."""
        descriptor = header.meta
        entry = self._rndz_targets.get(descriptor.target_id)
        if entry is None:
            raise CcloError(
                f"{self.name}: WRITE targets unknown descriptor {descriptor}"
            )
        nbytes = header.nbytes
        view = entry["view"]
        if view is None:
            self.env.process(self._rndz_stream_proc(entry, nbytes, data),
                             name=f"{self.name}.rndz_write")
            return
        # Segments landed as they arrived; otherwise the whole WRITE lands
        # now.  A callback at the absolute completion time fires at exactly
        # that float (a relative delay could round it); landings that are
        # done already complete the WRITE here, with no kernel turn.
        env = self.env
        landed_at = entry["landed_at"]
        if landed_at is None:
            buffer = view.buffer
            landed_at = env._now + buffer.platform.device_access_delay(
                buffer, nbytes, "write")
        if landed_at > env._now:
            env.schedule_callback_at(landed_at, self._rndz_landed, entry,
                                     nbytes, data)
        else:
            self._rndz_landed(entry, nbytes, data)

    def _rndz_segment_landing(self, header: MessageHeader, nbytes: int) -> None:
        """Cut-through landing: charge memory per WRITE segment on arrival.

        The memory pipes are charged now, but no event is created: the
        drain only waits for the last landing, so only the latest
        completion time is kept.
        """
        descriptor = header.meta
        entry = self._rndz_targets.get(descriptor.target_id)
        if entry is None or entry["view"] is None:
            return
        buffer = entry["view"].buffer
        landed_at = self.env._now + buffer.platform.device_access_delay(
            buffer, nbytes, "write")
        last = entry["landed_at"]
        if last is None or landed_at > last:
            entry["landed_at"] = landed_at

    def _rndz_stream_proc(self, entry: dict, nbytes: int, data: Any):
        # Stream-destined WRITE: route to the kernel stream port.
        yield self.noc.route_delay("rx", "kernel", nbytes)
        yield self.kernel_data_out.put((nbytes, data))
        self._rndz_landed(entry, nbytes, None)

    def _rndz_landed(self, entry: dict, nbytes: int, data: Any) -> None:
        if data is not None:
            entry["view"].set_array(np.asarray(data))
        entry["landed"] = True
        written = entry["written"]
        if written is not None:
            written.succeed(nbytes)

    # -- scratch memory (temporaries for rendezvous reductions) -------------------------

    def scratch_alloc(self, nbytes: int):
        """Allocate a temporary device buffer for intermediate data."""
        return self.platform.allocate(nbytes, BufferLocation.DEVICE)

    def scratch_free(self, buffer) -> None:
        buffer.free()

    def __repr__(self) -> str:
        return f"<CcloEngine {self.name!r} addr={self.address}>"
