"""Data Movement Processor: 3-slot microcode execution (§4.4.1).

"The DMP accepts and executes microcode generated by the uC according to
collective algorithms.  Each microcode instruction has three slots: two
operand slots and one result slot.  Each microcode slot describes a data
movement behavior to be executed by the data plane.  Operand slots describe
data coming into the CCLO, while the result slot describes data movement out
of the CCLO."

The DMP is pipelined: several microcodes execute concurrently (bounded by
``dmp_parallel_slots``), each orchestrating memory ports, the RBM, kernel
streams, the plugin and the Tx system, and acknowledging the uC on
completion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.errors import CcloError
from repro.protocols.base import DeferredPayload
from repro.sim import Environment, Event, Resource, all_of
from repro.sim.resources import TokenBucket
from repro.cclo.config_mem import CcloConfig
from repro.cclo.messages import SIGNATURE_BYTES, BufferDescriptor, Signature


class SlotKind(enum.Enum):
    NONE = "none"
    MEMORY = "memory"        # operand: read buffer; result: write buffer
    RX_EAGER = "rx_eager"    # operand: match + fetch an eager Rx buffer
    STREAM = "stream"        # operand: kernel Tx stream; result: kernel Rx stream
    IMMEDIATE = "immediate"  # operand: data already inside the CCLO
    TX_EAGER = "tx_eager"    # result: eager message out via Tx system
    TX_WRITE = "tx_write"    # result: rendezvous WRITE out via Tx system


@dataclass
class Slot:
    """One microcode slot; interpretation depends on ``kind``."""

    kind: SlotKind = SlotKind.NONE
    view: Any = None                   # BufferView for MEMORY
    src_rank: int = -1                 # for RX_EAGER matching
    tag: int = 0
    comm_id: int = 0
    signature: Optional[Signature] = None        # for TX_* results
    dest_addr: int = -1                           # for TX_* results
    descriptor: Optional[BufferDescriptor] = None  # for TX_WRITE
    data: Any = None                   # for IMMEDIATE

    @classmethod
    def none(cls) -> "Slot":
        return cls()

    @classmethod
    def memory(cls, view) -> "Slot":
        return cls(kind=SlotKind.MEMORY, view=view)

    @classmethod
    def rx_eager(cls, comm_id: int, src_rank: int, tag: int) -> "Slot":
        return cls(kind=SlotKind.RX_EAGER, comm_id=comm_id,
                   src_rank=src_rank, tag=tag)

    @classmethod
    def stream(cls) -> "Slot":
        return cls(kind=SlotKind.STREAM)

    @classmethod
    def immediate(cls, data) -> "Slot":
        return cls(kind=SlotKind.IMMEDIATE, data=data)

    @classmethod
    def tx_eager(cls, signature: Signature, dest_addr: int) -> "Slot":
        return cls(kind=SlotKind.TX_EAGER, signature=signature,
                   dest_addr=dest_addr)

    @classmethod
    def tx_write(cls, signature: Signature, dest_addr: int,
                 descriptor: BufferDescriptor) -> "Slot":
        return cls(kind=SlotKind.TX_WRITE, signature=signature,
                   dest_addr=dest_addr, descriptor=descriptor)


@dataclass
class Microcode:
    """One DMP instruction: two operand slots and one result slot."""

    nbytes: int
    op0: Slot
    op1: Slot = field(default_factory=Slot.none)
    res: Slot = field(default_factory=Slot.none)
    func: Optional[str] = None  # binary plugin when op1 is present
    #: observability correlation id of the issuing collective (-1 = untraced)
    op_id: int = -1

    def __post_init__(self):
        if self.nbytes < 0:
            raise CcloError(f"negative microcode size: {self.nbytes}")
        if self.op1.kind is not SlotKind.NONE and self.func is None:
            raise CcloError("two operand slots require a plugin function")


class DataMovementProcessor:
    """Executes microcode against the engine's data-plane blocks."""

    def __init__(self, env: Environment, config: CcloConfig, engine,
                 name: str = "dmp"):
        self.env = env
        self.config = config
        self.engine = engine  # CcloEngine (late-bound composition)
        self.name = name
        self._slots = Resource(env, config.dmp_parallel_slots,
                               name=f"{name}.slots")
        self.instructions_executed = 0

    def issue(self, mc: Microcode) -> Event:
        """Queue a microcode; the event fires at instruction completion."""
        return self.env.process(self._execute(mc), name=f"{self.name}.mc")

    # -- operand gating ---------------------------------------------------------

    def _gate(self, slot: Slot, nbytes: int, op_id: int = -1):
        """Wait until an operand's *data* is available at the CCLO boundary.

        Returns ``(data, timing_events)``: the events charge the pipe/port
        occupancy of moving the operand and run *concurrently* with the
        other stages — the datapath is cut-through, so fetch, plugin, NoC
        and emit all advance in lockstep rather than store-and-forward.
        """
        engine = self.engine
        if slot.kind is SlotKind.MEMORY:
            data = slot.view.array
            # Snapshot the operand: another in-flight instruction may
            # retire into the same buffer before this one applies its
            # plugin, and gating semantics say the operand was read here.
            data = None if data is None else data.copy()
            return data, [slot.view.device_read(nbytes)]
        if slot.kind is SlotKind.RX_EAGER:
            t_wait = self.env.now
            record = yield engine.rbm.await_message(
                slot.comm_id, slot.src_rank, slot.tag
            )
            if engine._span_complete is not None and self.env.now > t_wait:
                engine.span_complete(
                    "dmp", "wait:rx_match", t_wait, self.env.now,
                    phase="wait", op_id=op_id, cause="rx_match",
                    src_rank=slot.src_rank, tag=slot.tag)
            timing = engine.rbm.read_payload(record)
            engine.rbm.release(record)
            return record.data, [timing]
        if slot.kind is SlotKind.STREAM:
            parts = []
            got = 0
            while got < nbytes:
                item_bytes, item_data = yield engine.kernel_data_in.get()
                got += item_bytes
                if item_data is not None:
                    parts.append(np.asarray(item_data).reshape(-1))
            if not parts:
                return None, []
            data = parts[0] if len(parts) == 1 else np.concatenate(parts)
            return data, []
        if slot.kind is SlotKind.IMMEDIATE:
            return slot.data, []
        raise CcloError(f"slot kind {slot.kind} is not an operand")

    # -- result emit -----------------------------------------------------------

    def _emit_events(self, slot: Slot, nbytes: int, data) -> list:
        """Launch the result-side movement; returns its timing events.

        Functional effects on memory views are applied by the caller once
        the instruction completes.
        """
        engine = self.engine
        if slot.kind is SlotKind.MEMORY:
            return [slot.view.device_write(nbytes)]
        if slot.kind is SlotKind.STREAM:
            return [self.env.process(
                self._put_stream(nbytes, data), name=f"{self.name}.strm")]
        if slot.kind is SlotKind.TX_EAGER:
            return [engine.tx.send_eager(slot.signature, slot.dest_addr,
                                         data)]
        if slot.kind is SlotKind.TX_WRITE:
            return [engine.tx.send_write(
                slot.signature, slot.dest_addr, slot.descriptor, data)]
        if slot.kind is SlotKind.NONE:
            return []
        raise CcloError(f"slot kind {slot.kind} is not a result")

    def _put_stream(self, nbytes: int, data):
        yield self.engine.kernel_data_out.put((nbytes, data))

    # -- cut-through streaming send ------------------------------------------

    def _execute_streaming_tx(self, mc: Microcode):
        """Kernel-stream -> network without buffering: the POE transmits
        each wire segment as soon as the kernel has pushed enough bytes,
        overlapping data production with transmission (Listing 2's entire
        reason to exist)."""
        engine = self.engine
        pace = TokenBucket(
            self.env, mc.nbytes + SIGNATURE_BYTES, initial=0,
            name=f"{self.name}.pace",
        )
        payload = DeferredPayload()
        noc_ev = engine.noc.route(
            self._NOC_PORT[mc.op0.kind], self._NOC_PORT[mc.res.kind],
            mc.nbytes,
        )
        if mc.res.kind is SlotKind.TX_EAGER:
            emit_ev = engine.tx.send_eager(
                mc.res.signature, mc.res.dest_addr, payload, pace=pace)
        else:
            emit_ev = engine.tx.send_write(
                mc.res.signature, mc.res.dest_addr, mc.res.descriptor,
                payload, pace=pace)
        pace.give(SIGNATURE_BYTES)  # the header needs no kernel data
        parts = []
        got = 0
        while got < mc.nbytes:
            item_bytes, item_data = yield engine.kernel_data_in.get()
            got += item_bytes
            pace.give(item_bytes)
            if item_data is not None:
                parts.append(np.asarray(item_data).reshape(-1))
        if parts:
            payload.set(parts[0] if len(parts) == 1
                        else np.concatenate(parts))
        else:
            payload.set(None)
        yield all_of(self.env, [noc_ev, emit_ev])
        self.instructions_executed += 1
        return payload.get()

    # -- instruction body ---------------------------------------------------------

    _NOC_PORT = {
        SlotKind.MEMORY: "memory",
        SlotKind.RX_EAGER: "rx",
        SlotKind.STREAM: "kernel",
        SlotKind.IMMEDIATE: "plugin",
        SlotKind.TX_EAGER: "tx",
        SlotKind.TX_WRITE: "tx",
        SlotKind.NONE: "plugin",
    }

    def _execute(self, mc: Microcode):
        t_q = self.env.now
        yield self._slots.acquire()
        self.engine.trace("dmp", "issue", op0=mc.op0.kind.value,
                          res=mc.res.kind.value, nbytes=mc.nbytes)
        sid = -1
        if self.engine._span_begin is not None:
            if self.env.now > t_q:
                self.engine.span_complete(
                    "dmp", "wait:dmp_slot", t_q, self.env.now,
                    phase="wait", op_id=mc.op_id, cause="dmp_slot")
            sid = self.engine.span_begin(
                "dmp", "instr", phase="dmp", op_id=mc.op_id,
                op0=mc.op0.kind.value, res=mc.res.kind.value,
                nbytes=mc.nbytes)
        try:
            yield self.config.cycles(self.config.dmp_pipeline_cycles)
            if (mc.op0.kind is SlotKind.STREAM
                    and mc.op1.kind is SlotKind.NONE
                    and mc.func is None
                    and mc.nbytes > 0
                    and mc.res.kind in (SlotKind.TX_EAGER,
                                        SlotKind.TX_WRITE)):
                result = yield from self._execute_streaming_tx(mc)
                return result
            # Gate on operand availability (parallel slot hardware).
            gate0 = self.env.process(
                self._gate(mc.op0, mc.nbytes, mc.op_id),
                name=f"{self.name}.op0"
            )
            timing = []
            if mc.op1.kind is not SlotKind.NONE:
                gate1 = self.env.process(
                    self._gate(mc.op1, mc.nbytes, mc.op_id),
                    name=f"{self.name}.op1"
                )
                yield all_of(self.env, [gate0, gate1])
                data0, t0 = gate0.value
                data1, t1 = gate1.value
                timing += t0 + t1
                data = self.engine.plugins.apply_binary(mc.func, data0, data1)
            else:
                data, t0 = yield gate0
                timing += t0
                if mc.func is not None:
                    data = self.engine.plugins.apply_unary(mc.func, data)
            # Cut-through execution: operand movement, the crossbar pass and
            # the result movement all stream concurrently at 64 B/cycle; the
            # instruction retires when the slowest stage drains.
            timing.append(self.engine.noc.route(
                self._NOC_PORT[mc.op0.kind], self._NOC_PORT[mc.res.kind],
                mc.nbytes,
            ))
            timing += self._emit_events(mc.res, mc.nbytes, data)
            yield all_of(self.env, timing)
            if mc.res.kind is SlotKind.MEMORY and data is not None:
                mc.res.view.set_array(data)
            self.instructions_executed += 1
            return data
        finally:
            self.engine.trace("dmp", "retire", nbytes=mc.nbytes)
            self.engine.span_end(sid)
            self._slots.release()

    def register_metrics(self, registry, **labels) -> None:
        """Callback gauges over the DMP's live counters."""
        registry.gauge("dmp_instructions_executed",
                       fn=lambda: float(self.instructions_executed), **labels)
        registry.gauge("dmp_slots_in_use",
                       fn=lambda: float(self._slots.in_use), **labels)
        registry.gauge("dmp_slot_queue_length",
                       fn=lambda: float(self._slots.queue_length), **labels)
