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
from repro.sim import Environment, Event, Resource
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
        """Run a microcode in its own process, for firmware that overlaps
        instructions; the event fires at instruction completion."""
        return self.env.process(self.execute(mc), name=f"{self.name}.mc")

    # -- operands ---------------------------------------------------------------

    def _charge_memory(self, view, nbytes: int, direction: str) -> float:
        """Charge a memory slot's access; returns its completion time."""
        buffer = view.buffer
        return self.env._now + buffer.platform.device_access_delay(
            buffer, nbytes, direction)

    def _rx_eager(self, slot: Slot, op_id: int):
        """Match an eager message and charge the read that moves it out of
        the Rx pool; returns ``(data, completion_time)``."""
        engine = self.engine
        env = self.env
        t_wait = env.now
        record = yield engine.rbm.await_message(
            slot.comm_id, slot.src_rank, slot.tag
        )
        if engine.tracer is not None and env.now > t_wait:
            engine.span_complete(
                "dmp", "wait:rx_match", t_wait, env.now,
                phase="wait", op_id=op_id, cause="rx_match",
                src_rank=slot.src_rank, tag=slot.tag)
        done = env._now
        if record.nbytes > 0:
            done += engine.rbm.memory.access_delay(record.nbytes)
        engine.rbm.release(record)
        return record.data, done

    def _stream_in(self, nbytes: int, pace: Any = None):
        """Take *nbytes* off the kernel Tx stream; returns the concatenated
        data (None for timing-only chunks).  Each item's bytes are given to
        *pace*, when set, as soon as it arrives."""
        parts = []
        got = 0
        while got < nbytes:
            item_bytes, item_data = yield self.engine.kernel_data_in.get()
            got += item_bytes
            if pace is not None:
                pace.give(item_bytes)
            if item_data is not None:
                parts.append(np.asarray(item_data).reshape(-1))
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # -- cut-through streaming send ------------------------------------------

    def _execute_streaming_tx(self, mc: Microcode):
        """Kernel-stream -> network without buffering: the POE transmits
        each wire segment as soon as the kernel has pushed enough bytes,
        overlapping data production with transmission (Listing 2's entire
        reason to exist)."""
        engine = self.engine
        env = self.env
        pace = TokenBucket(
            env, mc.nbytes + SIGNATURE_BYTES, initial=0,
            name=f"{self.name}.pace",
        )
        payload = DeferredPayload()
        noc_done = env._now + engine.noc.route_delay(
            self._NOC_PORT[mc.op0.kind], self._NOC_PORT[mc.res.kind],
            mc.nbytes,
        )
        if mc.res.kind is SlotKind.TX_EAGER:
            send = engine.tx.send_eager(
                mc.res.signature, mc.res.dest_addr, payload, pace=pace)
        else:
            send = engine.tx.send_write(
                mc.res.signature, mc.res.dest_addr, mc.res.descriptor,
                payload, pace=pace)
        sent = env.process(send, name=f"{self.name}.tx")
        pace.give(SIGNATURE_BYTES)  # the header needs no kernel data
        payload.set((yield from self._stream_in(mc.nbytes, pace)))
        yield sent
        if noc_done > env._now:
            yield env.timeout_at(noc_done)
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

    def execute(self, mc: Microcode):
        """Run a microcode to retirement in the calling process (``yield
        from``); returns the instruction's result data.  A free pipeline
        slot is taken without an event."""
        t_q = self.env.now
        gate = self._slots.try_acquire()
        if gate is not None:
            yield gate
        sid = -1
        if self.engine.tracer is not None:
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
            data = yield from self._run(mc)
            if mc.res.kind is SlotKind.MEMORY and data is not None:
                mc.res.view.set_array(data)
            self.instructions_executed += 1
            return data
        finally:
            self.engine.span_end(sid)
            self._slots.release()

    def _run(self, mc: Microcode):
        """Move one instruction's data; returns the result data.

        The datapath is cut-through: operand fetch, the plugin, the crossbar
        pass and the result movement all stream concurrently at 64 B/cycle,
        so each leg is charged when it starts and the instruction retires
        when the slowest one drains.  Memory and immediate operands are
        charged at issue; the blocking ones (an eager Rx match, the kernel
        stream) are then awaited in slot order.
        """
        engine = self.engine
        env = self.env
        nbytes = mc.nbytes
        operands = ((mc.op0,) if mc.op1.kind is SlotKind.NONE
                    else (mc.op0, mc.op1))
        values = [None] * len(operands)
        done = env._now  # completion time of the latest leg so far
        for i, slot in enumerate(operands):
            if slot.kind is SlotKind.MEMORY:
                # Snapshot the operand: another in-flight instruction may
                # retire into the same buffer before this one applies its
                # plugin, and the operand was read here.
                array = slot.view.array
                values[i] = None if array is None else array.copy()
                done = max(done,
                           self._charge_memory(slot.view, nbytes, "read"))
            elif slot.kind is SlotKind.IMMEDIATE:
                values[i] = slot.data
        for i, slot in enumerate(operands):
            if slot.kind is SlotKind.RX_EAGER:
                values[i], read_done = yield from self._rx_eager(
                    slot, mc.op_id)
                done = max(done, read_done)
            elif slot.kind is SlotKind.STREAM:
                values[i] = yield from self._stream_in(nbytes)
            elif slot.kind not in (SlotKind.MEMORY, SlotKind.IMMEDIATE):
                raise CcloError(f"slot kind {slot.kind} is not an operand")
        if len(operands) == 2:
            data = engine.plugins.apply_binary(mc.func, *values)
        else:
            data = values[0]
            if mc.func is not None:
                data = engine.plugins.apply_unary(mc.func, data)
        done = max(done, env._now + engine.noc.route_delay(
            self._NOC_PORT[mc.op0.kind], self._NOC_PORT[mc.res.kind], nbytes))
        res = mc.res
        if res.kind is SlotKind.MEMORY:
            done = max(done, self._charge_memory(res.view, nbytes, "write"))
        elif res.kind is SlotKind.STREAM:
            yield engine.kernel_data_out.put((nbytes, data))
        elif res.kind is SlotKind.TX_EAGER:
            yield from engine.tx.send_eager(res.signature, res.dest_addr, data)
        elif res.kind is SlotKind.TX_WRITE:
            yield from engine.tx.send_write(
                res.signature, res.dest_addr, res.descriptor, data)
        elif res.kind is not SlotKind.NONE:
            raise CcloError(f"slot kind {res.kind} is not a result")
        if done > env._now:  # else every leg has drained: no kernel turn
            yield env.timeout_at(done)
        return data

    def register_metrics(self, registry, **labels) -> None:
        """Callback gauges over the DMP's live counters."""
        registry.gauge("dmp_instructions_executed",
                       fn=lambda: float(self.instructions_executed), **labels)
        registry.gauge("dmp_slots_in_use",
                       fn=lambda: float(self._slots.in_use), **labels)
        registry.gauge("dmp_slot_queue_length",
                       fn=lambda: float(self._slots.queue_length), **labels)
