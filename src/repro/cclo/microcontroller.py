"""Embedded micro-controller: firmware-driven collective control (§4.4.1).

"The uC firmware implements different collective algorithms and different
synchronization protocols...  the uC provides the high flexibility to
implement different collective algorithms by updating the firmware without
the need to refactorize the whole design and re-synthesize."

In this reproduction a *firmware* is a Python generator registered in a
:class:`FirmwareRegistry` — installing a new collective at runtime is the
analogue of a firmware update (no "re-synthesis" of the engine).  The uC is
a slow sequential core: every coarse control step serializes through a
shared uC-time pipe, while the data movements it launches run in parallel
hardware (DMP, Tx/Rx).  FIFO command queues allow multiple in-flight
commands, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from repro.errors import CcloError, CollectiveError
from repro.sim import BandwidthResource, Channel, Environment, Event, all_of
from repro.cclo.config_mem import CommunicatorConfig, ConfigMemory
from repro.cclo.dmp import Microcode, Slot
from repro.cclo.messages import BufferDescriptor, MsgType, Signature


@dataclass
class CollectiveArgs:
    """Arguments of one CCLO command (the MMIO call payload)."""

    opcode: str
    comm_id: int = 0
    nbytes: int = 0
    root: int = 0
    peer: int = -1        # dst rank for send, src rank for recv
    tag: int = 0
    func: str = "sum"     # reduction plugin function
    sbuf: Any = None      # BufferView (source)
    rbuf: Any = None      # BufferView (result)
    from_stream: bool = False
    to_stream: bool = False
    algorithm: Optional[str] = None  # force a specific algorithm
    protocol: Optional[str] = None   # force "eager" or "rndz"
    extra: dict = field(default_factory=dict)
    #: observability correlation id; assigned by the driver (or the uC for
    #: engine-direct calls) when a SpanTracer is attached, -1 otherwise.
    op_id: int = -1


FirmwareFn = Callable[["FirmwareContext", CollectiveArgs], Generator]


class FirmwareRegistry:
    """Opcode/algorithm -> firmware function table (the uC program store).

    A registry may *layer* over a shared read-only parent (the stock
    firmware load-out): lookups fall through to the parent, while
    ``register``/``update`` always write the local table.  Every node in a
    large cluster then carries only its own runtime registrations instead
    of a private copy of the full stock table.
    """

    __slots__ = ("_table", "_parent")

    def __init__(self, parent: Optional["FirmwareRegistry"] = None):
        self._table: Dict[tuple, FirmwareFn] = {}
        self._parent = parent

    def register(self, opcode: str, algorithm: str, fn: FirmwareFn) -> None:
        key = (opcode, algorithm)
        if key in self:
            raise CcloError(f"firmware for {key} already loaded")
        self._table[key] = fn

    def update(self, opcode: str, algorithm: str, fn: FirmwareFn) -> None:
        """Hot-swap firmware (the no-resynthesis flexibility claim)."""
        self._table[(opcode, algorithm)] = fn

    def lookup(self, opcode: str, algorithm: str) -> FirmwareFn:
        key = (opcode, algorithm)
        fn = self._table.get(key)
        if fn is None and self._parent is not None:
            fn = self._parent._table.get(key)
        if fn is None:
            raise CcloError(
                f"no firmware for opcode {opcode!r} algorithm {algorithm!r}"
            )
        return fn

    def algorithms_for(self, opcode: str) -> list:
        keys = set(self._table)
        if self._parent is not None:
            keys.update(self._parent._table)
        return sorted(alg for (op, alg) in keys if op == opcode)

    def __contains__(self, key: tuple) -> bool:
        if key in self._table:
            return True
        return self._parent is not None and key in self._parent._table


class FirmwareContext:
    """Primitives available to collective firmware.

    Every primitive that *launches* data movement returns an event so the
    firmware can overlap operations (issue all sends, then wait).  Control
    steps charge the shared uC-time pipe, modeling the sequential core.
    """

    def __init__(self, uc: "MicroController", args: CollectiveArgs):
        self.uc = uc
        self.engine = uc.engine
        self.env = uc.env
        self.args = args
        self.comm: CommunicatorConfig = uc.config_mem.communicator(args.comm_id)
        self._tag_base = args.tag

    # -- identity helpers ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.comm.local_rank

    @property
    def size(self) -> int:
        return self.comm.size

    def tag(self, phase: int = 0) -> int:
        """Derive per-phase tags so concurrent phases never cross-match."""
        return self._tag_base + phase

    # -- uC costs ----------------------------------------------------------------

    def cost(self, instructions: int = 1) -> float:
        """Charge sequential uC time for *instructions* coarse steps.

        Returns a plain delay for the firmware to ``yield`` — the kernel's
        allocation-free sleep path.
        """
        tracer = self.engine.tracer
        if tracer is None:
            return self.uc.charge(instructions)
        # Record-only split of the charge: the pipe backlog before our
        # instructions start is a uc_dispatch wait (another command holds
        # the sequential core), the rest is our own execution.
        queued_until = self.uc._uc_time.busy_until()
        delay = self.uc.charge(instructions)
        if delay > 0:
            now = self.env.now
            comp = f"{self.engine.name}.uc"
            if queued_until > now:
                tracer.span_complete(comp, "wait:uc_dispatch", now,
                                     queued_until, phase="wait",
                                     op_id=self.args.op_id,
                                     cause="uc_dispatch")
            tracer.span_complete(comp, "step", queued_until, now + delay,
                                 phase="uc", op_id=self.args.op_id)
        return delay

    def _wait_span(self, t0: float, cause: str, **detail) -> None:
        """Record a blocking interval ``[t0, now]`` with its cause."""
        tracer = self.engine.tracer
        if tracer is None:
            return
        now = self.env.now
        if now > t0:
            tracer.span_complete(f"{self.engine.name}.uc", f"wait:{cause}",
                                 t0, now, phase="wait", op_id=self.args.op_id,
                                 cause=cause, **detail)

    def _issue(self, mc: Microcode) -> Event:
        """Issue DMP microcode stamped with this command's op id."""
        mc.op_id = self.args.op_id
        return self.engine.dmp.issue(mc)

    def _execute(self, mc: Microcode):
        """Run DMP microcode stamped with this command's op id in the
        calling process (``yield from``)."""
        mc.op_id = self.args.op_id
        return self.engine.dmp.execute(mc)

    # -- protocol selection --------------------------------------------------------

    def protocol_for(self, nbytes: int) -> str:
        """Eager/rendezvous decision for one message."""
        if self.args.protocol is not None:
            return self.args.protocol
        if self.comm.protocol != "rdma":
            return "eager"  # TCP/UDP have no WRITE verb for rendezvous
        params = self.uc.config_mem.params
        return "eager" if nbytes <= params.eager_max_bytes else "rndz"

    # -- point-to-point primitives ----------------------------------------------------

    def send(self, dst_rank: int, source: Any, nbytes: int, tag: int,
             protocol: Optional[str] = None,
             codec: Optional[str] = None) -> Event:
        """Send *nbytes* to *dst_rank*; source is a view or ``None``+stream.

        ``codec="fp16"`` compresses fp32 payloads to half the wire bytes
        through the unary streaming plugin (eager protocol only).
        """
        protocol = self._codec_protocol(codec, protocol, nbytes)
        return self.env.process(
            self._send_proc(dst_rank, source, nbytes, tag, protocol, codec),
            name=f"uc{self.rank}.send",
        )

    def recv(self, src_rank: int, dest: Any, nbytes: int, tag: int,
             protocol: Optional[str] = None,
             codec: Optional[str] = None) -> Event:
        """Receive *nbytes* from *src_rank* into a view or the kernel stream."""
        protocol = self._codec_protocol(codec, protocol, nbytes)
        return self.env.process(
            self._recv_proc(src_rank, dest, nbytes, tag, protocol, codec),
            name=f"uc{self.rank}.recv",
        )

    def _codec_protocol(self, codec: Optional[str], protocol: Optional[str],
                        nbytes: int) -> str:
        if codec is None:
            return protocol or self.protocol_for(nbytes)
        if codec != "fp16":
            raise CollectiveError(f"unknown wire codec {codec!r}")
        if (protocol or self.args.protocol) == "rndz":
            raise CollectiveError(
                "wire codecs run in the eager datapath; rendezvous WRITEs "
                "bypass the streaming plugins"
            )
        return "eager"

    def recv_reduce(self, src_rank: int, acc: Any, nbytes: int, tag: int,
                    func: str, protocol: Optional[str] = None) -> Event:
        """Receive and fold into *acc* through the binary plugin."""
        protocol = protocol or self.protocol_for(nbytes)
        return self.env.process(
            self._recv_reduce_proc(src_rank, acc, nbytes, tag, func, protocol),
            name=f"uc{self.rank}.recv_reduce",
        )

    def copy(self, src_view: Any, dst_view: Any, nbytes: int) -> Event:
        """Local memory-to-memory copy through the data plane."""
        mc = Microcode(
            nbytes=nbytes,
            op0=Slot.memory(src_view),
            res=Slot.memory(dst_view),
        )
        return self._issue(mc)

    def reduce_local(self, func: str, a_view: Any, b_view: Any,
                     dst_view: Any, nbytes: int) -> Event:
        """dst = a (op) b, all local, through the plugin."""
        mc = Microcode(
            nbytes=nbytes,
            op0=Slot.memory(a_view),
            op1=Slot.memory(b_view),
            res=Slot.memory(dst_view),
            func=func,
        )
        return self._issue(mc)

    def stream_to_memory(self, dst_view: Any, nbytes: int) -> Event:
        """Drain the kernel stream into memory (staging for MPI-like ops)."""
        mc = Microcode(
            nbytes=nbytes, op0=Slot.stream(), res=Slot.memory(dst_view)
        )
        return self._issue(mc)

    def memory_to_stream(self, src_view: Any, nbytes: int) -> Event:
        mc = Microcode(
            nbytes=nbytes, op0=Slot.memory(src_view), res=Slot.stream()
        )
        return self._issue(mc)

    def wait_all(self, events) -> Event:
        return all_of(self.env, list(events))

    # -- internals ----------------------------------------------------------------------

    def _source_slot(self, source: Any, nbytes: int) -> Slot:
        if nbytes == 0:
            return Slot.immediate(None)  # pure synchronization message
        if source is None:
            return Slot.stream()
        return Slot.memory(source)

    def _dest_slot(self, dest: Any, nbytes: int) -> Slot:
        if nbytes == 0:
            return Slot.none()
        if dest is None:
            return Slot.stream()
        return Slot.memory(dest)

    def _send_proc(self, dst_rank: int, source: Any, nbytes: int, tag: int,
                   protocol: str, codec: Optional[str] = None):
        if dst_rank == self.rank:
            raise CollectiveError("send to self is not a network operation")
        yield self.cost()
        dest_addr = self.comm.address_of(dst_rank)
        if protocol == "rndz":
            # Wait for the receiver's buffer-address resolution (arrow 3).
            t_wait = self.env.now
            init_sig = yield self.engine.rx.rndz_init.wait(
                (self.args.comm_id, dst_rank, tag)
            )
            self._wait_span(t_wait, "rendezvous", peer=dst_rank, side="send")
            descriptor = init_sig.payload_meta
            signature = Signature(
                comm_id=self.args.comm_id, src_rank=self.rank,
                dst_rank=dst_rank, msg_type=MsgType.RNDZ_MSG,
                nbytes=nbytes, tag=tag, op_id=self.args.op_id,
            )
            mc = Microcode(
                nbytes=nbytes,
                op0=self._source_slot(source, nbytes),
                res=Slot.tx_write(signature, dest_addr, descriptor),
            )
        else:
            wire_bytes = nbytes // 2 if codec == "fp16" else nbytes
            signature = Signature(
                comm_id=self.args.comm_id, src_rank=self.rank,
                dst_rank=dst_rank, msg_type=MsgType.EAGER,
                nbytes=wire_bytes, tag=tag, op_id=self.args.op_id,
            )
            mc = Microcode(
                nbytes=nbytes,
                op0=self._source_slot(source, nbytes),
                res=Slot.tx_eager(signature, dest_addr),
                func="to_fp16" if codec == "fp16" else None,
            )
        yield from self._execute(mc)

    def _recv_proc(self, src_rank: int, dest: Any, nbytes: int, tag: int,
                   protocol: str, codec: Optional[str] = None):
        if src_rank == self.rank:
            raise CollectiveError("recv from self is not a network operation")
        yield self.cost()
        if protocol == "rndz":
            yield from self._recv_rndz(src_rank, dest, nbytes, tag)
        else:
            mc = Microcode(
                nbytes=nbytes,
                op0=Slot.rx_eager(self.args.comm_id, src_rank, tag),
                res=self._dest_slot(dest, nbytes),
                func="from_fp16" if codec == "fp16" else None,
            )
            yield from self._execute(mc)

    def _recv_rndz(self, src_rank: int, dest: Any, nbytes: int, tag: int):
        """Rendezvous receive: resolve the buffer, await WRITE + DONE."""
        target_id = self.engine.register_rndz_target(dest, nbytes)
        descriptor = BufferDescriptor(
            node_addr=self.engine.address, target_id=target_id,
            nbytes=nbytes, op_id=self.args.op_id,
        )
        init = Signature(
            comm_id=self.args.comm_id, src_rank=self.rank, dst_rank=src_rank,
            msg_type=MsgType.RNDZ_INIT, nbytes=0, tag=tag,
            payload_meta=descriptor, op_id=self.args.op_id,
        )
        # uC issues the Tx control with the result address (arrow 2).
        yield from self.engine.tx.send_control(
            init, self.comm.address_of(src_rank)
        )
        t_wait = self.env.now
        yield self.engine.rx.rndz_done.wait(
            (self.args.comm_id, src_rank, tag)
        )
        entry = self.engine.claim_rndz_target(target_id)
        written = self.engine.rndz_written(entry)
        if written is not None:
            yield written
        self._wait_span(t_wait, "rendezvous", peer=src_rank, side="recv")

    def _recv_reduce_proc(self, src_rank: int, acc: Any, nbytes: int,
                          tag: int, func: str, protocol: str):
        if src_rank == self.rank:
            raise CollectiveError("recv from self is not a network operation")
        yield self.cost()
        if protocol == "rndz":
            # Data lands in a scratch region via WRITE (the landing
            # materializes its array); then fold locally.
            scratch = self.engine.scratch_alloc(nbytes)
            try:
                yield from self._recv_rndz(
                    src_rank, scratch.view(), nbytes, tag)
                mc = Microcode(
                    nbytes=nbytes,
                    op0=Slot.memory(scratch.view()),
                    op1=Slot.memory(acc),
                    res=Slot.memory(acc),
                    func=func,
                )
                yield from self._execute(mc)
            finally:
                self.engine.scratch_free(scratch)
        else:
            mc = Microcode(
                nbytes=nbytes,
                op0=Slot.rx_eager(self.args.comm_id, src_rank, tag),
                op1=Slot.memory(acc),
                res=Slot.memory(acc),
                func=func,
            )
            yield from self._execute(mc)


class MicroController:
    """Sequential command dispatcher over the firmware registry."""

    def __init__(self, env: Environment, config_mem: ConfigMemory, engine,
                 registry: Optional[FirmwareRegistry] = None,
                 name: str = "uc"):
        self.env = env
        self.config_mem = config_mem
        self.config = config_mem.config
        self.engine = engine
        self.registry = registry or FirmwareRegistry()
        self.name = name
        self.commands = Channel(env, name=f"{name}.cmds")
        # Sequential core: firmware steps across all in-flight commands
        # serialize through this pipe (1 "byte" == 1 instruction).
        self._uc_time = BandwidthResource(
            env,
            rate_bytes_per_s=self.config.clock_hz / self.config.uc_instr_cycles,
            name=f"{name}.time",
        )
        self.commands_executed = 0
        env.process(self._dispatch_loop(), name=f"{name}.loop")

    def charge(self, instructions: int = 1) -> float:
        """Reserve sequential uC execution time; returns a yieldable delay."""
        done = self._uc_time.reserve(instructions)
        return done - self.env.now

    def call(self, args: CollectiveArgs) -> Event:
        """Enqueue a command; the event fires when its firmware finishes."""
        completion = Event(self.env)
        self.commands.try_put((args, completion, self.env.now))
        return completion

    def _dispatch_loop(self):
        dispatch_instrs = max(
            1, self.config.uc_dispatch_cycles // self.config.uc_instr_cycles
        )
        engine = self.engine
        while True:
            args, completion, enq_t = yield self.commands.get()
            # Everything between enqueue and the start of our dispatch
            # charge is serialization behind other commands: time spent in
            # the FIFO plus the uC-time pipe's existing backlog.
            queued_until = self._uc_time.busy_until()
            yield self.charge(dispatch_instrs)
            self.commands_executed += 1
            # Engine-direct calls bypass the driver; open the op's root
            # collective span here so phase attribution still has a frame.
            root_sid = -1
            tracer = engine.tracer
            if tracer is not None:
                if args.op_id < 0:
                    args.op_id = tracer.next_op_id()
                    root_sid = tracer.span_begin(
                        enq_t, f"{engine.name}.uc",
                        f"collective:{args.opcode}", phase="collective",
                        op_id=args.op_id, nbytes=args.nbytes)
                if queued_until > enq_t:
                    engine.span_complete(
                        "uc", "wait:uc_dispatch", enq_t, queued_until,
                        phase="wait", op_id=args.op_id, cause="uc_dispatch",
                        opcode=args.opcode)
                engine.span_complete("uc", "dispatch", queued_until,
                                     self.env.now, phase="uc",
                                     op_id=args.op_id, opcode=args.opcode)
            if args.opcode == "nop":
                engine.span_end(root_sid)
                completion.succeed(None)
                continue
            fn = self._resolve_firmware(args)
            ctx = FirmwareContext(self, args)
            fw = self.env.process(
                fn(ctx, args), name=f"{self.name}.{args.opcode}"
            )
            fw.add_callback(self._complete_cb(completion, root_sid, engine))

    def _resolve_firmware(self, args: CollectiveArgs) -> FirmwareFn:
        algorithm = args.algorithm
        if algorithm is None:
            comm = self.config_mem.communicator(args.comm_id)
            algorithm = self.engine.selector.choose(
                args, comm, self.config_mem.params
            )
            args.algorithm = algorithm
        return self.registry.lookup(args.opcode, algorithm)

    @staticmethod
    def _complete_cb(completion: Event, root_sid: int = -1, engine=None):
        def cb(fw_event: Event):
            if root_sid >= 0:
                engine.span_end(root_sid)
            if fw_event.ok:
                completion.succeed(fw_event.value)
            else:
                fw_event.defuse()
                completion.fail(fw_event.value)

        return cb

    def register_metrics(self, registry, **labels) -> None:
        """Callback gauges over the uC's live counters (zero hot-path cost)."""
        registry.gauge("uc_commands_executed",
                       fn=lambda: float(self.commands_executed), **labels)
        self._uc_time.register_metrics(registry, name="uc_pipe", **labels)
