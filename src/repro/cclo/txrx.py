"""Tx and Rx systems: the CCLO's data-plane frontends (§4.4.2).

"The Tx and Rx systems are responsible for packetizing and depacketizing the
signature along with user payload, and they issue commands to interact with
the POEs.  The command issuing, signature insertion, and parsing processes
can vary for different synchronization protocols.  Both the Rx and Tx
systems incorporate a finite state machine to respond appropriately to these
variations."
"""

from __future__ import annotations

from typing import Any

from repro.errors import CcloError
from repro.protocols.base import BasePoe, MessageHeader
from repro.protocols.rdma import RdmaPoe
from repro.sim import Environment
from repro.cclo.config_mem import CcloConfig
from repro.cclo.match import MatchTable
from repro.cclo.messages import (
    BufferDescriptor,
    MsgType,
    Signature,
    SIGNATURE_BYTES,
)
from repro.cclo.rbm import RxBufManager


class TxSystem:
    """Packetizes signatures onto POE streams and drives send-side verbs."""

    def __init__(self, env: Environment, config: CcloConfig, poe: BasePoe,
                 name: str = "tx"):
        self.env = env
        self.config = config
        self.poe = poe
        self.name = name
        self.messages_sent = 0

    def _fsm(self) -> float:
        # The POE waits it out as the transmit's lead, merged with its own
        # latency when the message fits one segment.
        return self.config.cycles(self.config.txrx_fsm_cycles)

    # Each send verb is a generator: the caller runs it with ``yield from``
    # when it waits for the send at once, or wraps it in ``env.process`` to
    # overlap it with other work.

    def send_eager(self, signature: Signature, dest_addr: int,
                   data: Any = None, pace: Any = None):
        """EAGER_MSG / STREAM: signature header + payload via SEND path."""
        self.messages_sent += 1
        yield from self.poe.transmit(
            dest_addr, signature.nbytes + SIGNATURE_BYTES, meta=signature,
            data=data, pace=pace, lead=self._fsm())
        return signature

    def send_control(self, signature: Signature, dest_addr: int):
        """Small control message (RNDZ_INIT / RNDZ_DONE) via two-sided SEND."""
        self.messages_sent += 1
        yield from self.poe.transmit(dest_addr, SIGNATURE_BYTES,
                                     meta=signature, lead=self._fsm())
        return signature

    def send_write(self, signature: Signature, dest_addr: int,
                   descriptor: BufferDescriptor, data: Any = None,
                   pace: Any = None):
        """RNDZ_MSG: one-sided RDMA WRITE, then RNDZ_DONE via SEND.

        The returned generator finishes once the DONE has been handed to the
        wire — the paper's "Once the RDMA WRITE is complete, the Tx System
        issues an RDZV_DONE message with RDMA SEND".  A CCLO without the
        RDMA POE raises here, at the call, before anything is sent.
        """
        if not isinstance(self.poe, RdmaPoe):
            raise CcloError(
                "rendezvous WRITE path requires the RDMA POE; "
                f"this CCLO is built with {self.poe.protocol_name!r}"
            )
        return self._send_write(signature, dest_addr, descriptor, data, pace)

    def _send_write(self, signature: Signature, dest_addr: int,
                    descriptor: BufferDescriptor, data: Any,
                    pace: Any = None):
        self.messages_sent += 1
        yield from self.poe.transmit(
            dest_addr, signature.nbytes, meta=descriptor, data=data,
            kind="write", pace=pace, lead=self._fsm())
        done_sig = Signature(
            comm_id=signature.comm_id,
            src_rank=signature.src_rank,
            dst_rank=signature.dst_rank,
            msg_type=MsgType.RNDZ_DONE,
            nbytes=0,
            tag=signature.tag,
            seqno=signature.seqno,
            op_id=signature.op_id,
        )
        yield from self.poe.transmit(dest_addr, SIGNATURE_BYTES,
                                     meta=done_sig)
        return signature

    def register_metrics(self, registry, **labels) -> None:
        registry.gauge("tx_messages_sent",
                       fn=lambda: float(self.messages_sent), **labels)


class RxSystem:
    """Parses inbound signatures and routes them to RBM / uC / streams."""

    def __init__(
        self,
        env: Environment,
        config: CcloConfig,
        rbm: RxBufManager,
        name: str = "rx",
    ):
        self.env = env
        self.config = config
        self.rbm = rbm
        self.name = name
        #: RNDZ_INIT notifications for the uC send path (paper's arrow 3)
        self.rndz_init = MatchTable(env, name=f"{name}.rndz_init")
        #: RNDZ_DONE notifications completing rendezvous receives
        self.rndz_done = MatchTable(env, name=f"{name}.rndz_done")
        #: completed STREAM-type messages for stream-destined receives
        self.stream_msgs = MatchTable(env, name=f"{name}.stream")
        self.messages_received = 0
        #: ACCL-v1 hook: set by the engine to the uC's charge function so
        #: per-packet receive work serializes through the micro-processor.
        self.uc_charge = None
        #: the uC-time pipe behind ``uc_charge`` (for wait attribution)
        self.uc_pipe = None
        # Span hook (None = disabled): bound by the engine's attach_tracer.
        self._span_complete = None
        self._trace_node = name

    def handle(self, header: MessageHeader, data: Any) -> None:
        """POE delivery callback, run once the Rx FSM has parsed the message
        (the engine registers the FSM time as the handler's latency, so the
        POE waits it out): depacketize and dispatch by message type."""
        signature = header.meta
        if not isinstance(signature, Signature):
            raise CcloError(
                f"{self.name}: inbound message without an ACCL+ signature "
                f"(meta={signature!r})"
            )
        self.messages_received += 1
        if self.config.uc_rx_instr_per_kib and self.uc_charge is not None:
            # ACCL-v1 configuration: the uC assembles inbound packets itself,
            # so receive handling serializes through the slow sequential core.
            instructions = max(
                1,
                (signature.nbytes // 1024) * self.config.uc_rx_instr_per_kib,
            )
            t_q = self.env.now
            queued_until = self.uc_pipe.busy_until()
            delay = self.uc_charge(instructions)
            span_complete = self._span_complete
            if span_complete is not None:
                done = t_q + delay
                comp = f"{self._trace_node}.rx"
                if queued_until > t_q:
                    span_complete(comp, "wait:uc_dispatch", t_q,
                                  queued_until, phase="wait",
                                  op_id=signature.op_id, cause="uc_dispatch")
                if done > queued_until:
                    span_complete(comp, "uc_rx", queued_until, done,
                                  phase="uc", op_id=signature.op_id,
                                  nbytes=signature.nbytes)
            self.env.schedule_callback(delay, self._dispatch, signature, data)
        else:
            self._dispatch(signature, data)

    def _dispatch(self, signature: Signature, data: Any) -> None:
        kind = signature.msg_type
        if kind is MsgType.EAGER:
            self.rbm.handle_incoming(signature, data)
        elif kind is MsgType.STREAM:
            self.stream_msgs.post(signature.match_key(), (signature, data))
        elif kind is MsgType.RNDZ_INIT:
            self.rndz_init.post(signature.match_key(), signature)
        elif kind is MsgType.RNDZ_DONE:
            self.rndz_done.post(signature.match_key(), signature)
        else:
            raise CcloError(f"{self.name}: unhandled message type {kind}")

    def register_metrics(self, registry, **labels) -> None:
        registry.gauge("rx_messages_received",
                       fn=lambda: float(self.messages_received), **labels)
