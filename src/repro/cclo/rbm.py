"""Rx Buffer Manager: temporary buffering for the eager protocol (§4.4.1).

"Upon the notifications of incoming messages from the network, RBM retrieves
a list of available Rx buffers from the configuration memory and then it
issues memory requests to store the message in the selected Rx buffer...
The RBM also stores relevant metadata (source ID, tag, Rx buffer address) to
be used by the DMP."

Pool capacity is finite: when no Rx space is available, inbound eager
messages stall behind the pool (the hardware equivalent is transport-level
back-pressure), which is the eager protocol's scalability hazard the
rendezvous protocol exists to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import CcloError
from repro.memory.model import Memory
from repro.sim import Environment, Event
from repro.sim.resources import TokenBucket
from repro.cclo.config_mem import CcloConfig
from repro.cclo.match import MatchTable
from repro.cclo.messages import Signature


@dataclass
class RxRecord:
    """Metadata of one buffered eager message."""

    signature: Signature
    data: Any = None
    released: bool = field(default=False, repr=False)

    @property
    def nbytes(self) -> int:
        return self.signature.nbytes


class RxBufManager:
    """Allocates Rx buffers, reassembles messages, answers DMP queries."""

    def __init__(
        self,
        env: Environment,
        config: CcloConfig,
        memory: Memory,
        name: str = "rbm",
    ):
        self.env = env
        self.config = config
        self.memory = memory
        self.name = name
        # The pool itself is carved out of FPGA memory once, up front.
        self._arena = memory.allocate(config.rx_pool_bytes)
        self._space = TokenBucket(env, config.rx_pool_bytes, name=f"{name}.space")
        self._slots = TokenBucket(env, config.rx_max_messages, name=f"{name}.slots")
        self._arrivals = MatchTable(env, name=f"{name}.arrivals")
        # Stores still waiting for tokens; later arrivals queue behind them.
        self._pending_stores = 0
        self.messages_buffered = 0
        self.bytes_buffered = 0
        self.high_watermark = 0
        # Span hook (None = disabled): bound by the engine's attach_tracer.
        self._span_complete = None

    @property
    def free_bytes(self) -> int:
        return self._space.available

    def handle_incoming(self, signature: Signature, data: Any) -> None:
        """Stage an inbound eager message into the Rx pool for the DMP to
        match: one callback at the end of the write when the pool has room
        and no earlier message waits for it, else a process that waits."""
        nbytes = signature.nbytes
        if nbytes > self.config.rx_pool_bytes:
            raise CcloError(
                f"{self.name}: eager message of {nbytes}B exceeds "
                f"the whole Rx pool ({self.config.rx_pool_bytes}B); use the "
                "rendezvous protocol for messages this large"
            )
        reserve = max(1, nbytes)
        if (not self._pending_stores and self._slots.has(1)
                and self._space.has(reserve)):
            self._slots.try_take(1)
            self._space.try_take(reserve)
            self.env.schedule_callback(
                self.memory.access_delay(nbytes) if nbytes > 0 else 0.0,
                self._buffered, signature, data)
        else:
            self._pending_stores += 1
            self.env.process(self._store(signature, data, reserve),
                             name=f"{self.name}.store")

    def _store(self, signature: Signature, data: Any, reserve: int):
        t_q = self.env.now
        yield self._slots.take(1)
        yield self._space.take(reserve)
        self._pending_stores -= 1
        span_complete = self._span_complete
        if span_complete is not None and self.env.now > t_q:
            # Pool exhaustion stalled this inbound eager message — the
            # back-pressure the rendezvous protocol exists to avoid.
            span_complete(self.name, "wait:rx_pool", t_q, self.env.now,
                          phase="wait", op_id=signature.op_id,
                          cause="rx_pool", nbytes=signature.nbytes)
        # Stage the payload into the selected Rx buffer (memory write).
        if signature.nbytes > 0:
            yield self.memory.access_delay(signature.nbytes)
        self._buffered(signature, data)

    def _buffered(self, signature: Signature, data: Any) -> None:
        """The message is in its Rx buffer: record it for the DMP."""
        record = RxRecord(signature=signature, data=data)
        self.messages_buffered += 1
        self.bytes_buffered += signature.nbytes
        in_use = self.config.rx_pool_bytes - self._space.available
        self.high_watermark = max(self.high_watermark, in_use)
        self._arrivals.post(signature.match_key(), record)

    def await_message(self, comm_id: int, src_rank: int, tag: int) -> Event:
        """DMP query: event yielding the matching :class:`RxRecord`."""
        return self._arrivals.wait((comm_id, src_rank, tag))

    def release(self, record: RxRecord) -> None:
        """Return the record's buffer to the pool."""
        if record.released:
            raise CcloError(f"{self.name}: double release of Rx buffer")
        record.released = True
        self._space.give(max(1, record.nbytes))
        self._slots.give(1)

    def register_metrics(self, registry, **labels) -> None:
        """Expose pool occupancy and throughput as callback gauges."""
        registry.gauge("rbm_messages_buffered",
                       fn=lambda: float(self.messages_buffered), **labels)
        registry.gauge("rbm_bytes_buffered",
                       fn=lambda: float(self.bytes_buffered), **labels)
        registry.gauge("rbm_high_watermark",
                       fn=lambda: float(self.high_watermark), **labels)
        registry.gauge("rbm_free_bytes",
                       fn=lambda: float(self.free_bytes), **labels)
        self._space.register_metrics(registry, name="rbm_space", **labels)
        self._slots.register_metrics(registry, name="rbm_slots", **labels)

    def __repr__(self) -> str:
        return (
            f"<RxBufManager {self.name!r} free={self.free_bytes}"
            f"/{self.config.rx_pool_bytes}B>"
        )
