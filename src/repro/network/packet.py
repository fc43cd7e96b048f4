"""Wire-level data unit: the Segment.

A :class:`Segment` stands for a contiguous burst of Ethernet frames belonging
to one message.  Simulating every 1.5 KB frame of a 256 MB transfer would cost
hundreds of thousands of events; instead protocol engines cut messages into
segments (bounded by their own segment size) and the fabric charges wire time
for the frames the segment *represents*:

    wire_bytes = payload + n_frames * per_frame_header

This keeps goodput-vs-size curves honest (headers hurt small messages) at
O(message/segment_size) event cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

ETHERNET_HEADER_BYTES = 58
"""Ethernet + IP + transport header overhead per frame (14+20+20 + margin)."""

DEFAULT_MTU = 1500
"""Standard Ethernet MTU used by the 100G stacks in the paper's cluster."""


@dataclass(slots=True)
class Segment:
    """A burst of frames from ``src`` to ``dst``.

    Attributes:
        src: source endpoint address (fabric-wide unique int).
        dst: destination endpoint address.
        payload_bytes: user/protocol payload carried.
        protocol: tag such as ``"tcp"``, ``"udp"``, ``"roce"`` (for tracing).
        meta: protocol-private descriptor (header object, message signature).
        data: optional real payload (numpy slice) carried end-to-end.
        mtu: frame payload size used to derive the frame count.

    Segments are the per-hop currency of the fabric — a large sweep makes
    millions — so the class is slotted and the derived frame counts are
    computed once at construction instead of per property access.  Fields
    are treated as immutable after construction.
    """

    src: int
    dst: int
    payload_bytes: int
    protocol: str = "raw"
    meta: Any = None
    data: Any = None
    mtu: int = DEFAULT_MTU
    seqno: int = 0
    header_bytes: int = field(default=ETHERNET_HEADER_BYTES)
    #: number of MTU frames this segment stands for (>= 1); derived.
    n_frames: int = field(init=False, compare=False, default=1)
    #: bytes occupying the wire, headers included; derived.
    wire_bytes: int = field(init=False, compare=False, default=0)

    def __post_init__(self) -> None:
        payload = self.payload_bytes
        if payload < 0:
            raise ValueError(f"negative payload: {payload}")
        if self.mtu <= 0:
            raise ValueError(f"MTU must be positive, got {self.mtu}")
        frames = -(-payload // self.mtu) if payload else 1
        self.n_frames = frames
        self.wire_bytes = payload + frames * self.header_bytes

    @property
    def op_id(self) -> int:
        """Collective op id riding in the protocol header's meta, or -1.

        Segments carry a protocol descriptor in ``meta`` whose own ``meta``
        is the collective-level context (when traced); links use this to
        stamp wait spans and fidelity decisions with the owning op.
        """
        meta = getattr(self.meta, "meta", None)
        return getattr(meta, "op_id", -1)

    def __repr__(self) -> str:
        return (
            f"<Segment {self.protocol} {self.src}->{self.dst} "
            f"{self.payload_bytes}B seq={self.seqno}>"
        )


def _wire_bytes(payload: int, mtu: int, header_bytes: int) -> int:
    frames = -(-payload // mtu) if payload else 1
    return payload + frames * header_bytes


@dataclass(slots=True)
class Burst:
    """A fast-forwarded train of back-to-back segments of one message.

    Under ``fidelity='flow'`` an uncongested multi-segment message crosses
    each hop as one Burst instead of ``n_segments`` individual
    :class:`Segment` events.  The train is fully described by three absolute
    timestamps, updated hop by hop:

    - ``head_at`` — time the *tail* of segment 0 is available at the next
      hop's input;
    - ``spacing`` — uniform tail-to-tail spacing of segments ``0..n-2``
      (the train leaves each serializer evenly spaced at the slowest
      upstream rate seen so far);
    - ``last_at`` — tail availability of the final (possibly short) segment.

    Any hop whose serializer is busy at ``head_at`` *expands* the burst back
    into its constituent segments at their exact availability times, so
    congested paths keep full packet-level fidelity from that hop on.

    Long messages travel as a *train of bursts* (the transmit loop re-checks
    for contention between sub-bursts); ``seq_base`` is the message-level
    seqno of this burst's first segment and ``last_bytes`` may equal
    ``segment_bytes`` for every sub-burst except the message's final one.
    """

    src: int
    dst: int
    payload_bytes: int
    n_segments: int
    segment_bytes: int  # payload of every full chunk
    last_bytes: int     # payload of the final chunk (<= segment_bytes)
    protocol: str = "raw"
    meta: Any = None
    data: Any = None
    mtu: int = DEFAULT_MTU
    header_bytes: int = ETHERNET_HEADER_BYTES
    seq_base: int = 0
    #: symmetric concurrent bulk messages sharing the first hop (including
    #: this one).  ``share > 1`` asks the first hop to carry the train as a
    #: *convoy* member — round-robin interleaved with its siblings at
    #: ``share`` times the per-segment spacing, which is exactly how packet
    #: FIFO schedules simultaneous equal senders pacing to egress.
    share: int = 1
    #: convoy identity token, stamped by the first hop at formation and
    #: carried downstream so later hops can recognize sibling trains (their
    #: slot grids are disjoint by construction and may share a serializer).
    convoy: Any = None
    #: links that carried the train analytically so far; a flow-control
    #: return for each of its segments would cross as many going back
    hops: int = 0
    # -- timing state (absolute simulation times), updated per hop
    head_at: float = 0.0
    spacing: float = 0.0
    last_at: float = 0.0
    #: wire occupancy of one full chunk / the last chunk / the train; derived.
    wire_full: int = field(init=False, compare=False, default=0)
    wire_last: int = field(init=False, compare=False, default=0)
    wire_total: int = field(init=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.n_segments < 2:
            raise ValueError(
                f"a burst needs >= 2 segments, got {self.n_segments}"
            )
        if not 0 < self.last_bytes <= self.segment_bytes:
            raise ValueError(
                f"last chunk of {self.last_bytes}B outside "
                f"(0, {self.segment_bytes}]"
            )
        self.wire_full = _wire_bytes(self.segment_bytes, self.mtu,
                                     self.header_bytes)
        self.wire_last = _wire_bytes(self.last_bytes, self.mtu,
                                     self.header_bytes)
        self.wire_total = ((self.n_segments - 1) * self.wire_full
                           + self.wire_last)

    def iter_segments(self):
        """``(availability_time, Segment)`` pairs for packet-level expansion.

        Times are the absolute instants each segment's tail becomes
        available at the expanding hop's input; the constructed segments are
        exactly what the packet-level transmit loop would have produced.
        """
        head = self.head_at
        spacing = self.spacing
        n = self.n_segments
        base = self.seq_base
        for i in range(n - 1):
            yield head + i * spacing, Segment(
                src=self.src, dst=self.dst,
                payload_bytes=self.segment_bytes,
                protocol=self.protocol, meta=self.meta,
                data=self.data if i == 0 else None,
                mtu=self.mtu, seqno=base + i,
                header_bytes=self.header_bytes,
            )
        yield self.last_at, Segment(
            src=self.src, dst=self.dst, payload_bytes=self.last_bytes,
            protocol=self.protocol, meta=self.meta, data=None,
            mtu=self.mtu, seqno=base + n - 1,
            header_bytes=self.header_bytes,
        )

    @property
    def op_id(self) -> int:
        """Collective op id riding in the message header's meta, or -1."""
        meta = getattr(self.meta, "meta", None)
        return getattr(meta, "op_id", -1)

    def __repr__(self) -> str:
        return (
            f"<Burst {self.protocol} {self.src}->{self.dst} "
            f"{self.payload_bytes}B x{self.n_segments}>"
        )
