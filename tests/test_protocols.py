"""Unit tests for the protocol offload engines (UDP, TCP, RDMA)."""

import numpy as np
import pytest

from repro import units
from repro.errors import ProtocolError
from repro.network import StarTopology
from repro.protocols import RdmaPoe, TcpPoe, UdpPoe
from repro.protocols.base import DeferredPayload
from repro.sim import Environment


def make_pair(poe_cls, env=None, **kwargs):
    env = env or Environment()
    topo = StarTopology(env)
    a = poe_cls(env, topo.add_endpoint(0, "a"), **kwargs)
    b = poe_cls(env, topo.add_endpoint(1, "b"), **kwargs)
    return env, a, b


class TestUdp:
    def test_datagram_delivery(self):
        env, a, b = make_pair(UdpPoe)
        got = []
        b.on_message(lambda hdr, data: got.append((env.now, hdr, data)))
        env.process(a.transmit(1, 4096, meta="tag-7"))
        env.run()
        assert len(got) == 1
        _, hdr, _ = got[0]
        assert hdr.nbytes == 4096
        assert hdr.meta == "tag-7"
        assert hdr.src_addr == 0

    def test_payload_data_carried(self):
        env, a, b = make_pair(UdpPoe)
        got = []
        b.on_message(lambda hdr, data: got.append(data))
        payload = np.arange(16)
        env.process(a.transmit(1, payload.nbytes, data=payload))
        env.run()
        assert np.array_equal(got[0], payload)

    def test_zero_byte_message_delivered(self):
        env, a, b = make_pair(UdpPoe)
        got = []
        b.on_message(lambda hdr, data: got.append(hdr))
        env.process(a.transmit(1, 0, meta="barrier"))
        env.run()
        assert got[0].meta == "barrier"

    def test_large_message_segmented(self):
        env, a, b = make_pair(UdpPoe)
        got = []
        b.on_message(lambda hdr, data: got.append(hdr))
        env.process(a.transmit(1, 1 * units.MIB))
        env.run()
        assert len(got) == 1
        assert b.endpoint.segments_received > 1

    def test_drop_filter_loses_datagram(self):
        env, a, b = make_pair(UdpPoe)
        got = []
        b.on_message(lambda hdr, data: got.append(hdr))
        b.set_drop_filter(lambda seg: seg.seqno == 0)
        env.process(a.transmit(1, 1024))
        env.run()
        assert got == []
        assert b.segments_dropped == 1

    def test_message_ordering_between_peers(self):
        env, a, b = make_pair(UdpPoe)
        got = []
        b.on_message(lambda hdr, data: got.append(hdr.meta))
        for i in range(5):
            env.process(a.transmit(1, 512, meta=i))
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_no_handler_is_error(self):
        env, a, b = make_pair(UdpPoe)
        env.process(a.transmit(1, 64))
        with pytest.raises(ProtocolError, match="no handler"):
            env.run()


class TestTcp:
    def test_connect_then_send(self):
        env, a, b = make_pair(TcpPoe)
        got = []
        b.on_message(lambda hdr, data: got.append(hdr))

        def client():
            sid = yield a.connect(1)
            b.accept(0)
            assert sid >= 1
            yield from a.transmit(1, 8192, meta="hello")

        env.process(client())
        env.run()
        assert len(got) == 1
        assert got[0].meta == "hello"

    def test_send_without_session_rejected(self):
        env, a, b = make_pair(TcpPoe)
        b.on_message(lambda hdr, data: None)
        with pytest.raises(ProtocolError, match="session"):
            a.transmit(1, 100)

    def test_connect_to_self_rejected(self):
        env, a, _ = make_pair(TcpPoe)
        with pytest.raises(ProtocolError):
            a.connect(0)

    def test_session_reuse(self):
        env, a, b = make_pair(TcpPoe)

        def client():
            yield a.connect(1)
            yield a.connect(1)

        env.process(client())
        env.run()
        assert a.session_count == 1

    def test_window_limits_inflight_but_acks_restore(self):
        """A multi-window message must still complete (acks recycle window)."""
        env, a, b = make_pair(TcpPoe, window_bytes=64 * units.KIB)
        got = []
        b.on_message(lambda hdr, data: got.append(env.now))
        b.accept(0)

        def client():
            yield a.connect(1)
            yield from a.transmit(1, 1 * units.MIB)

        env.process(client())
        env.run()
        assert len(got) == 1
        assert b.messages_received == 1
        assert a.acks_sent == 0 and b.acks_sent > 0

    def test_throughput_reaches_line_rate(self):
        env, a, b = make_pair(TcpPoe)
        done = {}
        b.on_message(lambda hdr, data: done.setdefault("t", env.now))
        b.accept(0)
        size = 16 * units.MIB

        def client():
            yield a.connect(1)
            start = env.now
            yield from a.transmit(1, size)
            done["tx"] = env.now - start

        env.process(client())
        env.run()
        goodput = units.to_gbps(size / done["t"])
        assert goodput > 85  # TCP headers at 1460 MSS cost a few percent


class TestRdma:
    def test_two_sided_send(self):
        env, a, b = make_pair(RdmaPoe)
        got = []
        b.on_message(lambda hdr, data: got.append(hdr))
        env.process(a.transmit(1, 4096, meta="rndz-init"))
        env.run()
        assert got[0].meta == "rndz-init"
        assert got[0].kind == "send"

    def test_qp_created_at_first_verb(self):
        """No QP exists before traffic; the first verb toward a peer makes
        one, and the receiver returns credits without one of its own."""
        env, a, b = make_pair(RdmaPoe)
        b.on_message(lambda hdr, data: None)
        assert a.qp_count == b.qp_count == 0
        env.process(a.transmit(1, 2 * a.segment_bytes))
        assert a.qp_count == 1
        env.run()
        assert b.messages_received == 1 and b.returns_sent == 2
        assert b.qp_count == 0
        credits = a.qp_to(1).credits
        assert credits.available == credits.capacity
        assert a.qp_count == 1

    def test_qp_to_self_rejected(self):
        env, a, _ = make_pair(RdmaPoe)
        with pytest.raises(ProtocolError):
            a.qp_to(0)

    def test_one_sided_write_bypasses_handler(self):
        env, a, b = make_pair(RdmaPoe)
        handler_msgs = []
        writes = []
        b.on_message(lambda hdr, data: handler_msgs.append(hdr))
        b.set_memory_writer(
            lambda hdr, data: writes.append((hdr.meta, hdr.nbytes, data))
        )
        payload = np.ones(1024)
        env.process(a.transmit(1, payload.nbytes, meta="vaddr:0x1000",
                               data=payload, kind="write"))
        env.run()
        assert handler_msgs == []
        assert len(writes) == 1
        desc, nbytes, data = writes[0]
        assert desc == "vaddr:0x1000"
        assert nbytes == payload.nbytes
        assert np.array_equal(data, payload)
        assert b.writes_completed == 1

    def test_write_without_memory_writer_is_error(self):
        env, a, b = make_pair(RdmaPoe)
        b.on_message(lambda hdr, data: None)
        env.process(a.transmit(1, 64, meta=None, kind="write"))
        with pytest.raises(ProtocolError, match="memory writer"):
            env.run()

    def test_credits_throttle_and_recover(self):
        env, a, b = make_pair(RdmaPoe, credit_bytes=128 * units.KIB)
        got = []
        b.on_message(lambda hdr, data: got.append(env.now))
        env.process(a.transmit(1, 2 * units.MIB))
        env.run()
        assert len(got) == 1

    def test_write_then_send_ordering(self):
        """RNDZ_DONE (SEND) issued after WRITE must arrive after the data."""
        env, a, b = make_pair(RdmaPoe)
        order = []
        b.on_message(lambda hdr, data: order.append(("send", hdr.meta)))
        b.set_memory_writer(lambda hdr, data: order.append(("write", None)))

        def sender():
            yield from a.transmit(1, 256 * units.KIB, meta="buf",
                                  kind="write")
            yield from a.transmit(1, 64, meta="RNDZ_DONE")

        env.process(sender())
        env.run()
        assert order[0][0] == "write"
        assert order[-1] == ("send", "RNDZ_DONE")

    def test_qp_reuse(self):
        env, a, b = make_pair(RdmaPoe)
        qp1 = a.qp_to(1)
        qp2 = a.qp_to(1)
        assert qp1 is qp2
        assert a.qp_count == 1

    def test_throughput_near_line_rate(self):
        env, a, b = make_pair(RdmaPoe)
        done = {}
        b.on_message(lambda hdr, data: done.setdefault("t", env.now))
        size = 16 * units.MIB
        env.process(a.transmit(1, size))
        env.run()
        goodput = units.to_gbps(size / done["t"])
        assert goodput > 90  # 4 KiB MTU: tiny header tax

    def test_segment_writer_sees_each_write_segment_once(self):
        """A 3-segment WRITE lands segment by segment; a 2-segment SEND and
        the credit returns of all five segments never reach a writer."""
        env, a, b = make_pair(RdmaPoe)
        landed, at_sender = [], []
        b.on_message(lambda hdr, data: None)
        b.set_memory_writer(lambda hdr, data: None)
        b.set_segment_writer(
            lambda hdr, nbytes: landed.append((hdr.kind, nbytes)))
        a.set_segment_writer(
            lambda hdr, nbytes: at_sender.append((hdr.kind, nbytes)))
        seg = a.segment_bytes

        def sender():
            yield from a.transmit(1, 2 * seg + 100, meta="buf",
                                  kind="write")
            yield from a.transmit(1, seg + 1, meta="ctl")

        env.process(sender())
        env.run()
        assert landed == [("write", seg), ("write", seg), ("write", 100)]
        assert at_sender == []
        assert b.returns_sent == 5
        credits = a.qp_to(1).credits
        assert credits.available == credits.capacity


class TestTransmit:
    """``transmit`` is the one transmit form: a generator a process runs
    with ``yield from``; argument errors raise at the call."""

    def _nothing_scheduled(self, env, poe):
        return not env._heap and not env._bucket and poe.messages_sent == 0

    @pytest.mark.parametrize("poe_cls", [UdpPoe, TcpPoe, RdmaPoe])
    def test_negative_size_raises_at_the_call(self, poe_cls):
        env, a, b = make_pair(poe_cls)
        if poe_cls is TcpPoe:
            a.accept(1)
        with pytest.raises(ProtocolError, match="negative"):
            a.transmit(1, -1)
        assert self._nothing_scheduled(env, a)

    def test_tcp_without_session_raises_at_the_call(self):
        env, a, b = make_pair(TcpPoe)
        with pytest.raises(ProtocolError, match="session"):
            a.transmit(1, 64)
        assert self._nothing_scheduled(env, a)

    def test_returns_header_at_local_completion(self):
        env, a, b = make_pair(UdpPoe)
        b.on_message(lambda hdr, data: None)
        done = []

        def sender():
            header = yield from a.transmit(1, 4096, meta="m")
            done.append(header)

        env.process(sender())
        env.run()
        assert done[0].meta == "m" and done[0].nbytes == 4096

    def test_tcp_ack_kind_raises_at_the_call(self):
        # "ack" is the TCP POE's window return: a message of that kind
        # would be taken for one at the receiver and never delivered.
        env, a, b = make_pair(TcpPoe)
        a.accept(1)
        b.accept(0)
        b.on_message(lambda hdr, data: None)
        with pytest.raises(ProtocolError, match="flow-control return"):
            a.transmit(1, 4096, meta=1, kind="ack")
        assert self._nothing_scheduled(env, a)

    @pytest.mark.parametrize("kind", ["send", "datagram", "ack", "credit"])
    def test_rdma_kinds_other_than_write_are_sends(self, kind):
        env, a, b = make_pair(RdmaPoe)
        got, writes = [], []
        b.on_message(lambda hdr, data: got.append(hdr))
        b.set_memory_writer(lambda hdr, data: writes.append(hdr))
        env.process(a.transmit(1, 128, meta="x", kind=kind))
        env.run()
        assert [h.kind for h in got] == ["send"] and writes == []

    def test_rdma_write_lands_through_memory_writer(self):
        env, a, b = make_pair(RdmaPoe)
        got, writes = [], []
        b.on_message(lambda hdr, data: got.append(hdr))
        b.set_memory_writer(lambda hdr, data: writes.append((hdr, data)))
        env.process(a.transmit(1, 128, meta="desc", data="payload",
                               kind="write"))
        env.run()
        assert got == []
        (hdr, data), = writes
        assert (hdr.kind, hdr.meta, data) == ("write", "desc", "payload")


def connected_pair(poe_cls, **kwargs):
    """Two engines with the TCP session between them in place (RDMA makes
    its QP at the first verb, UDP needs neither)."""
    env, a, b = make_pair(poe_cls, **kwargs)
    if poe_cls is TcpPoe:
        a.accept(1)
        b.accept(0)
    return env, a, b


def bucket_to(poe, peer):
    if isinstance(poe, TcpPoe):
        return poe.session_to(peer).window
    return poe.qp_to(peer).credits


class TestFlowControlReturns:
    """RDMA credits and TCP ACKs take one return path: the receiver sends
    one return per delivered data segment, and the sender's bucket for that
    peer takes the amount back."""

    # 32 full 32 KiB segments and a 1000 B tail
    SIZE = units.MIB + 1000

    def returns_seen_by(self, poe):
        """Record every return segment arriving at *poe*."""
        seen = []
        endpoint = poe.endpoint
        handler = endpoint._rx_handler

        def record(segment):
            if segment.meta.kind == poe.return_kind:
                seen.append(segment)
            handler(segment)

        endpoint._rx_handler = record
        return seen

    @pytest.mark.parametrize("poe_cls", [RdmaPoe, TcpPoe])
    def test_equal_amounts_from_one_peer_share_one_return(self, poe_cls):
        env, a, b = connected_pair(poe_cls)
        b.on_message(lambda hdr, data: None)
        seen = self.returns_seen_by(a)
        env.process(a.transmit(1, self.SIZE))
        env.run()
        assert [s.meta.meta for s in seen] == [a.segment_bytes] * 32 + [1000]
        full = seen[:32]
        assert all(s is full[0] for s in full)
        assert seen[-1] is not full[0]
        assert full[0].payload_bytes == a.return_bytes

    @pytest.mark.parametrize("poe_cls,kwargs", [
        (RdmaPoe, {"credit_bytes": 128 * units.KIB}),
        (TcpPoe, {"window_bytes": 128 * units.KIB}),
    ])
    def test_bucket_back_at_capacity_after_a_multi_segment_send(
            self, poe_cls, kwargs):
        env, a, b = connected_pair(poe_cls, **kwargs)
        got = []
        b.on_message(lambda hdr, data: got.append(hdr))
        env.process(a.transmit(1, self.SIZE))
        env.run()
        assert len(got) == 1
        bucket = bucket_to(a, 1)
        assert bucket.available == bucket.capacity == 128 * units.KIB

    def test_tcp_counts_one_ack_per_delivered_data_segment(self):
        env, a, b = connected_pair(TcpPoe)
        b.on_message(lambda hdr, data: None)
        env.process(a.transmit(1, self.SIZE))
        env.process(a.transmit(1, 0))
        env.run()
        assert b.acks_sent == 33 and a.acks_sent == 0


class _RecordingDict(dict):
    """A reassembly table that remembers every key stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


class TestReassembly:
    """A message that arrives in one segment is delivered without a
    reassembly record; a longer one is still reassembled."""

    @pytest.mark.parametrize("poe_cls", [UdpPoe, TcpPoe, RdmaPoe])
    def test_only_multi_segment_messages_take_a_record(self, poe_cls):
        env, a, b = connected_pair(poe_cls)
        got = []
        b.on_message(lambda hdr, data: got.append((hdr.nbytes, data)))
        b._rx_state = _RecordingDict()
        payload = np.arange(16)
        multi = 2 * a.segment_bytes + 1

        def sender():
            yield from a.transmit(1, payload.nbytes, data=payload)
            yield from a.transmit(1, 0, data="empty")
            yield from a.transmit(1, multi, data="whole")

        env.process(sender())
        env.run()
        assert [n for n, _ in got] == [payload.nbytes, 0, multi]
        assert np.array_equal(got[0][1], payload)
        assert got[1][1] == "empty" and got[2][1] == "whole"
        assert b._rx_state == {} and len(b._rx_state.stored) == 1


class TestDeferredPayload:
    """A cut-through send's payload resolves at POE delivery, not when the
    last byte arrives and not after the consumer's front-end latency (the
    one wait that merges the two skips deferred payloads)."""

    LATENCY = units.ns(40)

    def deliver(self, data, set_at=None):
        env, a, b = make_pair(UdpPoe)
        got = []
        b.on_message(lambda hdr, d: got.append((env.now, d)),
                     latency=self.LATENCY)
        if set_at is not None:
            env.schedule_callback_at(set_at, data.set, "filled")
        env.process(a.transmit(1, 4096, data=data))
        env.run()
        return got

    def handled_at(self):
        # The handler runs one front-end latency after the POE delivery.
        (t, data), = self.deliver("plain")
        assert data == "plain"
        return t

    def test_set_before_delivery_arrives_intact(self):
        handled = self.handled_at()
        delivered = handled - self.LATENCY
        got = self.deliver(DeferredPayload(),
                           set_at=delivered - units.ns(1))
        assert got == [(handled, "filled")]

    def test_unset_at_delivery_raises(self):
        with pytest.raises(ProtocolError, match="deferred payload"):
            self.deliver(DeferredPayload())

    def test_set_after_delivery_raises_before_the_handler_runs(self):
        delivered = self.handled_at() - self.LATENCY
        with pytest.raises(ProtocolError, match="deferred payload"):
            self.deliver(DeferredPayload(),
                         set_at=delivered + self.LATENCY / 2)
