"""Flow-level fast-forward fidelity: correctness against packet mode.

``fidelity="flow"`` replaces per-segment wire events on uncongested paths
with analytic :class:`~repro.network.packet.Burst` trains.  The contract is
that it stays *invisible* in results: packet mode is the calibrated truth,
and every deviation here must be either exactly zero (idle point-to-point
paths) or bounded by the documented approximations (sub-burst fallback
boundaries, control frames that queue behind a whole train).  The full
per-artifact check is ``python -m repro.bench validate-fidelity``; these
tests pin the mechanism at unit and kernel level so regressions localize.
"""

import pytest

from repro import units
from repro.bench.harness import (
    _accl_p2p_time,
    _mpi_p2p_time,
    accl_collective_time,
)
from repro.errors import ConfigurationError, NetworkError
from repro.network import Link, Segment, StarTopology
from repro.network.fidelity import default_fidelity, fidelity_override
from repro.network.packet import Burst
from repro.protocols import RdmaPoe, TcpPoe
from repro.protocols.base import BasePoe
from repro.sim import Environment


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestDefaults:
    def test_default_fidelity_is_packet(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIDELITY", raising=False)
        assert default_fidelity() == "packet"

    def test_override_restores_previous(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "packet")
        with fidelity_override("flow"):
            assert default_fidelity() == "flow"
        assert default_fidelity() == "packet"

    def test_unknown_fidelity_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "cycle")
        with pytest.raises(ConfigurationError):
            default_fidelity()
        monkeypatch.setenv("REPRO_FIDELITY", "packet")
        with pytest.raises(ConfigurationError):
            with fidelity_override("cycle"):
                pass
        assert default_fidelity() == "packet"

    def test_packet_mode_never_fast_forwards(self):
        with fidelity_override("packet"):
            before = Environment.total_events_fast_forwarded
            elapsed = _mpi_p2p_time(units.MIB, 1)
            assert elapsed > 0.0
            assert Environment.total_events_fast_forwarded == before


class TestKernelEquivalence:
    """Flow mode must reproduce packet-mode timings."""

    @pytest.mark.parametrize("size", [16 * units.MIB, 64 * units.MIB])
    def test_accl_p2p_exact(self, size):
        with fidelity_override("packet"):
            packet = _accl_p2p_time(size, n_msgs=1, location="device")
        with fidelity_override("flow"):
            ff0 = Environment.total_events_fast_forwarded
            flow = _accl_p2p_time(size, n_msgs=1, location="device")
            forwarded = Environment.total_events_fast_forwarded - ff0
        # Idle p2p path: the closed form is exact (float noise only).
        assert _rel(packet, flow) < 1e-9
        assert forwarded > 0

    @pytest.mark.parametrize("n_msgs", [2, 4])
    def test_accl_concurrent_convoy(self, n_msgs):
        # Concurrent equal senders interleave round-robin on the uplink;
        # the convoy grid reproduces that to within a constant ~10 ns
        # end effect (the completion notification queues behind the whole
        # convoy tail instead of slotting right after its own message).
        size = 16 * units.MIB
        with fidelity_override("packet"):
            packet = _accl_p2p_time(size, n_msgs=n_msgs, location="device")
        with fidelity_override("flow"):
            ff0 = Environment.total_events_fast_forwarded
            flow = _accl_p2p_time(size, n_msgs=n_msgs, location="device")
            forwarded = Environment.total_events_fast_forwarded - ff0
        assert _rel(packet, flow) < 1e-5
        # Every message must ride the convoy: nearly all of the
        # n_msgs * size/32KiB wire segments are elided, not just the
        # first sender's opening window.
        assert forwarded > n_msgs * (size // (32 * units.KIB)) // 2

    def test_mpi_rendezvous_p2p_exact_when_uncontended(self):
        with fidelity_override("packet"):
            packet = _mpi_p2p_time(16 * units.MIB, 1)
        with fidelity_override("flow"):
            flow = _mpi_p2p_time(16 * units.MIB, 1)
        assert _rel(packet, flow) < 1e-9

    def test_mpi_concurrent_bulk_falls_back_within_bound(self):
        # Four concurrent rendezvous messages share the uplink: admission
        # (and the per-sub-burst re-check) must drop to packet fidelity,
        # leaving at most a one-sub-burst boundary residue.
        with fidelity_override("packet"):
            packet = _mpi_p2p_time(16 * units.MIB, 4)
        with fidelity_override("flow"):
            flow = _mpi_p2p_time(16 * units.MIB, 4)
        assert _rel(packet, flow) < 1e-3

    def test_collective_within_tolerance(self):
        # 32 MiB over 4 ranks: ring chunks are 8 MiB, right at the flow
        # admission floor, so the collective actually exercises bursts.
        with fidelity_override("packet"):
            packet = accl_collective_time("allreduce", 32 * units.MIB,
                                          n_nodes=4)
        with fidelity_override("flow"):
            ff0 = Environment.total_events_fast_forwarded
            flow = accl_collective_time("allreduce", 32 * units.MIB,
                                        n_nodes=4)
            forwarded = Environment.total_events_fast_forwarded - ff0
        assert _rel(packet, flow) < 5e-3
        assert forwarded > 0

    def test_below_floor_message_stays_packet(self):
        # 1 MiB is under the admission floor: the residual one-window
        # skew would not be small relative to the message, so flow mode
        # must leave it untouched (bit-identical, nothing forwarded).
        with fidelity_override("packet"):
            packet = _mpi_p2p_time(units.MIB, 1)
        with fidelity_override("flow"):
            ff0 = Environment.total_events_fast_forwarded
            flow = _mpi_p2p_time(units.MIB, 1)
            forwarded = Environment.total_events_fast_forwarded - ff0
        assert packet == flow
        assert forwarded == 0

    @pytest.mark.parametrize("opcode,algorithm,admitted", [
        ("bcast", None, 15),
        ("allreduce", "reduce_bcast", 30),
    ])
    def test_tree_sends_stay_analytic(self, opcode, algorithm, admitted):
        # Inner tree nodes send one 16 MiB block after another, so each
        # send after a node's first finds its uplink still serializing the
        # previous block's last segment.  The uplink admits the burst
        # behind that backlog: no message falls back to packets.
        from repro.bench.harness import scale_topology_factory
        from repro.cluster import build_fpga_cluster

        factory = scale_topology_factory("fattree", 16)
        clusters = []

        def fat_tree_cluster(n, **kw):
            clusters.append(build_fpga_cluster(
                n, topology_factory=factory, **kw))
            return clusters[-1]

        def run():
            e0 = Environment.total_events_processed
            elapsed = accl_collective_time(
                opcode, 16 * units.MIB, n_nodes=16, sync_protocol="rndz",
                algorithm=algorithm, cluster_builder=fat_tree_cluster)
            return elapsed, Environment.total_events_processed - e0

        with fidelity_override("packet"):
            packet, packet_events = run()
        with fidelity_override("flow"):
            flow, flow_events = run()
        decisions = {}
        for rank in range(16):
            poe = clusters[-1].engine(rank).poe
            for reason, count in poe.flow_tx_decisions.items():
                decisions[reason] = decisions.get(reason, 0) + count
        assert "fallback:link_declined" not in decisions
        assert decisions["admit"] == admitted
        assert _rel(packet, flow) < 1e-9
        assert flow_events <= packet_events / 10

    @pytest.mark.parametrize("poe_cls", [RdmaPoe, TcpPoe])
    def test_lone_send_fast_forwards_what_packet_dispatches(self, poe_cls):
        """A 16 MiB send on a 2-node star is admitted, ends where packet
        mode ends, and its real plus fast-forwarded events match packet
        mode's real events to within one per sub-burst."""
        def send(fidelity):
            with fidelity_override(fidelity):
                env = Environment()
                topo = StarTopology(env)
                a = poe_cls(env, topo.add_endpoint(0))
                b = poe_cls(env, topo.add_endpoint(1))
            if poe_cls is TcpPoe:
                a.accept(1)
                b.accept(0)
            done = []
            b.on_message(lambda hdr, data: done.append(env.now))
            e0 = Environment.total_events_processed
            ff0 = Environment.total_events_fast_forwarded
            env.process(a.transmit(1, 16 * units.MIB))
            env.run()
            return (done[0], Environment.total_events_processed - e0,
                    Environment.total_events_fast_forwarded - ff0,
                    a.flow_tx_decisions)

        packet_t, packet_events, _, _ = send("packet")
        flow_t, flow_events, forwarded, decisions = send("flow")
        assert decisions["admit"] == 1
        assert _rel(packet_t, flow_t) < 1e-12
        sub_bursts = 16 * units.MIB // (
            BasePoe.segment_bytes * BasePoe._FLOW_SUBBURST_SEGMENTS)
        assert abs(flow_events + forwarded - packet_events) <= sub_bursts

    def test_flow_reduces_heap_events(self):
        # One uncontended 16 MiB transfer: the segment train collapses to
        # a handful of burst events per hop (~30x fewer heap pops).  With
        # concurrent messages (n_msgs>1) no reduction is expected — packet
        # mode fair-shares the uplink, so flow mode must fall back.
        size = 16 * units.MIB
        with fidelity_override("packet"):
            e0 = Environment.total_events_processed
            _accl_p2p_time(size, n_msgs=1, location="device")
            packet_events = Environment.total_events_processed - e0
        with fidelity_override("flow"):
            e0 = Environment.total_events_processed
            _accl_p2p_time(size, n_msgs=1, location="device")
            flow_events = Environment.total_events_processed - e0
        assert flow_events < packet_events / 5


def _burst(env, n=8, seg=32 * units.KIB, meta=None, seq_base=0, share=1):
    return Burst(src=0, dst=1, payload_bytes=n * seg, n_segments=n,
                 segment_bytes=seg, last_bytes=seg, meta=meta,
                 head_at=env.now, spacing=0.0, last_at=env.now,
                 seq_base=seq_base, share=share)


class TestLinkBurstPath:
    def _flow_link(self):
        env = Environment()
        link = Link(env, rate=units.gbps(100), latency=units.us(1))
        segments, bursts = [], []
        link.connect(segments.append)
        link.connect_burst(bursts.append, at_tail=True)
        return env, link, segments, bursts

    def test_idle_link_carries_burst_analytically(self):
        env, link, segments, bursts = self._flow_link()
        link.send_burst(_burst(env))
        env.run()
        assert len(bursts) == 1 and not segments

    @pytest.mark.parametrize("entry", ["send_burst", "try_send_burst"])
    def test_unwired_link_raises_at_the_call(self, entry):
        # As ``send`` does with no sink: a burst sent into a link without
        # a burst sink is a wiring error, raised before anything is booked.
        env = Environment()
        link = Link(env, rate=units.gbps(100), latency=units.us(1))
        segments = []
        link.connect(segments.append)
        with pytest.raises(NetworkError, match="no burst sink"):
            getattr(link, entry)(_burst(env))
        env.run()
        assert not segments and not link.flow_decisions
        assert link._free_at == 0.0

    def test_busy_link_expands_foreign_burst(self):
        env, link, segments, bursts = self._flow_link()
        link.send(Segment(0, 1, payload_bytes=32 * units.KIB,
                          meta=object()))
        link.send_burst(_burst(env, meta=object()))
        env.run()
        # 1 plain segment + all 8 of the expanded train, zero bursts.
        assert len(segments) == 9 and not bursts

    def test_own_tail_continues_analytically(self):
        env, link, segments, bursts = self._flow_link()
        owner = object()
        link.send_burst(_burst(env, meta=owner))
        link.send_burst(_burst(env, meta=owner, seq_base=8))
        env.run()
        assert len(bursts) == 2 and not segments

    def test_first_hop_admits_behind_its_own_backlog(self):
        # Message A is handed off, a control frame sent 300 ns later
        # queues at A's tail, and message B's opening burst is offered
        # behind both.  The uplink carries B analytically, starting where
        # packet FIFO starts B's first segment: after A's last segment and
        # the control frame.
        seg = 32 * units.KIB
        gap = units.ns(300)
        env, link, segments, bursts = self._flow_link()
        handoffs = []

        def sender():
            handoff = link.try_send_burst(_burst(env, meta="A"))
            yield handoff - env.now
            yield gap
            link.send(Segment(0, 1, payload_bytes=16, meta="control"))
            handoffs.append(link.try_send_burst(_burst(env, meta="B")))

        env.process(sender())
        env.run()
        assert handoffs[0] is not None
        assert [b.meta for b in bursts] == ["A", "B"]
        flow_done = bursts[-1].last_at

        env2 = Environment()
        link2 = Link(env2, rate=units.gbps(100), latency=units.us(1))
        arrivals = []
        link2.connect(lambda s: arrivals.append((env2.now, s.meta)))

        def paced(meta):
            for i in range(8):
                done = link2.send(Segment(0, 1, payload_bytes=seg, meta=meta))
                if i < 7:
                    yield done - env2.now

        def replay():
            yield from paced("A")
            yield gap
            link2.send(Segment(0, 1, payload_bytes=16, meta="control"))
            yield from paced("B")

        env2.process(replay())
        env2.run()
        assert [m for _, m in arrivals[7:10]] == ["A", "control", "B"]
        assert flow_done == arrivals[-1][0] == 44.582240000000004e-6

    def test_continuation_queues_behind_a_tail_control(self):
        # A control frame sent at a sub-burst's handoff queues at its
        # tail; the message's next sub-burst, offered at that instant,
        # starts behind it, as the packet loop's next segment would.
        seg = 32 * units.KIB
        env, link, segments, bursts = self._flow_link()

        def sender():
            handoff = link.try_send_burst(_burst(env, meta="A"))
            yield env.timeout_at(handoff)
            link.send(Segment(0, 1, payload_bytes=16, meta="control"))
            link.try_send_burst(_burst(env, meta="A", seq_base=8))

        env.process(sender())
        env.run()

        env2 = Environment()
        link2 = Link(env2, rate=units.gbps(100), latency=units.us(1))
        arrivals = []
        link2.connect(lambda s: arrivals.append(env2.now))

        def replay():
            for i in range(16):
                done = link2.send(Segment(0, 1, payload_bytes=seg))
                if i == 7:
                    link2.send(Segment(0, 1, payload_bytes=16))
                if i < 15:
                    yield done - env2.now

        env2.process(replay())
        env2.run()
        assert len(bursts) == 2
        assert bursts[-1].last_at == arrivals[-1] == 44.582240000000004e-6

    def test_sub_burst_continuation_matches_packet_timing(self):
        # One 16-segment message as 2 sub-bursts vs 16 paced segments:
        # the final delivery instant must agree to float precision.
        seg = 32 * units.KIB
        owner = object()

        env, link, segments, bursts = self._flow_link()
        link.send_burst(_burst(env, n=8, meta=owner))
        handoff = link.send_burst(_burst(env, n=8, meta=owner, seq_base=8))
        env.run()
        flow_done = bursts[-1].last_at
        assert handoff < flow_done

        env2 = Environment()
        link2 = Link(env2, rate=units.gbps(100), latency=units.us(1))
        arrivals = []
        link2.connect(lambda s: arrivals.append(env2.now))

        def sender():
            for _ in range(16):
                done = link2.send(Segment(0, 1, payload_bytes=seg))
                pause = done - env2.now
                if pause > 0.0:
                    yield pause

        env2.process(sender())
        env2.run()
        assert flow_done == pytest.approx(arrivals[-1], rel=1e-12)

    @pytest.mark.parametrize("payload", [64, 32 * units.KIB],
                             ids=["control", "segment"])
    def test_segment_sent_mid_train_queues_behind_it(self, payload):
        # A control frame and a data segment alike, sent while an analytic
        # train is on the wire, leave after the train's last segment: the
        # train's reservation is a FIFO reservation like any other, and the
        # wire is never booked twice.
        env, link, segments, bursts = self._flow_link()
        link.send_burst(_burst(env, n=64))
        train_end = link._free_at
        egress = []

        def sender():
            yield train_end / 2
            egress.append(link.send(
                Segment(0, 1, payload_bytes=payload, meta=object())))

        env.process(sender())
        env.run()
        assert egress[0] > train_end
        assert link._busy_time == link._free_at
        assert len(segments) == 1 and len(bursts) == 1

    def test_controls_queue_fifo_behind_the_train(self):
        env, link, segments, bursts = self._flow_link()
        link.send_burst(_burst(env, n=64))
        train_end = link._free_at
        first = link.send(Segment(0, 1, payload_bytes=64, meta=object()))
        second = link.send(Segment(0, 1, payload_bytes=64, meta=object()))
        assert train_end < first < second == link._free_at

    def test_burst_seq_base_offsets_expanded_seqnos(self):
        env = Environment()
        burst = _burst(env, n=4, seq_base=12)
        seqnos = [s.seqno for _, s in burst.iter_segments()]
        assert seqnos == [12, 13, 14, 15]

    def test_convoy_simultaneous_formation(self):
        # Two share=2 bursts reaching an idle link at the same instant
        # form a round-robin convoy: both spaced at 2x the segment time,
        # the second's head exactly one slot behind the first's.
        env, link, segments, bursts = self._flow_link()
        ba = _burst(env, meta=object(), share=2)
        bb = _burst(env, meta=object(), share=2)
        assert link.try_send_burst(ba) is not None
        assert link.try_send_burst(bb) is not None
        env.run()
        assert len(bursts) == 2 and not segments
        dur = ba.wire_full / link.rate
        assert ba.spacing == pytest.approx(2 * dur)
        assert bb.spacing == pytest.approx(2 * dur)
        assert bb.head_at - ba.head_at == pytest.approx(dur)

    def test_convoy_respaces_staggered_founder(self):
        # A sender that started alone lays a solid train; a sibling
        # arriving within one segment time joins by re-spacing the
        # founder's committed train onto the shared grid — the FIFO
        # interleaving packet mode would have produced.
        env, link, segments, bursts = self._flow_link()
        probe = _burst(env)
        dur = probe.wire_full / link.rate
        res = {}

        def founder():
            res["f"] = link.try_send_burst(
                _burst(env, meta=object(), share=1))
            yield 0.0

        def joiner():
            yield dur / 2
            res["j"] = link.try_send_burst(
                _burst(env, meta=object(), share=2))

        env.process(founder())
        env.process(joiner())
        env.run()
        assert res["f"] is not None and res["j"] is not None
        assert len(bursts) == 2 and not segments
        first, second = bursts
        assert first.spacing == pytest.approx(2 * dur)
        assert second.spacing == pytest.approx(2 * dur)
        assert second.head_at - first.head_at == pytest.approx(dur)

    def test_convoy_declines_joiner_after_first_delivery(self):
        # Once any of the founder's train has been delivered downstream
        # (one serialization + one propagation) re-spacing would rewrite
        # history: the joiner must be declined, with no side effects on
        # the founder's committed solid train.
        env, link, segments, bursts = self._flow_link()
        probe = _burst(env)
        dur = probe.wire_full / link.rate
        res = {}

        def founder():
            link.try_send_burst(_burst(env, meta=object(), share=1))
            yield 0.0

        def joiner():
            yield 2 * dur + link.latency
            res["j"] = link.try_send_burst(
                _burst(env, meta=object(), share=2))

        env.process(founder())
        env.process(joiner())
        env.run()
        assert res["j"] is None
        assert len(bursts) == 1 and not segments
        assert bursts[0].spacing == pytest.approx(dur)  # still solid


class TestBulkConvoyShare:
    """Concurrent bulk transmits form a convoy whose ``share`` counts each
    message from its arrival at the POE.  The Tx FSM wait of a bulk message
    therefore stays apart from its POE latency: waiting both out in one
    step would admit the four messages at different shares."""

    def test_four_concurrent_rendezvous_sends(self):
        from repro.cclo.microcontroller import CollectiveArgs
        from repro.cluster import build_fpga_cluster
        from repro.platform.base import BufferLocation
        from repro.sim import all_of

        size = 256 * units.MIB
        with fidelity_override("flow"):
            cluster = build_fpga_cluster(2, protocol="rdma",
                                         platform="coyote")
            env = cluster.env
            events = []
            for i in range(4):
                views = [cluster.nodes[r].platform.allocate(
                    size, BufferLocation.DEVICE).view() for r in (0, 1)]
                events.append(cluster.engine(1).call(CollectiveArgs(
                    opcode="recv", nbytes=size, peer=0, tag=i,
                    rbuf=views[1], protocol="rndz")))
                events.append(cluster.engine(0).call(CollectiveArgs(
                    opcode="send", nbytes=size, peer=1, tag=i,
                    sbuf=views[0], protocol="rndz")))
            ff0 = Environment.total_events_fast_forwarded
            env.run(until=all_of(env, events))
        assert env.now == 0.0871252912
        assert Environment.total_events_fast_forwarded - ff0 == 160_768
        assert cluster.engine(0).poe.flow_tx_decisions == {
            "admit": 4, "window:readmit": 1020}
        assert cluster.engine(1).poe.flow_tx_decisions == {}


class _HandoffEndpoint:
    """Endpoint stub whose uplink takes every burst and hands its last
    segment to the wire at one fixed instant."""

    address = 0
    fidelity = "flow"
    uplink = None

    def __init__(self, handoff):
        self.handoff = handoff

    def on_receive(self, handler):
        pass

    def send_burst(self, burst):
        return self.handoff


class TestFlowHandoffWake:
    """A flow transmit resumes at its sub-burst's handoff exactly, also
    where the relative sleep ``now + (handoff - now)`` would miss it."""

    def test_resumes_at_the_handoff(self):
        from repro.protocols import UdpPoe
        from repro.protocols.base import MessageHeader

        start, handoff = 0.7, 3.1
        assert start + (handoff - start) != handoff
        env = Environment()
        poe = UdpPoe(env, _HandoffEndpoint(handoff))
        header = MessageHeader(msg_id=1, src_addr=0, dst_addr=1,
                               nbytes=2 * poe.segment_bytes)
        woke = []

        def sender():
            yield start
            sent = yield from poe._flow_tx_run(header, None, None, None)
            woke.append((env.now, sent))

        env.process(sender())
        env.run()
        assert woke == [(handoff, (0, 2))]
