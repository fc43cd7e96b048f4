"""Unit tests for the network fabric: segments, links, switch, topology."""

from types import SimpleNamespace

import pytest

from repro import units
from repro.errors import NetworkError
from repro.network import Link, Segment, StarTopology, Switch
from repro.network.packet import ETHERNET_HEADER_BYTES, Burst
from repro.obs.capture import throttle_links
from repro.obs.metrics import MetricsRegistry
from repro.sim import BandwidthResource, Environment, SimulationError


class TestSegment:
    def test_frame_count_rounds_up(self):
        seg = Segment(0, 1, payload_bytes=1501, mtu=1500)
        assert seg.n_frames == 2

    def test_zero_payload_is_one_frame(self):
        seg = Segment(0, 1, payload_bytes=0)
        assert seg.n_frames == 1

    def test_wire_bytes_include_headers(self):
        seg = Segment(0, 1, payload_bytes=3000, mtu=1500)
        assert seg.wire_bytes == 3000 + 2 * ETHERNET_HEADER_BYTES

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Segment(0, 1, payload_bytes=-1)

    def test_bad_mtu_rejected(self):
        with pytest.raises(ValueError):
            Segment(0, 1, payload_bytes=10, mtu=0)


class TestLink:
    def test_delivery_time_is_serialization_plus_latency(self):
        env = Environment()
        link = Link(env, rate=1000.0, latency=0.5)
        arrivals = []
        link.connect(lambda seg: arrivals.append((env.now, seg)))
        seg = Segment(0, 1, payload_bytes=1000 - ETHERNET_HEADER_BYTES, mtu=4000)
        link.send(seg)
        env.run()
        t, got = arrivals[0]
        assert got is seg
        assert t == pytest.approx(1.0 + 0.5)

    def test_back_to_back_segments_serialize(self):
        env = Environment()
        link = Link(env, rate=1000.0, latency=0.0)
        arrivals = []
        link.connect(lambda seg: arrivals.append(env.now))
        payload = 1000 - ETHERNET_HEADER_BYTES
        link.send(Segment(0, 1, payload_bytes=payload, mtu=4000))
        link.send(Segment(0, 1, payload_bytes=payload, mtu=4000))
        env.run()
        assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_send_without_sink_raises(self):
        env = Environment()
        link = Link(env)
        with pytest.raises(NetworkError):
            link.send(Segment(0, 1, payload_bytes=10))

    def test_double_connect_rejected(self):
        env = Environment()
        link = Link(env)
        link.connect(lambda s: None)
        with pytest.raises(NetworkError):
            link.connect(lambda s: None)

    def test_counters(self):
        env = Environment()
        link = Link(env, rate=1e9, latency=0.0)
        link.connect(lambda s: None)
        link.send(Segment(0, 1, payload_bytes=100, mtu=1500))
        env.run()
        assert link.segments_carried == 1
        assert link.bytes_carried == 100 + ETHERNET_HEADER_BYTES

    def test_link_is_its_own_serializer(self):
        env = Environment()
        link = Link(env, rate=1000.0, latency=0.0)
        assert isinstance(link, BandwidthResource)
        assert not hasattr(link, "_pipe")
        link.connect(lambda s: None)
        payload = 1000 - ETHERNET_HEADER_BYTES
        assert link.send(Segment(0, 1, payload_bytes=payload, mtu=4000)) == 1.0
        assert link.busy_until() == 1.0
        assert link.bytes_moved == link.bytes_carried == 1000

    def test_byte_and_utilization_gauges_keep_names_and_values(self):
        env = Environment()
        link = Link(env, rate=1000.0, latency=0.0, name="up")
        link.connect(lambda s: None)
        registry = MetricsRegistry()
        link.register_metrics(registry, node="n0")
        payload = 500 - ETHERNET_HEADER_BYTES
        link.send(Segment(0, 1, payload_bytes=payload, mtu=4000))
        env.run(until=1.0)
        gauges = registry.snapshot()["gauges"]
        assert gauges["link_bytes_moved{link=up,node=n0}"] == 500.0
        assert gauges["link_utilization{link=up,node=n0}"] == 0.5
        assert gauges["link_segments_carried{link=up,node=n0}"] == 1.0

    def test_nan_delivery_time_raises(self):
        env = Environment()
        link = Link(env, rate=1000.0, latency=float("nan"))
        link.connect(lambda s: None)
        with pytest.raises(SimulationError):
            link.send(Segment(0, 1, payload_bytes=10))

    def test_pump_rejects_a_delivery_time_in_the_past(self):
        # The pump re-arms itself without the kernel's scheduling calls;
        # a queued delivery time before now must still fail loudly.
        env = Environment()
        link = Link(env, rate=1000.0, latency=0.5)
        link.connect(lambda s: None)
        link.send(Segment(0, 1, payload_bytes=10))
        second = Segment(0, 1, payload_bytes=10)
        link.send(second)
        link._in_flight[1] = (-1.0, second)
        with pytest.raises(SimulationError, match="cannot deliver"):
            env.run()


class TestThrottleLinks:
    """``throttle_links`` rescales a link's one rate, and both the packet
    path and the flow burst path serialize by it."""

    FACTOR = 4.0

    def links(self):
        env = Environment()
        fast = Link(env, rate=units.gbps(100), latency=units.us(1),
                    name="fpga0.up")
        slow = Link(env, rate=units.gbps(100), latency=units.us(1),
                    name="fpga1.down")
        for link in (fast, slow):
            link.connect(lambda s: None)
            link.connect_burst(lambda b: None, at_tail=True)
        cluster = SimpleNamespace(
            topology=SimpleNamespace(iter_links=lambda: [fast, slow]))
        assert throttle_links(cluster, "down", self.FACTOR) == ["fpga1.down"]
        return fast, slow

    def test_rescales_the_one_rate(self):
        fast, slow = self.links()
        assert slow.rate == fast.rate / self.FACTOR

    def test_packet_segment_serializes_factor_times_slower(self):
        fast, slow = self.links()
        seg = Segment(0, 1, payload_bytes=32 * units.KIB, mtu=4096)
        assert slow.send(seg) == pytest.approx(
            self.FACTOR * fast.send(seg), rel=1e-12)

    def test_flow_burst_serializes_factor_times_slower(self):
        fast, slow = self.links()

        def burst():
            seg = 32 * units.KIB
            return Burst(src=0, dst=1, payload_bytes=8 * seg, n_segments=8,
                         segment_bytes=seg, last_bytes=seg, head_at=0.0,
                         spacing=0.0, last_at=0.0)

        fast.send_burst(burst())
        slow.send_burst(burst())
        assert slow.busy_until() == pytest.approx(
            self.FACTOR * fast.busy_until(), rel=1e-12)


class TestSwitchAndTopology:
    def test_star_routes_between_endpoints(self):
        env = Environment()
        topo = StarTopology(env)
        a = topo.add_endpoint(0, "a")
        b = topo.add_endpoint(1, "b")
        got = []
        b.on_receive(lambda seg: got.append((env.now, seg.payload_bytes)))
        a.send(Segment(0, 1, payload_bytes=1024))
        env.run()
        assert len(got) == 1
        assert got[0][1] == 1024

    def test_unknown_destination_raises(self):
        env = Environment()
        topo = StarTopology(env)
        a = topo.add_endpoint(0)
        a.send(Segment(0, 99, payload_bytes=10))
        with pytest.raises(NetworkError, match="no route"):
            env.run()

    def test_duplicate_address_rejected(self):
        env = Environment()
        topo = StarTopology(env)
        topo.add_endpoint(0)
        with pytest.raises(NetworkError):
            topo.add_endpoint(0)

    def test_wrong_source_address_rejected(self):
        env = Environment()
        topo = StarTopology(env)
        a = topo.add_endpoint(0)
        topo.add_endpoint(1)
        with pytest.raises(NetworkError, match="src"):
            a.send(Segment(5, 1, payload_bytes=10))

    def test_endpoint_lookup(self):
        env = Environment()
        topo = StarTopology(env)
        a = topo.add_endpoint(0)
        assert topo.endpoint(0) is a
        with pytest.raises(NetworkError):
            topo.endpoint(7)

    def test_incast_contention_serializes_on_egress(self):
        """Two senders to one receiver share the receiver's downlink."""
        env = Environment()
        topo = StarTopology(env, link_rate=1000.0, link_latency=0.0)
        a = topo.add_endpoint(0)
        b = topo.add_endpoint(1)
        c = topo.add_endpoint(2)
        arrivals = []
        c.on_receive(lambda seg: arrivals.append(env.now))
        payload = 1000 - ETHERNET_HEADER_BYTES
        a.send(Segment(0, 2, payload_bytes=payload, mtu=4000))
        b.send(Segment(1, 2, payload_bytes=payload, mtu=4000))
        env.run()
        assert len(arrivals) == 2
        # Uplinks run in parallel (both finish ~t=1) but the shared egress
        # serializes: second delivery lands ~1 s after the first.
        assert arrivals[1] - arrivals[0] == pytest.approx(1.0, rel=0.01)

    def test_base_latency_composition(self):
        env = Environment()
        topo = StarTopology(env, link_latency=units.ns(500))
        expected = 2 * units.ns(500) + topo.switch.forwarding_latency
        assert topo.one_way_base_latency() == pytest.approx(expected)

    def test_oversized_segment_rejected(self):
        env = Environment()
        topo = StarTopology(env)
        a = topo.add_endpoint(0)
        topo.add_endpoint(1)
        with pytest.raises(NetworkError, match="segment"):
            a.send(Segment(0, 1, payload_bytes=64 * units.MIB))

    def test_hundred_gbps_large_transfer_goodput(self):
        """A segmented 64 MiB transfer should land close to 100 Gb/s."""
        env = Environment()
        topo = StarTopology(env)
        a = topo.add_endpoint(0)
        b = topo.add_endpoint(1)
        size = 64 * units.MIB
        seg_bytes = 32 * units.KIB
        expected_segments = size // seg_bytes
        done = {}
        count = {"n": 0}

        def on_rx(seg):
            count["n"] += 1
            if count["n"] == expected_segments:
                done["t"] = env.now

        b.on_receive(on_rx)
        for i in range(expected_segments):
            a.send(Segment(0, 1, payload_bytes=seg_bytes, mtu=1500, seqno=i))
        env.run()
        goodput = units.to_gbps(size / done["t"])
        assert 90 < goodput < 100
