"""Tests of the two-tier leaf-spine fabric."""

import numpy as np
import pytest

from repro import units
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import build_fpga_cluster
from repro.errors import NetworkError
from repro.network import Segment
from repro.network.topology import LeafSpineTopology
from repro.sim import Environment, all_of
from tests.helpers import dev_buffer, empty_dev_buffer


def make_topo(env=None, **kwargs):
    env = env or Environment()
    return env, LeafSpineTopology(env, **kwargs)


class TestFabric:
    def test_intra_leaf_delivery(self):
        env, topo = make_topo(ports_per_leaf=4)
        a = topo.add_endpoint(0)
        b = topo.add_endpoint(1)
        got = []
        b.on_receive(lambda seg: got.append(env.now))
        a.send(Segment(0, 1, payload_bytes=1024))
        env.run()
        assert len(got) == 1

    def test_cross_leaf_delivery(self):
        env, topo = make_topo(ports_per_leaf=2)
        a = topo.add_endpoint(0)   # leaf 0
        b = topo.add_endpoint(2)   # leaf 1
        got = []
        b.on_receive(lambda seg: got.append(env.now))
        a.send(Segment(0, 2, payload_bytes=1024))
        env.run()
        assert len(got) == 1

    def test_cross_leaf_slower_than_intra_leaf(self):
        def latency(dst):
            env, topo = make_topo(ports_per_leaf=2)
            a = topo.add_endpoint(0)
            topo.add_endpoint(1)
            topo.add_endpoint(2)
            got = []
            topo.endpoint(dst).on_receive(lambda seg: got.append(env.now))
            a.send(Segment(0, dst, payload_bytes=64))
            env.run()
            return got[0]

        assert latency(2) > latency(1)  # two extra hops + two switches

    def test_base_latency_accounting(self):
        env, topo = make_topo()
        assert (topo.one_way_base_latency(cross_leaf=True)
                > topo.one_way_base_latency(cross_leaf=False))

    def test_switch_hop_costs_one_kernel_event(self):
        """A cross-leaf segment crosses four links and three switches in
        four kernel events: each switch forwards inside its ingress
        link's delivery, which already includes the forwarding latency."""
        env, topo = make_topo(ports_per_leaf=2)
        a = topo.add_endpoint(0)
        b = topo.add_endpoint(2)
        got = []
        b.on_receive(lambda seg: got.append(env.now))
        seg = Segment(0, 2, payload_bytes=1024)
        before = Environment.total_events_processed
        a.send(seg)
        env.run()
        assert Environment.total_events_processed - before == 4
        link = a.uplink
        serialization = seg.wire_bytes / link.rate
        forwarding = topo._spines[0].forwarding_latency
        # Per hop: the link delivers at now + (egress + latency - now) and
        # a switch forwards one forwarding latency later, with the same
        # two roundings as two separately scheduled events.
        t = 0.0
        for hop in range(4):
            t = t + (t + serialization + link.latency - t)
            if hop < 3:
                t = t + forwarding
        assert got == [t]
        assert t == pytest.approx(4 * (serialization + link.latency)
                                  + 3 * forwarding, rel=1e-12)

    def test_leaf_mapping(self):
        _, topo = make_topo(ports_per_leaf=4)
        assert topo.leaf_of(0) == 0
        assert topo.leaf_of(3) == 0
        assert topo.leaf_of(4) == 1

    def test_flow_hash_keeps_one_flow_ordered(self):
        env, topo = make_topo(ports_per_leaf=1, n_spines=4)
        a = topo.add_endpoint(0)
        b = topo.add_endpoint(1)
        got = []
        b.on_receive(lambda seg: got.append(seg.seqno))
        for i in range(16):
            a.send(Segment(0, 1, payload_bytes=8 * units.KIB, seqno=i))
        env.run()
        assert got == list(range(16))

    def test_duplicate_address_rejected(self):
        _, topo = make_topo()
        topo.add_endpoint(0)
        with pytest.raises(NetworkError):
            topo.add_endpoint(0)

    def test_bad_geometry_rejected(self):
        env = Environment()
        with pytest.raises(NetworkError):
            LeafSpineTopology(env, ports_per_leaf=0)

    def test_spines_share_cross_leaf_load(self):
        """With several flows, more than one spine carries traffic."""
        env, topo = make_topo(ports_per_leaf=4, n_spines=2)
        for addr in range(8):
            ep = topo.add_endpoint(addr)
            ep.on_receive(lambda seg: None)
        for src in range(4):
            for dst in range(4, 8):
                topo.endpoint(src).send(
                    Segment(src, dst, payload_bytes=4096))
        env.run()
        loads = [sp.segments_forwarded for sp in topo._spines]
        assert all(load > 0 for load in loads)


class TestEdgeCases:
    def test_lazy_leaf_growth_beyond_initial_leaf(self):
        """Leaves materialize on demand, including skipped intermediates."""
        env, topo = make_topo(ports_per_leaf=4)
        topo.add_endpoint(0)
        assert len(topo._leaves) == 1
        far = topo.add_endpoint(9)       # leaf 2: leaf 1 materializes too
        assert len(topo._leaves) == 3
        got = []
        far.on_receive(lambda seg: got.append(seg.src))
        topo.endpoint(0).send(Segment(0, 9, payload_bytes=1024))
        env.run()
        assert got == [0]

    def test_single_spine_single_port_degenerate_fabric(self):
        """ports_per_leaf=1, n_spines=1: every hop is cross-leaf, one path."""
        env, topo = make_topo(ports_per_leaf=1, n_spines=1)
        a = topo.add_endpoint(0)
        b = topo.add_endpoint(1)
        got = []
        a.on_receive(lambda seg: got.append(("a", seg.src)))
        b.on_receive(lambda seg: got.append(("b", seg.src)))
        a.send(Segment(0, 1, payload_bytes=512))
        b.send(Segment(1, 0, payload_bytes=512))
        env.run()
        assert sorted(got) == [("a", 1), ("b", 0)]
        assert topo._spines[0].segments_forwarded == 2

    def test_single_endpoint_fabric(self):
        env, topo = make_topo(ports_per_leaf=1, n_spines=1)
        topo.add_endpoint(0)
        assert topo.endpoints[0].address == 0

    def test_ecmp_spine_choice_is_deterministic_across_builds(self):
        """The flow hash is address arithmetic, not id()/PYTHONHASHSEED:
        rebuilding the fabric reproduces the exact per-spine loads."""
        def spine_loads():
            env, topo = make_topo(ports_per_leaf=2, n_spines=4)
            eps = [topo.add_endpoint(a) for a in range(8)]
            for ep in eps:
                ep.on_receive(lambda seg: None)
            for src in range(4):
                for dst in range(4, 8):
                    eps[src].send(Segment(src, dst, payload_bytes=2048))
            env.run()
            return [sp.segments_forwarded for sp in topo._spines]

        first = spine_loads()
        assert sum(first) == 16
        assert first == spine_loads()

    def test_oversubscribed_uplinks_slow_cross_leaf_flows(self):
        def cross_leaf_time(factor):
            env, topo = make_topo(ports_per_leaf=2, n_spines=1,
                                  oversubscription=factor)
            a = topo.add_endpoint(0)
            b = topo.add_endpoint(2)
            got = []
            b.on_receive(lambda seg: got.append(env.now))
            a.send(Segment(0, 2, payload_bytes=256 * units.KIB))
            env.run()
            return got[0]

        assert cross_leaf_time(4.0) > cross_leaf_time(1.0)


class TestCollectivesOverClos:
    def test_allreduce_across_leaves(self):
        """A full CCLO collective over the two-tier fabric."""
        size = 8
        cluster = build_fpga_cluster(
            size, protocol="rdma", platform="sim",
            topology_factory=lambda env: LeafSpineTopology(
                env, ports_per_leaf=4, n_spines=2),
        )
        n = 256
        contribs = [np.full(n, float(r + 1), np.float32)
                    for r in range(size)]
        svs = [dev_buffer(cluster, r, contribs[r]) for r in range(size)]
        rvs = [empty_dev_buffer(cluster, r, n) for r in range(size)]
        cluster.run_collective(lambda r: CollectiveArgs(
            opcode="allreduce", nbytes=contribs[0].nbytes, sbuf=svs[r],
            rbuf=rvs[r]))
        expected = np.sum(contribs, axis=0)
        for r in range(size):
            np.testing.assert_allclose(rvs[r].array, expected)

    def test_collective_slower_than_single_switch(self):
        """Cross-leaf hops cost latency relative to the flat star."""
        def bcast_time(topology_factory):
            cluster = build_fpga_cluster(
                8, protocol="rdma", platform="sim",
                topology_factory=topology_factory)
            from repro.platform.base import BufferLocation
            views = [
                cluster.nodes[r].platform.allocate(
                    4096, BufferLocation.DEVICE).view()
                for r in range(8)
            ]
            return cluster.run_collective(lambda r: CollectiveArgs(
                opcode="bcast", nbytes=4096, root=0, tag=1 << 20,
                rbuf=views[r]))

        star = bcast_time(None)
        clos = bcast_time(lambda env: LeafSpineTopology(
            env, ports_per_leaf=2, n_spines=2))
        assert clos > star
