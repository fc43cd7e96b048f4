"""The fat-tree fabric and 1000-node-class cluster scale.

Covers the fat-tree builder (structure, routing correctness, per-hop
event cost, ECMP), memory-lean construction at 1024 nodes, and the
flow-fidelity allreduce that the ``bench profile scale`` report commits
to ``BENCH_results.json``.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro import units
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import build_fpga_cluster
from repro.errors import NetworkError
from repro.network import Segment
from repro.network.fidelity import fidelity_override
from repro.platform.base import BufferLocation
from repro.network.topology import FatTreeTopology
from repro.sim import Environment
from tests.helpers import dev_buffer, empty_dev_buffer


class TestFatTree:
    def test_geometry(self):
        env = Environment()
        topo = FatTreeTopology(env, k=4)
        assert topo.capacity == 16
        assert topo.pod_of(0) == 0 and topo.pod_of(4) == 1
        assert topo.edge_of(0) == 0 and topo.edge_of(2) == 1

    def test_odd_arity_rejected(self):
        with pytest.raises(NetworkError):
            FatTreeTopology(Environment(), k=3)

    def test_capacity_enforced(self):
        env = Environment()
        topo = FatTreeTopology(env, k=2)  # 2 hosts
        topo.add_endpoint(0)
        topo.add_endpoint(1)
        with pytest.raises(NetworkError):
            topo.add_endpoint(2)

    def test_lazy_pod_growth(self):
        env = Environment()
        topo = FatTreeTopology(env, k=4)
        topo.add_endpoint(0)
        assert len(topo._pods) == 1
        topo.add_endpoint(12)  # pod 3: intermediate pods materialize too
        assert len(topo._pods) == 4

    def test_all_pair_reachability(self):
        """Every (src, dst) pair routes: same-edge, same-pod, cross-pod."""
        env = Environment()
        topo = FatTreeTopology(env, k=4)
        eps = [topo.add_endpoint(a) for a in range(16)]
        got = []
        for ep in eps:
            ep.on_receive(lambda seg: got.append((seg.src, seg.dst)))
        expected = []
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    eps[src].send(Segment(src, dst, payload_bytes=64))
                    expected.append((src, dst))
        env.run()
        assert sorted(got) == sorted(expected)

    def test_path_latency_ordering(self):
        """Cross-pod > same-pod > same-edge delivery latency."""
        def latency(dst):
            env = Environment()
            topo = FatTreeTopology(env, k=4)
            src = topo.add_endpoint(0)
            ep = topo.add_endpoint(dst)
            got = []
            ep.on_receive(lambda seg: got.append(env.now))
            src.send(Segment(0, dst, payload_bytes=64))
            env.run()
            return got[0]

        same_edge, same_pod, cross_pod = latency(1), latency(2), latency(4)
        assert same_edge < same_pod < cross_pod
        env = Environment()
        topo = FatTreeTopology(env, k=4)
        assert (topo.one_way_base_latency("edge")
                < topo.one_way_base_latency("agg")
                < topo.one_way_base_latency("core"))

    def test_ecmp_is_deterministic(self):
        """Same flows on a rebuilt fabric hit the same core switches."""
        def core_loads():
            env = Environment()
            topo = FatTreeTopology(env, k=4)
            eps = [topo.add_endpoint(a) for a in range(16)]
            for ep in eps:
                ep.on_receive(lambda seg: None)
            for src in range(8):
                for dst in range(8, 16):
                    eps[src].send(Segment(src, dst, payload_bytes=1024))
            env.run()
            return [core.segments_forwarded for core in topo._cores]

        first = core_loads()
        assert sum(first) > 0
        assert first == core_loads()

    def test_switch_hop_costs_one_kernel_event(self):
        """A cross-pod segment crosses six links and five switches in six
        kernel events: each switch forwards inside its ingress link's
        delivery, which already includes the forwarding latency."""
        env = Environment()
        topo = FatTreeTopology(env, k=4)
        a = topo.add_endpoint(0)
        b = topo.add_endpoint(4)  # pod 1
        got = []
        b.on_receive(lambda seg: got.append(env.now))
        seg = Segment(0, 4, payload_bytes=1024)
        before = Environment.total_events_processed
        a.send(seg)
        env.run()
        assert Environment.total_events_processed - before == 6
        link = a.uplink
        serialization = seg.wire_bytes / link.rate
        forwarding = topo._cores[0].forwarding_latency
        # Per hop: the link delivers at now + (egress + latency - now) and
        # a switch forwards one forwarding latency later, with the same
        # two roundings as two separately scheduled events.
        t = 0.0
        for hop in range(6):
            t = t + (t + serialization + link.latency - t)
            if hop < 5:
                t = t + forwarding
        assert got == [t]
        assert t == pytest.approx(6 * (serialization + link.latency)
                                  + 5 * forwarding, rel=1e-12)

    def test_flow_hash_keeps_one_flow_ordered(self):
        """One (src, dst) flow takes one path through both ECMP tiers."""
        env = Environment()
        topo = FatTreeTopology(env, k=4)
        a = topo.add_endpoint(0)
        b = topo.add_endpoint(4)
        got = []
        b.on_receive(lambda seg: got.append(seg.seqno))
        for i in range(16):
            a.send(Segment(0, 4, payload_bytes=8 * units.KIB, seqno=i))
        env.run()
        assert got == list(range(16))

    def test_cores_share_cross_pod_load(self):
        """With several cross-pod flows, more than one core carries
        traffic."""
        env = Environment()
        topo = FatTreeTopology(env, k=4)
        eps = [topo.add_endpoint(a) for a in range(16)]
        for ep in eps:
            ep.on_receive(lambda seg: None)
        for src in range(4):
            for dst in range(4, 16):
                eps[src].send(Segment(src, dst, payload_bytes=4096))
        env.run()
        loads = [core.segments_forwarded for core in topo._cores]
        assert sum(load > 0 for load in loads) > 1

    def test_allreduce_on_fat_tree(self):
        """Numeric correctness of a CCLO collective across pods."""
        size = 8
        cluster = build_fpga_cluster(
            size, protocol="rdma", platform="sim",
            topology_factory=lambda env: FatTreeTopology(env, k=4))
        n = 128
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
        """Cross-pod hops cost latency relative to the flat star."""
        def bcast_time(topology_factory):
            cluster = build_fpga_cluster(
                8, protocol="rdma", platform="sim",
                topology_factory=topology_factory)
            views = [
                cluster.nodes[r].platform.allocate(
                    4096, BufferLocation.DEVICE).view()
                for r in range(8)
            ]
            return cluster.run_collective(lambda r: CollectiveArgs(
                opcode="bcast", nbytes=4096, root=0, tag=1 << 20,
                rbuf=views[r]))

        star = bcast_time(None)
        fat_tree = bcast_time(lambda env: FatTreeTopology(env, k=4))
        assert fat_tree > star


class TestThousandNodeScale:
    """The headline acceptance numbers: 1024 hosts, lean and fast."""

    def test_1024_node_fattree_builds_fast_and_lean(self):
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        t0 = time.perf_counter()
        cluster = build_fpga_cluster(
            1024, protocol="rdma", platform="coyote",
            topology_factory=lambda env: FatTreeTopology(env, k=16))
        build_s = time.perf_counter() - t0
        built, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        bytes_per_node = (built - base) / 1024
        assert cluster.size == 1024
        assert build_s < 10.0, f"1024-node build took {build_s:.1f}s"
        # pre-refactor footprint was ~300 KiB/node at only 256 nodes
        assert bytes_per_node < 100 * 1024, \
            f"{bytes_per_node / 1024:.0f} KiB/node"

    def test_1024_node_allreduce_completes_in_flow_fidelity(self):
        from repro.bench.harness import accl_collective_time

        with fidelity_override("flow"):
            factory = lambda env: FatTreeTopology(env, k=16)  # noqa: E731
            elapsed = accl_collective_time(
                "allreduce", 256 * units.KIB, n_nodes=1024,
                sync_protocol="rndz", algorithm="reduce_bcast",
                cluster_builder=lambda n, **kw: build_fpga_cluster(
                    n, topology_factory=factory, **kw))
        assert elapsed > 0


class TestFigXScaleBusBandwidth:
    def test_busbw_is_algbw_times_the_nccl_tests_factor(self):
        from repro.bench.harness import run_figX_scale
        from repro.bench.runner import SweepRunner

        size = 256 * units.KIB
        rows = run_figX_scale(node_counts=(4,), size=size,
                              runner=SweepRunner(jobs=1, cache=None))
        # allreduce: algbw * 2(n-1)/n; bcast: algbw
        factor = {"allreduce": 2 * 3 / 4, "bcast": 1.0}
        assert [row["collective"] for row in rows] == \
            ["allreduce", "allreduce", "bcast"]
        for row in rows:
            algbw = units.to_gbps(size / (row["time_us"] * 1e-6))
            assert row["busbw_gbps"] == pytest.approx(
                algbw * factor[row["collective"]], rel=1e-12)
