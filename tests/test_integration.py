"""Cross-module integration tests: sequences, concurrency, mixed setups."""

import numpy as np
import pytest

from repro import units
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import build_fpga_cluster
from repro.driver import attach_drivers
from repro.errors import ConfigurationError
from repro.platform.base import BufferLocation
from repro.sim import all_of
from tests.helpers import dev_buffer, empty_dev_buffer, make_cluster

N = 128


def data(seed, n=N):
    return np.random.default_rng(seed).standard_normal(n).astype(np.float32)


class TestCollectiveSequences:
    def test_back_to_back_collectives_share_engines(self):
        """A bcast, an allreduce and a barrier in sequence on one cluster."""
        size = 4
        cluster = make_cluster(size, platform="coyote")
        drivers = attach_drivers(cluster)
        env = cluster.env

        payload = data(1)
        bufs = [d.wrap(payload.copy() if d.rank == 0
                       else np.zeros(N, np.float32)) for d in drivers]
        reqs = [d.bcast(bufs[i], payload.nbytes, root=0)
                for i, d in enumerate(drivers)]
        env.run(until=all_of(env, [r.event for r in reqs]))

        outs = [d.wrap(np.zeros(N, np.float32)) for d in drivers]
        reqs = [d.allreduce(bufs[i], outs[i], payload.nbytes)
                for i, d in enumerate(drivers)]
        env.run(until=all_of(env, [r.event for r in reqs]))

        reqs = [d.barrier(sync=False) for d in drivers]
        env.run(until=all_of(env, [r.event for r in reqs]))

        for i in range(size):
            np.testing.assert_allclose(outs[i].array, payload * size,
                                       rtol=1e-4)

    def test_pipelined_collectives_overlap(self):
        """Two independent reduces issued together overlap in time."""
        size = 4
        nbytes = 256 * units.KIB

        def run(n_collectives):
            cluster = make_cluster(size, platform="sim")
            views = []
            for k in range(n_collectives):
                svs = [
                    cluster.nodes[r].platform.allocate(
                        nbytes, BufferLocation.DEVICE).view()
                    for r in range(size)
                ]
                rv = cluster.nodes[0].platform.allocate(
                    nbytes, BufferLocation.DEVICE).view()
                views.append((svs, rv))
            events = []
            for k, (svs, rv) in enumerate(views):
                for r in range(size):
                    events.append(cluster.engine(r).call(CollectiveArgs(
                        opcode="reduce", nbytes=nbytes, root=0,
                        tag=(1 << 20) + k * 2048, sbuf=svs[r],
                        rbuf=rv if r == 0 else None,
                    )))
            start = cluster.env.now
            cluster.env.run(until=all_of(cluster.env, events))
            return cluster.env.now - start

        one = run(1)
        two = run(2)
        assert two < 2 * one  # overlapped, not serialized

    def test_interleaved_p2p_with_tags(self):
        """Out-of-order tag matching: late-tag recv gets the right payload."""
        cluster = make_cluster(2)
        a, b = data(10), data(11)
        sa = dev_buffer(cluster, 0, a)
        sb = dev_buffer(cluster, 0, b)
        ra = empty_dev_buffer(cluster, 1, N)
        rb = empty_dev_buffer(cluster, 1, N)
        env = cluster.env
        events = [
            cluster.engine(0).call(CollectiveArgs(
                opcode="send", peer=1, nbytes=a.nbytes, tag=7, sbuf=sa)),
            cluster.engine(0).call(CollectiveArgs(
                opcode="send", peer=1, nbytes=b.nbytes, tag=9, sbuf=sb)),
            # Receives posted in the opposite order of the sends.
            cluster.engine(1).call(CollectiveArgs(
                opcode="recv", peer=0, nbytes=b.nbytes, tag=9, rbuf=rb)),
            cluster.engine(1).call(CollectiveArgs(
                opcode="recv", peer=0, nbytes=a.nbytes, tag=7, rbuf=ra)),
        ]
        env.run(until=all_of(env, events))
        np.testing.assert_allclose(ra.array, a)
        np.testing.assert_allclose(rb.array, b)


class TestSubcommunicators:
    def test_collective_on_subgroup_leaves_others_idle(self):
        cluster = make_cluster(6)
        cluster.add_subcommunicator(1, [1, 3, 5])
        payload = data(3)
        views = {}
        for sub_rank, r in enumerate([1, 3, 5]):
            views[r] = (dev_buffer(cluster, r, payload.copy())
                        if sub_rank == 0 else empty_dev_buffer(cluster, r, N))
        events = []
        for sub_rank, r in enumerate([1, 3, 5]):
            events.append(cluster.engine(r).call(CollectiveArgs(
                opcode="bcast", comm_id=1, nbytes=payload.nbytes, root=0,
                tag=1 << 20, rbuf=views[r])))
        cluster.env.run(until=all_of(cluster.env, events))
        for r in (1, 3, 5):
            np.testing.assert_allclose(views[r].array, payload)
        # Non-members saw no traffic at all.
        for r in (0, 2, 4):
            assert cluster.nodes[r].endpoint.segments_received == 0

    def test_sub_and_global_communicators_coexist(self):
        cluster = make_cluster(4)
        cluster.add_subcommunicator(1, [0, 1])
        payload = data(5)
        g_views = [empty_dev_buffer(cluster, r, N) for r in range(4)]
        g_views[0] = dev_buffer(cluster, 0, payload.copy())
        s_view = empty_dev_buffer(cluster, 1, N)
        events = [
            cluster.engine(r).call(CollectiveArgs(
                opcode="bcast", comm_id=0, nbytes=payload.nbytes, root=0,
                tag=1 << 20, rbuf=g_views[r]))
            for r in range(4)
        ]
        events.append(cluster.engine(0).call(CollectiveArgs(
            opcode="send", comm_id=1, peer=1, nbytes=payload.nbytes,
            tag=3, sbuf=g_views[0])))
        events.append(cluster.engine(1).call(CollectiveArgs(
            opcode="recv", comm_id=1, peer=0, nbytes=payload.nbytes,
            tag=3, rbuf=s_view)))
        cluster.env.run(until=all_of(cluster.env, events))
        np.testing.assert_allclose(s_view.array, payload)
        np.testing.assert_allclose(g_views[3].array, payload)


class TestMixedProtocolClusters:
    @pytest.mark.parametrize("protocol", ["tcp", "udp"])
    def test_collectives_over_non_rdma(self, protocol):
        """Table 1's eager-only column: all collectives work over TCP/UDP."""
        size = 4
        cluster = make_cluster(size, protocol=protocol)
        contribs = [data(20 + r) for r in range(size)]
        svs = [dev_buffer(cluster, r, contribs[r]) for r in range(size)]
        rvs = [empty_dev_buffer(cluster, r, N) for r in range(size)]
        cluster.run_collective(lambda r: CollectiveArgs(
            opcode="allreduce", nbytes=contribs[0].nbytes, sbuf=svs[r],
            rbuf=rvs[r]))
        expected = np.sum(contribs, axis=0)
        for r in range(size):
            np.testing.assert_allclose(rvs[r].array, expected,
                                       rtol=1e-3, atol=1e-5)

    def test_rendezvous_forced_on_tcp_fails(self):
        """TCP has no WRITE verb: forcing rndz must raise, not hang."""
        cluster = make_cluster(2, protocol="tcp")
        payload = data(2)
        sview = dev_buffer(cluster, 0, payload)
        rview = empty_dev_buffer(cluster, 1, N)
        events = [
            cluster.engine(1).call(CollectiveArgs(
                opcode="recv", peer=0, nbytes=payload.nbytes, tag=0,
                rbuf=rview, protocol="rndz")),
            cluster.engine(0).call(CollectiveArgs(
                opcode="send", peer=1, nbytes=payload.nbytes, tag=0,
                sbuf=sview, protocol="rndz")),
        ]
        from repro.errors import CcloError
        with pytest.raises(CcloError, match="RDMA"):
            cluster.env.run(until=all_of(cluster.env, events))


class TestClusterBuilder:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            build_fpga_cluster(0)
        with pytest.raises(ConfigurationError):
            build_fpga_cluster(2, protocol="quic")
        with pytest.raises(ConfigurationError):
            build_fpga_cluster(2, platform="de10")
        with pytest.raises(ConfigurationError, match="peering"):
            build_fpga_cluster(2, peering="eager")

    def test_tcp_cluster_sessions_pre_established(self):
        cluster = build_fpga_cluster(4, protocol="tcp", platform="sim")
        for node in cluster.nodes:
            assert node.poe.session_count == 3

    def test_custom_link_rate(self):
        cluster = build_fpga_cluster(2, link_rate=units.gbps(10),
                                     platform="sim")
        assert cluster.topology.link_rate == units.gbps(10)


class TestFirmwareHotSwap:
    def test_updated_firmware_takes_effect(self):
        """uC firmware can be replaced at runtime (no 're-synthesis')."""
        cluster = make_cluster(2)
        calls = []

        def traced_send(ctx, args):
            calls.append(ctx.rank)
            yield ctx.cost()
            yield ctx.send(args.peer, args.sbuf, args.nbytes, ctx.tag(0))

        cluster.engine(0).uc.registry.update("send", "direct", traced_send)
        payload = data(30)
        sview = dev_buffer(cluster, 0, payload)
        rview = empty_dev_buffer(cluster, 1, N)
        events = [
            cluster.engine(1).call(CollectiveArgs(
                opcode="recv", peer=0, nbytes=payload.nbytes, rbuf=rview)),
            cluster.engine(0).call(CollectiveArgs(
                opcode="send", peer=1, nbytes=payload.nbytes, sbuf=sview)),
        ]
        cluster.env.run(until=all_of(cluster.env, events))
        assert calls == [0]
        np.testing.assert_allclose(rview.array, payload)

    def test_duplicate_registration_rejected(self):
        cluster = make_cluster(2)
        from repro.errors import CcloError
        with pytest.raises(CcloError, match="already loaded"):
            cluster.engine(0).uc.registry.register(
                "send", "direct", lambda ctx, args: iter(()))
