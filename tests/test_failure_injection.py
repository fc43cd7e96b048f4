"""Failure-injection tests: loss, exhaustion, deadlocks, misuse."""

import numpy as np
import pytest

from repro import units
from repro.cclo.config_mem import CcloConfig
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import build_fpga_cluster
from repro.errors import CcloError, CollectiveError, ConfigurationError
from repro.platform.base import BufferLocation
from repro.sim import Environment, SimulationError, all_of
from tests.helpers import dev_buffer, empty_dev_buffer, make_cluster

N = 128


def data(seed):
    return np.random.default_rng(seed).standard_normal(N).astype(np.float32)


class TestUdpLoss:
    def test_lost_datagram_stalls_receiver_detectably(self):
        """UDP provides no recovery: a dropped message leaves the receive
        pending forever, surfaced as a deadlock by the kernel."""
        cluster = make_cluster(2, protocol="udp")
        cluster.nodes[1].poe.set_drop_filter(lambda seg: True)
        payload = data(1)
        sview = dev_buffer(cluster, 0, payload)
        rview = empty_dev_buffer(cluster, 1, N)
        recv_ev = cluster.engine(1).call(CollectiveArgs(
            opcode="recv", peer=0, nbytes=payload.nbytes, rbuf=rview))
        cluster.engine(0).call(CollectiveArgs(
            opcode="send", peer=1, nbytes=payload.nbytes, sbuf=sview))
        with pytest.raises(SimulationError, match="deadlock"):
            cluster.env.run(until=recv_ev)
        assert cluster.nodes[1].poe.segments_dropped > 0

    def test_selective_loss_spares_other_messages(self):
        cluster = make_cluster(2, protocol="udp")
        # Drop only tag-0 traffic; tag-1 must still arrive.
        cluster.nodes[1].poe.set_drop_filter(
            lambda seg: seg.meta.meta.tag == 0)
        good = data(2)
        sview = dev_buffer(cluster, 0, good)
        rview = empty_dev_buffer(cluster, 1, N)
        recv_ev = cluster.engine(1).call(CollectiveArgs(
            opcode="recv", peer=0, nbytes=good.nbytes, tag=1, rbuf=rview))
        cluster.engine(0).call(CollectiveArgs(
            opcode="send", peer=1, nbytes=good.nbytes, tag=0,
            sbuf=dev_buffer(cluster, 0, data(3))))
        cluster.engine(0).call(CollectiveArgs(
            opcode="send", peer=1, nbytes=good.nbytes, tag=1, sbuf=sview))
        cluster.env.run(until=recv_ev)
        np.testing.assert_allclose(rview.array, good)


class TestResourceExhaustion:
    def test_oversized_eager_message_rejected_with_guidance(self):
        config = CcloConfig(rx_pool_bytes=64 * units.KIB)
        cluster = build_fpga_cluster(2, platform="sim",
                                     cclo_config=config)
        big = 128 * units.KIB
        sview = cluster.nodes[0].platform.allocate(
            big, BufferLocation.DEVICE).view()
        rview = cluster.nodes[1].platform.allocate(
            big, BufferLocation.DEVICE).view()
        events = [
            cluster.engine(1).call(CollectiveArgs(
                opcode="recv", peer=0, nbytes=big, rbuf=rview,
                protocol="eager")),
            cluster.engine(0).call(CollectiveArgs(
                opcode="send", peer=1, nbytes=big, sbuf=sview,
                protocol="eager")),
        ]
        with pytest.raises(CcloError, match="rendezvous"):
            cluster.env.run(until=all_of(cluster.env, events))

    def test_device_memory_exhaustion_is_loud(self):
        cluster = make_cluster(2, platform="coyote")
        plat = cluster.nodes[0].platform
        from repro.errors import PlatformError
        with pytest.raises(PlatformError, match="out of memory"):
            plat.allocate(32 * units.GIB, BufferLocation.DEVICE)

    def test_disabled_plugin_rejected(self):
        """A CCLO compiled without the reduction plugin cannot reduce."""
        config = CcloConfig(plugins=())
        cluster = build_fpga_cluster(4, platform="sim", cclo_config=config)
        contribs = [data(40 + r) for r in range(4)]
        svs = [dev_buffer(cluster, r, contribs[r]) for r in range(4)]
        rview = empty_dev_buffer(cluster, 0, N)
        events = cluster.call_on_all(lambda r: CollectiveArgs(
            opcode="reduce", nbytes=contribs[0].nbytes, root=0,
            tag=1 << 20, sbuf=svs[r], rbuf=rview if r == 0 else None))
        with pytest.raises(CcloError, match="not compiled"):
            cluster.env.run(until=all_of(cluster.env, events))


class TestMisuse:
    def test_send_to_self_rejected(self):
        cluster = make_cluster(2)
        ev = cluster.engine(0).call(CollectiveArgs(
            opcode="send", peer=0, nbytes=64,
            sbuf=empty_dev_buffer(cluster, 0, 16)))
        with pytest.raises(CollectiveError, match="self"):
            cluster.env.run(until=ev)

    def test_rank_out_of_communicator_rejected(self):
        cluster = make_cluster(2)
        ev = cluster.engine(0).call(CollectiveArgs(
            opcode="send", peer=5, nbytes=64,
            sbuf=empty_dev_buffer(cluster, 0, 16)))
        with pytest.raises(ConfigurationError, match="rank 5"):
            cluster.env.run(until=ev)

    def test_unknown_opcode_rejected(self):
        cluster = make_cluster(2)
        ev = cluster.engine(0).call(CollectiveArgs(opcode="alltoallv"))
        with pytest.raises(CollectiveError, match="alltoallv"):
            cluster.env.run(until=ev)

    def test_unknown_communicator_rejected(self):
        cluster = make_cluster(2)
        ev = cluster.engine(0).call(CollectiveArgs(
            opcode="barrier", comm_id=9))
        with pytest.raises(ConfigurationError, match="communicator 9"):
            cluster.env.run(until=ev)

    def test_firmware_fault_fails_the_command_not_the_engine(self):
        """A faulting firmware surfaces on its own completion event; the
        engine keeps serving subsequent commands."""
        cluster = make_cluster(2)

        def broken(ctx, args):
            yield ctx.cost()
            raise RuntimeError("firmware bug")

        cluster.engine(0).uc.registry.register("explode", "direct", broken)
        bad = cluster.engine(0).call(CollectiveArgs(
            opcode="explode", algorithm="direct"))
        with pytest.raises(RuntimeError, match="firmware bug"):
            cluster.env.run(until=bad)
        # Engine still alive: a NOP completes afterwards.
        ok = cluster.engine(0).call(CollectiveArgs(opcode="nop"))
        cluster.env.run(until=ok)
        assert ok.ok
