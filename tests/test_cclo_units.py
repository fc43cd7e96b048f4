"""Direct unit tests of CCLO building blocks (below the collective level)."""

import numpy as np
import pytest

from repro import units
from repro.cclo.config_mem import (
    AlgorithmParams,
    CcloConfig,
    CommunicatorConfig,
    ConfigMemory,
)
from repro.cclo.dmp import Microcode, Slot, SlotKind
from repro.cclo.match import MatchTable
from repro.cclo.messages import BufferDescriptor, MsgType, Signature
from repro.cclo.microcontroller import CollectiveArgs
from repro.cclo.noc import NoC
from repro.cclo.plugins import PluginRegistry
from repro.cclo.rbm import RxBufManager
from repro.collectives import AlgorithmSelector
from repro.errors import CcloError, ConfigurationError
from repro.memory import Memory
from repro.sim import Environment


class TestCcloConfig:
    def test_cycles_at_clock(self):
        config = CcloConfig(clock_hz=250e6)
        assert config.cycles(250) == pytest.approx(1e-6)

    def test_datapath_rate(self):
        config = CcloConfig(clock_hz=250e6, datapath_bytes_per_cycle=64)
        assert config.datapath_rate == pytest.approx(16e9)

    def test_dlrm_clock_lowers_datapath(self):
        assert (CcloConfig(clock_hz=115e6).datapath_rate
                < CcloConfig(clock_hz=250e6).datapath_rate)


class TestCommunicatorConfig:
    def test_valid(self):
        comm = CommunicatorConfig(0, 1, [10, 11, 12])
        assert comm.size == 3
        assert comm.address_of(2) == 12

    def test_bad_local_rank(self):
        with pytest.raises(ConfigurationError):
            CommunicatorConfig(0, 3, [10, 11])

    def test_duplicate_addresses(self):
        with pytest.raises(ConfigurationError):
            CommunicatorConfig(0, 0, [10, 10])

    def test_bad_protocol(self):
        with pytest.raises(ConfigurationError):
            CommunicatorConfig(0, 0, [1, 2], protocol="smtp")

    def test_rank_bounds(self):
        comm = CommunicatorConfig(0, 0, [1, 2])
        with pytest.raises(ConfigurationError):
            comm.address_of(2)

    def test_config_memory_registry(self):
        mem = ConfigMemory()
        comm = CommunicatorConfig(5, 0, [1, 2])
        mem.add_communicator(comm)
        assert mem.communicator(5) is comm
        with pytest.raises(ConfigurationError):
            mem.add_communicator(comm)
        with pytest.raises(ConfigurationError):
            mem.communicator(6)


class TestSignature:
    def test_match_key(self):
        sig = Signature(comm_id=1, src_rank=2, dst_rank=3,
                        msg_type=MsgType.EAGER, nbytes=64, tag=9)
        assert sig.match_key() == (1, 2, 9)

    def test_repr_mentions_type(self):
        sig = Signature(0, 0, 1, MsgType.RNDZ_INIT, 0)
        assert "rndz_init" in repr(sig)

    def test_descriptor(self):
        desc = BufferDescriptor(node_addr=3, target_id=7, nbytes=128)
        assert "id=7" in repr(desc)


class TestMicrocode:
    def test_two_operands_require_function(self):
        with pytest.raises(CcloError, match="plugin function"):
            Microcode(nbytes=64, op0=Slot.stream(), op1=Slot.stream())

    def test_negative_size_rejected(self):
        with pytest.raises(CcloError):
            Microcode(nbytes=-1, op0=Slot.none())

    def test_slot_constructors(self):
        assert Slot.none().kind is SlotKind.NONE
        assert Slot.stream().kind is SlotKind.STREAM
        assert Slot.immediate(5).data == 5
        assert Slot.rx_eager(0, 1, 2).src_rank == 1


class TestNoC:
    def make(self):
        env = Environment()
        noc = NoC(env, CcloConfig())
        for port in ("memory", "tx"):
            noc.register_port(port)
        return env, noc

    def test_route_charges_bandwidth(self):
        env, noc = self.make()
        t = {}

        def proc():
            yield noc.route("memory", "tx", 16 * units.KIB)
            t["done"] = env.now

        env.process(proc())
        env.run()
        expected = 16 * units.KIB / 16e9 + CcloConfig().cycles(8)
        assert t["done"] == pytest.approx(expected)

    def test_unknown_port_rejected(self):
        _, noc = self.make()
        with pytest.raises(CcloError, match="unknown"):
            noc.route("memory", "rx", 64)

    def test_duplicate_port_rejected(self):
        _, noc = self.make()
        with pytest.raises(CcloError):
            noc.register_port("memory")

    def test_counters(self):
        env, noc = self.make()
        noc.route("memory", "tx", 100)
        env.run()
        assert noc.transfers == 1
        assert noc.bytes_routed == 100

    def test_negative_transfer_rejected(self):
        _, noc = self.make()
        with pytest.raises(CcloError):
            noc.route("memory", "tx", -5)


class TestPlugins:
    def test_binary_ops(self):
        reg = PluginRegistry()
        a, b = np.array([1.0, 4.0]), np.array([3.0, 2.0])
        np.testing.assert_array_equal(reg.apply_binary("sum", a, b), [4, 6])
        np.testing.assert_array_equal(reg.apply_binary("max", a, b), [3, 4])
        np.testing.assert_array_equal(reg.apply_binary("min", a, b), [1, 2])
        np.testing.assert_array_equal(reg.apply_binary("prod", a, b), [3, 8])

    def test_unary_ops(self):
        reg = PluginRegistry(enabled=("identity", "negate", "compress_fp16"))
        a = np.array([1.5, -2.0], dtype=np.float32)
        np.testing.assert_array_equal(reg.apply_unary("identity", a), a)
        np.testing.assert_array_equal(reg.apply_unary("negate", a), -a)
        lossy = reg.apply_unary("compress_fp16", a)
        assert lossy.dtype == np.float32
        np.testing.assert_allclose(lossy, a, rtol=1e-3)

    def test_timing_only_payloads_pass_through(self):
        reg = PluginRegistry()
        assert reg.apply_binary("sum", None, np.zeros(2)) is None

    def test_disabled_function_rejected(self):
        reg = PluginRegistry(enabled=("sum",))
        with pytest.raises(CcloError, match="not compiled"):
            reg.apply_binary("max", np.zeros(2), np.zeros(2))

    def test_unknown_function_rejected(self):
        with pytest.raises(CcloError):
            PluginRegistry(enabled=("xor",))
        reg = PluginRegistry()
        with pytest.raises(CcloError):
            reg.apply_binary("xor", np.zeros(1), np.zeros(1))

    def test_invocation_counter(self):
        reg = PluginRegistry()
        reg.apply_binary("sum", np.zeros(1), np.zeros(1))
        assert reg.invocations == 1

    def test_known_functions_table(self):
        table = PluginRegistry.known_functions()
        assert table["sum"] == "binary"
        assert table["negate"] == "unary"


class TestRxBufManager:
    def make(self, pool=units.MIB, slots=4):
        env = Environment()
        mem = Memory(env, capacity=64 * units.MIB, bandwidth=460e9)
        config = CcloConfig(rx_pool_bytes=pool, rx_max_messages=slots)
        return env, RxBufManager(env, config, mem)

    def sig(self, nbytes, src=0, tag=0):
        return Signature(comm_id=0, src_rank=src, dst_rank=1,
                         msg_type=MsgType.EAGER, nbytes=nbytes, tag=tag)

    def test_store_and_claim(self):
        env, rbm = self.make()
        rbm.handle_incoming(self.sig(1024), data="payload")
        got = {}

        def consumer():
            record = yield rbm.await_message(0, 0, 0)
            got["data"] = record.data
            rbm.release(record)

        env.process(consumer())
        env.run()
        assert got["data"] == "payload"
        assert rbm.free_bytes == units.MIB

    def test_watermark_tracks_peak(self):
        env, rbm = self.make()
        for i in range(3):
            rbm.handle_incoming(self.sig(1024, tag=i), data=None)
        env.run()
        assert rbm.high_watermark == 3 * 1024

    def test_oversized_message_guidance(self):
        env, rbm = self.make(pool=1024)
        with pytest.raises(CcloError, match="rendezvous"):
            rbm.handle_incoming(self.sig(4096), data=None)

    def test_double_release_rejected(self):
        env, rbm = self.make()
        rbm.handle_incoming(self.sig(64), data=None)
        records = {}

        def consumer():
            record = yield rbm.await_message(0, 0, 0)
            records["r"] = record
            rbm.release(record)

        env.process(consumer())
        env.run()
        with pytest.raises(CcloError, match="double release"):
            rbm.release(records["r"])

    def test_slot_limit_backpressure(self):
        """With 2 slots, a third message only lands after a release."""
        env, rbm = self.make(slots=2)
        for i in range(3):
            rbm.handle_incoming(self.sig(64, tag=i), data=i)
        order = []

        def consumer():
            for i in range(3):
                record = yield rbm.await_message(0, 0, i)
                order.append(record.data)
                rbm.release(record)

        env.process(consumer())
        env.run()
        assert order == [0, 1, 2]


class TestSelectorUnit:
    def make(self, protocol="rdma", size=8):
        comm = CommunicatorConfig(0, 0, list(range(size)), protocol=protocol)
        return AlgorithmSelector(), comm, AlgorithmParams()

    def test_rendezvous_requires_rdma(self):
        selector, comm, params = self.make(protocol="udp")
        args = CollectiveArgs(opcode="reduce", nbytes=units.MIB)
        assert not selector.uses_rendezvous(args, comm, params)

    def test_forced_protocol_respected(self):
        selector, comm, params = self.make()
        args = CollectiveArgs(opcode="reduce", nbytes=64, protocol="rndz")
        assert selector.uses_rendezvous(args, comm, params)

    def test_threshold_tunable_at_runtime(self):
        selector, comm, params = self.make()
        args = CollectiveArgs(opcode="reduce", nbytes=8 * units.KIB)
        assert selector.choose(args, comm, params) == "all_to_one"
        params.tree_threshold_bytes = 4 * units.KIB  # runtime re-tuning
        args = CollectiveArgs(opcode="reduce", nbytes=8 * units.KIB)
        assert selector.choose(args, comm, params) == "binary_tree"

    def test_bcast_rank_threshold(self):
        selector, comm_small, params = self.make(size=4)
        _, comm_large, _ = self.make(size=8)
        args = CollectiveArgs(opcode="bcast", nbytes=units.MIB)
        assert selector.choose(args, comm_small, params) == "one_to_all"
        args = CollectiveArgs(opcode="bcast", nbytes=units.MIB)
        assert selector.choose(args, comm_large, params) == "recursive_doubling"

    def test_unknown_opcode(self):
        from repro.errors import CollectiveError
        selector, comm, params = self.make()
        with pytest.raises(CollectiveError):
            selector.choose(CollectiveArgs(opcode="scan"), comm, params)


class TestRendezvousLanding:
    """Cut-through WRITE landings create no event per segment; the drain
    still completes at the last landing's completion time, bit for bit."""

    @pytest.mark.parametrize("location", ["device", "host"])
    def test_written_fires_at_latest_landing(self, location):
        from repro.cluster import build_fpga_cluster
        from repro.platform.base import BufferLocation

        cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
        env = cluster.env
        sender, receiver = cluster.engine(0), cluster.engine(1)
        platform = cluster.nodes[1].platform
        nbytes = 1 * units.MIB
        buf = platform.allocate(nbytes, BufferLocation(location))
        target_id = receiver.register_rndz_target(buf.view(), nbytes)
        written = receiver._rndz_targets[target_id]["written"]
        calls, landed, fired = [], [], []
        access_delay = platform.device_access_delay

        def spy(buffer, n, direction):
            # The completion time a per-segment Timeout would have had.
            delay = access_delay(buffer, n, direction)
            calls.append(env.now)
            landed.append(env.now + delay)
            return delay

        platform.device_access_delay = spy
        written.add_callback(lambda ev: fired.append(env.now))
        sender.poe.post_write(receiver.address, nbytes, BufferDescriptor(
            node_addr=receiver.address, target_id=target_id, nbytes=nbytes))
        env.run()
        assert len(landed) == nbytes // sender.poe.segment_bytes
        # The drain starts one POE latency after the last segment lands.
        # HBM has finished every landing by then; host memory behind PCIe
        # is still landing, so the drain waits for the latest completion.
        drain_at = calls[-1] + receiver.poe.poe_latency
        assert (max(landed) > drain_at) == (location == "host")
        assert fired == [max(max(landed), drain_at)]
