"""Direct unit tests of CCLO building blocks (below the collective level)."""

from types import SimpleNamespace

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
            yield noc.route_delay("memory", "tx", 16 * units.KIB)
            t["done"] = env.now

        env.process(proc())
        env.run()
        expected = 16 * units.KIB / 16e9 + CcloConfig().cycles(8)
        assert t["done"] == pytest.approx(expected)

    def test_unknown_port_rejected(self):
        _, noc = self.make()
        with pytest.raises(CcloError, match="unknown"):
            noc.route_delay("memory", "rx", 64)

    def test_duplicate_port_rejected(self):
        _, noc = self.make()
        with pytest.raises(CcloError):
            noc.register_port("memory")

    def test_counters(self):
        env, noc = self.make()
        noc.route_delay("memory", "tx", 100)
        assert noc.transfers == 1
        assert noc.bytes_routed == 100

    def test_negative_transfer_rejected(self):
        _, noc = self.make()
        with pytest.raises(CcloError):
            noc.route_delay("memory", "tx", -5)


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

    def test_store_with_room_takes_one_callback(self):
        """With room in the pool an eager message is staged by one
        callback at the end of its Rx-pool write, with no process."""
        env, rbm = self.make()
        before = Environment.total_events_processed
        rbm.handle_incoming(self.sig(1024), data="payload")
        env.run()
        assert Environment.total_events_processed - before == 1
        assert env.now == pytest.approx(1024 / 460e9)
        record = rbm.await_message(0, 0, 0)
        assert record.processed and record.value.data == "payload"

    def test_full_pool_admits_same_instant_arrivals_in_order(self):
        """A message that finds the pool full keeps its place: a release
        and a second arrival at the same instant do not overtake it."""
        env, rbm = self.make(slots=1)
        rbm.handle_incoming(self.sig(64, tag=0), data=None)
        env.run()
        first = rbm.await_message(0, 0, 0).value
        order = []

        def admit(event):
            order.append(event.value.signature.tag)
            rbm.release(event.value)

        def same_instant():
            rbm.handle_incoming(self.sig(64, tag=1), data=None)
            rbm.release(first)
            rbm.handle_incoming(self.sig(64, tag=2), data=None)

        for tag in (1, 2):
            rbm.await_message(0, 0, tag).add_callback(admit)
        env.schedule_callback(1e-6, same_instant)
        env.run()
        assert order == [1, 2]
        assert rbm._pending_stores == 0

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


class TestMatchTable:
    def test_wait_on_a_posted_value_is_done_at_once(self):
        env = Environment()
        table = MatchTable(env)
        table.post("k", 1)
        table.post("k", 2)
        first = table.wait("k")
        assert first.processed and first.value == 1
        assert table.pending("k") == 1


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
    still completes at the last landing's completion time, bit for bit.
    The ``written`` event exists only when a receive waits for it."""

    def land(self, location, waiting):
        """WRITE 1 MiB into a registered target; returns the instants the
        landing completed at, the latest segment landing and the drain
        start, and the target entry."""
        from repro.cluster import build_fpga_cluster
        from repro.platform.base import BufferLocation

        cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
        env = cluster.env
        sender, receiver = cluster.engine(0), cluster.engine(1)
        platform = cluster.nodes[1].platform
        nbytes = 1 * units.MIB
        buf = platform.allocate(nbytes, BufferLocation(location))
        target_id = receiver.register_rndz_target(buf.view(), nbytes)
        entry = receiver._rndz_targets[target_id]
        calls, landed, fired = [], [], []
        access_delay = platform.device_access_delay

        def spy(buffer, n, direction):
            # The completion time a per-segment Timeout would have had.
            delay = access_delay(buffer, n, direction)
            calls.append(env.now)
            landed.append(env.now + delay)
            return delay

        platform.device_access_delay = spy
        if waiting:
            # A receive that claims the target before the landing waits.
            written = receiver.rndz_written(entry)
            written.add_callback(lambda ev: fired.append(env.now))
        else:
            rndz_landed = receiver._rndz_landed

            def landed_spy(*args):
                fired.append(env.now)
                rndz_landed(*args)
            receiver._rndz_landed = landed_spy
        env.process(sender.poe.transmit(
            receiver.address, nbytes, BufferDescriptor(
                node_addr=receiver.address, target_id=target_id,
                nbytes=nbytes), kind="write"))
        env.run()
        assert len(landed) == nbytes // sender.poe.segment_bytes
        # The drain starts one POE latency after the last segment lands.
        # HBM has finished every landing by then; host memory behind PCIe
        # is still landing, so the drain waits for the latest completion.
        drain_at = calls[-1] + receiver.poe.poe_latency
        assert (max(landed) > drain_at) == (location == "host")
        # A receive that claims the target after the landing needs no event.
        assert receiver.rndz_written(entry) is None
        return fired, max(landed), drain_at, entry

    @pytest.mark.parametrize("location", ["device", "host"])
    def test_written_fires_at_latest_landing(self, location):
        fired, last_landing, drain_at, _ = self.land(location, waiting=True)
        assert fired == [max(last_landing, drain_at)]

    @pytest.mark.parametrize("location", ["device", "host"])
    def test_unawaited_landing_creates_no_event(self, location):
        fired, last_landing, drain_at, entry = self.land(location,
                                                         waiting=False)
        assert fired == [max(last_landing, drain_at)]
        assert entry["written"] is None


def _timed_legs(cluster, rank):
    """Record the completion time of every leg the DMP of *rank* charges
    (memory accesses, NoC passes, Rx-pool reads) and the end of each Tx
    send; returns ``(legs, charged_at)`` lists filled as the run goes."""
    env = cluster.env
    engine = cluster.engine(rank)
    platform = cluster.nodes[rank].platform
    legs, charged_at = [], []

    def delay_spy(fn):
        def spy(*args):
            delay = fn(*args)
            charged_at.append(env.now)
            legs.append(env.now + delay)
            return delay
        return spy

    def send_spy(fn):
        def spy(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def timed():
                result = yield from gen
                legs.append(env.now)
                return result
            return timed()
        return spy

    platform.device_access_delay = delay_spy(platform.device_access_delay)
    engine.noc.route_delay = delay_spy(engine.noc.route_delay)
    # The pool shares the platform's device memory: spy on the RBM's handle
    # only, so a platform access is not recorded twice.
    engine.rbm.memory = SimpleNamespace(
        access_delay=delay_spy(engine.rbm.memory.access_delay))
    engine.tx.send_eager = send_spy(engine.tx.send_eager)
    engine.tx.send_write = send_spy(engine.tx.send_write)
    return legs, charged_at


class TestDmpRetire:
    """An instruction charges each leg when it starts and retires with one
    wait, at the latest leg's completion time."""

    NBYTES = 64 * units.KIB

    def make(self):
        from repro.cluster import build_fpga_cluster
        from repro.platform.base import BufferLocation

        cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")

        def view(rank, location="device"):
            platform = cluster.nodes[rank].platform
            return platform.allocate(
                self.NBYTES, BufferLocation(location)).view()
        return cluster, view

    def retire_time(self, cluster, rank, mc):
        env = cluster.env
        fired = []
        ev = cluster.engine(rank).dmp.issue(mc)
        ev.add_callback(lambda _: fired.append(env.now))
        env.run()
        assert len(fired) == 1
        return fired[0]

    def signature(self, cluster, msg_type, tag=0):
        return Signature(comm_id=0, src_rank=0, dst_rank=1,
                         msg_type=msg_type, nbytes=self.NBYTES, tag=tag)

    @pytest.mark.parametrize("result", ["memory", "stream", "tx_eager",
                                        "tx_write", "none"])
    def test_retires_at_latest_leg(self, result):
        cluster, view = self.make()
        dest = cluster.engine(1).address
        if result == "memory":
            res = Slot.memory(view(0))
        elif result == "stream":
            res = Slot.stream()
        elif result == "tx_eager":
            res = Slot.tx_eager(self.signature(cluster, MsgType.EAGER), dest)
        elif result == "tx_write":
            receiver = cluster.engine(1)
            target = receiver.register_rndz_target(view(1), self.NBYTES)
            res = Slot.tx_write(
                self.signature(cluster, MsgType.RNDZ_MSG), dest,
                BufferDescriptor(node_addr=dest, target_id=target,
                                 nbytes=self.NBYTES))
        else:
            res = Slot.none()
        # A host-resident source makes the read ride PCIe, the slow leg.
        legs, _ = _timed_legs(cluster, 0)
        mc = Microcode(nbytes=self.NBYTES, op0=Slot.memory(view(0, "host")),
                       res=res)
        retired = self.retire_time(cluster, 0, mc)
        assert retired == max(legs)
        n_legs = {"memory": 3, "tx_eager": 3, "tx_write": 3}.get(result, 2)
        assert len(legs) == n_legs

    def test_recv_reduce_legs_charged_at_different_instants(self):
        cluster, view = self.make()
        env = cluster.env
        acc = view(1)
        legs, charged_at = _timed_legs(cluster, 1)
        late = units.us(50)

        def sender():
            # The eager message leaves well after the receiver's read of
            # its accumulator was charged.
            yield late
            yield cluster.engine(0).dmp.issue(Microcode(
                nbytes=self.NBYTES, op0=Slot.memory(view(0)),
                res=Slot.tx_eager(self.signature(cluster, MsgType.EAGER),
                                  cluster.engine(1).address)))

        env.process(sender())
        mc = Microcode(nbytes=self.NBYTES, op0=Slot.rx_eager(0, 0, 0),
                       op1=Slot.memory(acc), res=Slot.memory(acc),
                       func="sum")
        retired = self.retire_time(cluster, 1, mc)
        # Receiver legs: the accumulator read at issue; the Rx-pool write of
        # the arriving message (a leg of the store, not the instruction);
        # then the pool read, the NoC pass and the accumulator write.
        assert charged_at[0] < late < charged_at[-1]
        assert legs[0] < charged_at[-1]
        assert retired == max(legs)
        assert retired > charged_at[-1]

    def test_write_result_needs_the_rdma_poe(self):
        from repro.cluster import build_fpga_cluster

        cluster = build_fpga_cluster(2, protocol="tcp", platform="coyote")
        engine = cluster.engine(0)
        mc = Microcode(
            nbytes=64, op0=Slot.immediate(None),
            res=Slot.tx_write(
                Signature(comm_id=0, src_rank=0, dst_rank=1,
                          msg_type=MsgType.RNDZ_MSG, nbytes=64),
                cluster.engine(1).address,
                BufferDescriptor(node_addr=0, target_id=1, nbytes=64)))
        ev = engine.dmp.issue(mc)
        with pytest.raises(CcloError, match="requires the RDMA POE"):
            cluster.env.run(until=ev)
        assert engine.tx.messages_sent == 0


class TestKernelEventCounts:
    """Exact kernel events of small 2-node collectives: a gate process, an
    event per memory leg or a drain callback, a process per transmit or per
    firmware instruction, an event for a credit that fits, or a kernel
    turn for a wait that is already answered (a posted match, a drained
    DMP leg, a landed WRITE, an Rx pool with room), shows up here as a
    count change, at unchanged simulated time."""

    NBYTES = 64 * units.KIB

    def run(self, opcode, protocol):
        from repro.cluster import build_fpga_cluster
        from repro.platform.base import BufferLocation

        cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote")
        n = self.NBYTES // 4

        def view(rank, fill):
            return cluster.nodes[rank].platform.wrap(
                np.full(n, fill, np.float32), BufferLocation.DEVICE).view()
        src = [view(0, 1.0), view(1, 2.0)]
        dst = [view(0, 0.0), view(1, 0.0)]

        def make(rank):
            if opcode == "reduce":
                return CollectiveArgs(
                    opcode="reduce", nbytes=self.NBYTES, root=1,
                    sbuf=src[rank], rbuf=dst[rank], protocol=protocol)
            if rank == 0:
                return CollectiveArgs(opcode="send", nbytes=self.NBYTES,
                                      peer=1, sbuf=src[0], protocol=protocol)
            return CollectiveArgs(opcode="recv", nbytes=self.NBYTES, peer=0,
                                  rbuf=dst[1], protocol=protocol)

        events0 = Environment.total_events_processed
        elapsed = cluster.run_collective(make)
        events = Environment.total_events_processed - events0
        expected = 3.0 if opcode == "reduce" else 1.0
        np.testing.assert_array_equal(dst[1].array, np.full(n, expected))
        return events, elapsed

    @pytest.mark.parametrize("opcode, protocol, events, elapsed", [
        ("sendrecv", "rndz", 45, 1.4284960000000002e-05),
        ("sendrecv", "eager", 43, 1.613590956521739e-05),
        # The root's recv_reduce: a rendezvous WRITE into scratch then a
        # local two-operand fold, or an eager Rx operand folded directly.
        ("reduce", "rndz", 57, 2.3020959999999996e-05),
        ("reduce", "eager", 51, 2.050390956521739e-05),
    ], ids=["sendrecv-rndz", "sendrecv-eager", "reduce-rndz", "reduce-eager"])
    def test_exact_event_count(self, opcode, protocol, events, elapsed):
        assert self.run(opcode, protocol) == (events, elapsed)
