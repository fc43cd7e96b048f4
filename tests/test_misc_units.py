"""Coverage for smaller surfaces: requests, communicators, endpoints,
kernel edge cases, DLRM stats."""

import numpy as np
import pytest

from repro import units
from repro.apps.dlrm.pipeline import DlrmRunStats
from repro.driver.communicator import (
    COLLECTIVE_TAG_BASE,
    PEER_SETUP_COST,
    TAG_STRIDE,
    Communicator,
)
from repro.driver.request import CclRequest
from repro.cclo.config_mem import CommunicatorConfig
from repro.errors import NetworkError
from repro.network import StarTopology
from repro.sim import Environment, Event
from repro.sim.kernel import SimulationError


class TestCclRequest:
    def test_wait_on_already_completed(self):
        env = Environment()
        ev = env.event()
        ev.succeed("value")
        env.run()
        req = CclRequest(env, ev, "op")
        assert req.wait() == "value"
        assert req.done and req.ok

    def test_wait_raises_stored_failure(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("bad"))
        ev.defuse()
        env.run()
        req = CclRequest(env, ev, "op")
        with pytest.raises(RuntimeError, match="bad"):
            req.wait()

    def test_duration_tracks_completion_time(self):
        env = Environment()
        req = CclRequest(env, env.timeout(2.5), "op")
        req.wait()
        assert req.duration == pytest.approx(2.5)

    def test_duration_before_completion_rejected(self):
        env = Environment()
        never = env.event()
        req = CclRequest(env, never, "op")
        with pytest.raises(RuntimeError, match="in flight"):
            req.duration

    def test_repr_shows_state(self):
        env = Environment()
        req = CclRequest(env, env.event(), "bcast")
        assert "pending" in repr(req)


class TestCommunicatorHandle:
    def make(self, size=4, rank=1):
        return Communicator(CommunicatorConfig(0, rank, list(range(size))))

    def test_identity(self):
        comm = self.make()
        assert comm.rank == 1 and comm.size == 4 and comm.comm_id == 0

    def test_tag_windows_disjoint(self):
        comm = self.make()
        a, b = comm.next_tag(), comm.next_tag()
        assert a == COLLECTIVE_TAG_BASE
        assert b - a == TAG_STRIDE

    def test_setup_cost_scales_with_peers(self):
        assert self.make(size=8).setup_cost() == pytest.approx(
            7 * PEER_SETUP_COST)
        assert self.make(size=1, rank=0).setup_cost() == 0


class TestEndpointEdges:
    def test_double_receive_handler_rejected(self):
        env = Environment()
        topo = StarTopology(env)
        ep = topo.add_endpoint(0)
        ep.on_receive(lambda seg: None)
        with pytest.raises(NetworkError, match="handler"):
            ep.on_receive(lambda seg: None)

    def test_double_uplink_rejected(self):
        from repro.network import Link
        env = Environment()
        topo = StarTopology(env)
        ep = topo.add_endpoint(0)
        with pytest.raises(NetworkError, match="uplink"):
            ep.attach_uplink(Link(env))

    def test_delivery_without_handler_rejected(self):
        from repro.network import Segment
        env = Environment()
        topo = StarTopology(env)
        topo.add_endpoint(0)
        ep1 = topo.add_endpoint(1)
        topo.endpoint(0).send(Segment(0, 1, payload_bytes=8))
        with pytest.raises(NetworkError, match="no handler"):
            env.run()


class TestKernelEdges:
    def test_event_value_before_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            ev.value
        with pytest.raises(SimulationError):
            ev.ok

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_callback_after_processed_rejected(self):
        env = Environment()
        ev = env.timeout(0)
        env.run()
        with pytest.raises(SimulationError):
            ev.add_callback(lambda e: None)


class TestDlrmStats:
    def test_stats_aggregation(self):
        stats = DlrmRunStats(
            outputs=np.array([0.5, 0.6]),
            latencies=[units.us(10), units.us(30)],
            elapsed=units.us(40),
            n_inferences=2,
        )
        assert stats.mean_latency == pytest.approx(units.us(20))
        assert stats.p99_latency <= units.us(30)
        assert stats.throughput == pytest.approx(2 / units.us(40))
