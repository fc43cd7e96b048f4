"""Unit tests for memory models and the PCIe link."""

import pytest

from repro import units
from repro.errors import ConfigurationError, PlatformError
from repro.memory import Memory, PcieLink, hbm_stack, host_dram
from repro.sim import Environment


class TestAllocator:
    def test_allocate_and_free(self):
        env = Environment()
        mem = Memory(env, capacity=1000, bandwidth=1e9)
        a = mem.allocate(400)
        b = mem.allocate(600)
        assert mem.free_bytes == 0
        mem.free(a)
        assert mem.free_bytes == 400
        mem.free(b)
        assert mem.free_bytes == 1000

    def test_exhaustion_raises(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9, name="tiny")
        mem.allocate(80)
        with pytest.raises(PlatformError, match="out of memory"):
            mem.allocate(21)

    def test_double_free_raises(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9)
        a = mem.allocate(10)
        mem.free(a)
        with pytest.raises(PlatformError):
            mem.free(a)

    def test_zero_alloc_rejected(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9)
        with pytest.raises(ConfigurationError):
            mem.allocate(0)

    def test_capacity_reusable_after_free(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9)
        for _ in range(10):
            a = mem.allocate(90)
            mem.free(a)
        assert mem.free_bytes == 100

    def test_allocation_end(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9)
        a = mem.allocate(30)
        assert a.end == a.offset + 30


class TestMemoryTiming:
    def test_read_duration(self):
        env = Environment()
        mem = Memory(env, capacity=1000, bandwidth=100.0, access_latency=0.25)
        t = {}

        def proc():
            yield mem.access_delay(100)
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(1.25)

    def test_port_shared_between_read_and_write(self):
        env = Environment()
        mem = Memory(env, capacity=1000, bandwidth=100.0)
        t = {}

        def proc():
            read = mem.access_delay(100)
            write = mem.access_delay(100)
            yield max(read, write)
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(2.0)

    def test_access_time_analytic(self):
        env = Environment()
        mem = Memory(env, capacity=1000, bandwidth=100.0, access_latency=0.5)
        assert mem.access_delay(100) == pytest.approx(1.5)

    def test_factory_capacities(self):
        env = Environment()
        assert hbm_stack(env).capacity == 16 * units.GIB
        assert host_dram(env).capacity == 256 * units.GIB

    def test_bad_capacity_rejected(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            Memory(env, capacity=0, bandwidth=1e9)


class TestPcie:
    def test_dma_duration(self):
        env = Environment()
        pcie = PcieLink(env, bandwidth=1e9, dma_latency=0.001)
        t = {}

        def proc():
            yield pcie.dma_h2d_delay(int(1e9))
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(1.001)

    def test_directions_are_independent(self):
        env = Environment()
        pcie = PcieLink(env, bandwidth=100.0, dma_latency=0.0)
        t = {}

        def proc():
            a = pcie.dma_h2d_delay(100)
            b = pcie.dma_d2h_delay(100)
            yield max(a, b)
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(1.0)  # full duplex

    def test_same_direction_serializes(self):
        env = Environment()
        pcie = PcieLink(env, bandwidth=100.0, dma_latency=0.0)
        t = {}

        def proc():
            a = pcie.dma_h2d_delay(100)
            b = pcie.dma_h2d_delay(100)
            yield max(a, b)
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(2.0)

    def test_counters(self):
        env = Environment()
        pcie = PcieLink(env)
        pcie.dma_h2d_delay(100)
        pcie.dma_d2h_delay(50)
        assert pcie.bytes_h2d == 100
        assert pcie.bytes_d2h == 50

    def test_negative_dma_rejected(self):
        env = Environment()
        pcie = PcieLink(env)
        with pytest.raises(ValueError):
            pcie.dma_h2d_delay(-1)

    def test_dma_time_analytic(self):
        env = Environment()
        pcie = PcieLink(env, bandwidth=1e9, dma_latency=0.5)
        assert pcie.dma_h2d_delay(int(1e9)) == pytest.approx(1.5)


def test_allocated_and_free_bytes_track_allocate_free_and_wrap():
    env = Environment()
    mem = Memory(env, capacity=100, bandwidth=1e9)
    a = mem.allocate(30)
    b = mem.allocate(50)
    assert (mem.allocated_bytes, mem.free_bytes) == (80, 20)
    mem.free(a)
    assert (mem.allocated_bytes, mem.free_bytes) == (50, 50)
    # 80 + 40 > 100: the bump pointer wraps and compacts to the live bytes
    c = mem.allocate(40)
    assert c.offset == 50
    assert (mem.allocated_bytes, mem.free_bytes) == (90, 10)
    with pytest.raises(PlatformError, match="free 10 of 100"):
        mem.allocate(11)
    assert mem.allocated_bytes == 90
    mem.free(b)
    mem.free(c)
    assert (mem.allocated_bytes, mem.free_bytes) == (0, 100)
    assert mem.allocate(100).offset == 0
