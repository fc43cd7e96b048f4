"""Tests pinning the performance fast paths to baseline behavior.

Every optimization here has a slower, simpler twin (one heap entry per
delivered segment, event-object sleeps); these tests assert the fast paths
are *observationally identical* to the twins — same delivery order, same
timestamps, same simulated totals.
"""

import random

import pytest

from repro import units
from repro.errors import NetworkError
from repro.network import Link, Segment
from repro.sim import BandwidthResource, Environment
from repro.sim.kernel import SimulationError


class _PerSegmentLink(Link):
    """The pump's reference: the plain serializer reservation and one heap
    entry per delivered segment, at the relative delay a plain schedule
    computes.  It never touches the pump: its in-flight queue is ``None``
    and its pump raises, so a send that bypasses this override fails."""

    __slots__ = ("reference_sends",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._in_flight = None
        self.reference_sends = 0

    def send(self, segment):
        now = self.env.now
        done = BandwidthResource.reserve(self, segment.wire_bytes)
        self.env.schedule_callback(done + self.latency - now, self._sink,
                                   segment)
        self.reference_sends += 1
        return done

    def _pump(self):
        raise AssertionError("the reference link must not use the pump")


def _run_segment_train(link_cls, train):
    """Drive one link with a (payload, gap) train; returns the arrival
    log ``[(time, payload), ...]``, the final simulation time and the
    link."""
    env = Environment()
    link = link_cls(env, rate=units.gbps(10), latency=units.us(1))
    arrivals = []
    link.connect(lambda seg: arrivals.append((env.now, seg.payload_bytes)))

    def sender():
        for payload, gap in train:
            link.send(Segment(0, 1, payload_bytes=payload))
            if gap > 0.0:
                yield gap

    env.process(sender())
    env.run()
    return arrivals, env.now, link


def _assert_pump_matches_reference(train):
    pumped, end_p, link = _run_segment_train(Link, train)
    reference, end_r, ref_link = _run_segment_train(_PerSegmentLink, train)
    assert ref_link.reference_sends == len(train)
    assert ref_link._in_flight is None and not ref_link._pump_scheduled
    assert len(pumped) == len(train)
    assert pumped == reference
    assert end_p == end_r
    assert link._free_at == ref_link._free_at


class TestLinkCoalescing:
    """The link's delivery pump must be indistinguishable from one heap
    entry per segment."""

    @pytest.mark.parametrize("seed", [1, 7, 42, 1234])
    def test_randomized_trains_identical(self, seed):
        rng = random.Random(seed)
        train = []
        for _ in range(rng.randint(40, 120)):
            payload = rng.choice([
                0, 1, 64, rng.randint(1, Link.MAX_SEGMENT_BYTES),
                Link.MAX_SEGMENT_BYTES,
            ])
            # Mix back-to-back bursts (gap 0: the case coalescing targets)
            # with idle gaps long enough to drain the pump in between.
            gap = rng.choice([0.0, 0.0, 0.0, units.us(rng.uniform(0.1, 50))])
            train.append((payload, gap))

        _assert_pump_matches_reference(train)

    def test_back_to_back_burst_single_heap_entry_timing(self):
        # Worked example: 3 segments at 1000 B/s, zero gap.  Wire size is
        # payload + Ethernet header; each serializes after the previous.
        env = Environment()
        link = Link(env, rate=1000.0, latency=0.5)
        arrivals = []
        link.connect(lambda seg: arrivals.append(env.now))
        from repro.network.packet import ETHERNET_HEADER_BYTES
        payload = 1000 - ETHERNET_HEADER_BYTES
        for _ in range(3):
            link.send(Segment(0, 1, payload_bytes=payload, mtu=4000))
        assert len(env._heap) == 1
        env.run()
        assert arrivals == [pytest.approx(1.5), pytest.approx(2.5),
                            pytest.approx(3.5)]

    def test_pump_reschedules_after_idle_gap(self):
        train = [(1000, units.us(500)), (1000, 0.0)]
        _assert_pump_matches_reference(train)


class TestMaxSegmentBoundary:
    def _link(self):
        env = Environment()
        link = Link(env, rate=units.gbps(100), latency=0.0)
        arrivals = []
        link.connect(arrivals.append)
        return env, link, arrivals

    def test_exactly_max_segment_is_legal(self):
        env, link, arrivals = self._link()
        link.send(Segment(0, 1, payload_bytes=Link.MAX_SEGMENT_BYTES))
        env.run()
        assert len(arrivals) == 1
        assert arrivals[0].payload_bytes == Link.MAX_SEGMENT_BYTES

    def test_one_byte_over_max_raises_with_size_and_limit(self):
        env, link, arrivals = self._link()
        oversized = Link.MAX_SEGMENT_BYTES + 1
        with pytest.raises(NetworkError) as exc:
            link.send(Segment(0, 1, payload_bytes=oversized))
        message = str(exc.value)
        assert str(oversized) in message
        assert str(Link.MAX_SEGMENT_BYTES) in message
        assert arrivals == []


class TestRunUntilNow:
    def test_run_until_current_time_returns_immediately(self):
        env = Environment()
        fired = []
        env.schedule_callback(1.0, lambda: fired.append(env.now))
        assert env.run(until=env.now) is None
        assert env.now == 0.0
        assert fired == []  # nothing strictly in the future may run

    def test_run_until_now_after_advancing(self):
        env = Environment()
        env.schedule_callback(2.0, lambda: None)
        env.run(until=2.0)
        assert env.now == 2.0
        env.schedule_callback(1.0, lambda: None)
        assert env.run(until=env.now) is None
        assert env.now == 2.0

    def test_run_until_past_time_still_raises(self):
        env = Environment()
        env.schedule_callback(1.0, lambda: None)
        env.run(until=1.0)
        with pytest.raises(SimulationError):
            env.run(until=0.5)


class TestSleepFastPath:
    """``yield <float>`` sleeps: same semantics as ``yield env.timeout()``."""

    def test_float_yield_advances_time(self):
        env = Environment()
        log = []

        def proc():
            yield 1.5
            log.append(env.now)
            yield 0.25
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [1.5, 1.75]

    def test_negative_sleep_rejected(self):
        env = Environment()

        def proc():
            yield -1.0

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_mixed_float_and_event_yields(self):
        env = Environment()
        log = []

        def proc():
            yield 1.0
            yield env.timeout(1.0)
            yield 1.0
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [3.0]
