"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.cclo.match import MatchTable
from repro.collectives.util import block_ranges
from repro.network import Link, Switch
from repro.network.packet import ETHERNET_HEADER_BYTES, Burst, Segment
from repro.sim import BandwidthResource, Environment
from repro.sim.resources import TokenBucket

fast = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestBlockRanges:
    @fast
    @given(total=st.integers(0, 10**8), parts=st.integers(1, 64))
    def test_blocks_cover_exactly(self, total, parts):
        ranges = block_ranges(total, parts)
        assert len(ranges) == parts
        assert ranges[0][0] == 0
        end = 0
        for offset, length in ranges:
            assert offset == end
            assert length >= 0
            end = offset + length
        assert end == total

    @fast
    @given(total=st.integers(0, 10**8), parts=st.integers(1, 64))
    def test_all_but_last_aligned(self, total, parts):
        for offset, length in block_ranges(total, parts)[:-1]:
            assert offset % 64 == 0
            assert length % 64 == 0

    @fast
    @given(total=st.integers(64, 10**8), parts=st.integers(1, 16))
    def test_blocks_balanced(self, total, parts):
        """No block exceeds its fair share by more than parts alignments."""
        lengths = [ln for _, ln in block_ranges(total, parts)]
        fair = total / parts
        assert max(lengths) <= fair + parts * 64


class TestSegmentInvariants:
    @fast
    @given(payload=st.integers(0, 10**7), mtu=st.integers(64, 9000))
    def test_wire_bytes_bound_payload(self, payload, mtu):
        seg = Segment(0, 1, payload_bytes=payload, mtu=mtu)
        assert seg.wire_bytes >= payload
        assert seg.n_frames >= 1
        # Header overhead never exceeds one header per MTU plus one frame.
        max_overhead = (payload // mtu + 1) * ETHERNET_HEADER_BYTES
        assert seg.wire_bytes - payload <= max_overhead

    @fast
    @given(payload=st.integers(1, 10**7), mtu=st.integers(64, 9000))
    def test_frame_count_exact(self, payload, mtu):
        seg = Segment(0, 1, payload_bytes=payload, mtu=mtu)
        assert (seg.n_frames - 1) * mtu < payload <= seg.n_frames * mtu


class TestMatchTableProperties:
    @fast
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3)),
                    min_size=1, max_size=40))
    def test_fifo_per_key_any_interleaving(self, ops):
        """Any interleaving of posts and waits matches values per key FIFO."""
        env = Environment()
        table = MatchTable(env)
        posted = {}
        received = {}
        waits = []
        for is_post, key in ops:
            if is_post:
                seq = posted.setdefault(key, [])
                value = (key, len(seq))
                seq.append(value)
                table.post(key, value)
            else:
                ev = table.wait(key)
                waits.append((key, ev))
        env.run()
        for key, ev in waits:
            if ev.triggered:
                received.setdefault(key, []).append(ev.value)
        for key, values in received.items():
            assert values == posted.get(key, [])[:len(values)]

    @fast
    @given(st.integers(1, 20))
    def test_conservation(self, n):
        """pending + consumed == posted, always."""
        env = Environment()
        table = MatchTable(env)
        for i in range(n):
            table.post("k", i)
        consumed = 0
        for _ in range(n // 2):
            ev = table.wait("k")
            assert ev.triggered
            consumed += 1
        assert table.pending("k") + consumed == n


class TestTokenBucketProperties:
    @fast
    @given(capacity=st.integers(1, 1000),
           ops=st.lists(st.integers(-100, 100), max_size=50))
    def test_never_exceeds_capacity_or_goes_negative(self, capacity, ops):
        env = Environment()
        bucket = TokenBucket(env, capacity)
        for amount in ops:
            if amount >= 0:
                bucket.give(amount)
            else:
                take = min(-amount, capacity)
                bucket.take(take)  # may queue; available never negative
            assert 0 <= bucket.available <= capacity


class TestBandwidthProperties:
    @fast
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=20),
           st.floats(1e3, 1e9))
    def test_serialization_conserves_time(self, sizes, rate):
        """Busy time equals total bytes / rate, regardless of issue order."""
        env = Environment()
        pipe = BandwidthResource(env, rate)
        for nbytes in sizes:
            pipe.reserve(nbytes)
        assert pipe.bytes_moved == sum(sizes)
        assert pipe._busy_time == pytest.approx(sum(sizes) / rate, rel=1e-9)

    @fast
    @given(st.lists(st.integers(1, 10**6), min_size=2, max_size=20))
    def test_fifo_completion_order(self, sizes):
        env = Environment()
        pipe = BandwidthResource(env, 1e6)
        finishes = [pipe.reserve(n) for n in sizes]
        assert finishes == sorted(finishes)


class _ListOfListsHistory:
    """Reference busy history: one ``[start, end]`` list per merged busy
    interval, summed over ``[0, now]``."""

    def __init__(self):
        self.intervals = []

    def record(self, start, finish):
        if self.intervals and start <= self.intervals[-1][1]:
            last = self.intervals[-1]
            last[1] = max(last[1], finish)
        else:
            self.intervals.append([start, finish])

    def utilization(self, now):
        if now <= 0:
            return 0.0
        busy = sum(max(0.0, min(end, now) - start)
                   for start, end in self.intervals)
        return min(1.0, busy / now)


_fifo_ops = st.lists(st.one_of(
    st.tuples(st.just("reserve"), st.integers(0, 10**6)),
    st.tuples(st.just("advance"), st.floats(1e-9, 5.0)),
), max_size=60)


class TestUtilizationProperties:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_fifo_ops, rate=st.floats(1e5, 1e7))
    def test_fifo_utilization_equals_busy_union(self, ops, rate):
        """Busy time elapsed by now over now, with transfers still in
        flight at the query, is the union of the busy intervals over
        ``[0, now]``.  The busy seconds agree within 1e-12 relative to the
        pipe's time horizon: the pipe subtracts times up to its free-at
        watermark, whose rounding shows when a long reservation has only
        just started."""
        env = Environment()
        pipe = BandwidthResource(env, rate)
        ref = _ListOfListsHistory()
        for kind, arg in ops:
            if kind == "reserve":
                start = pipe.busy_until()
                ref.record(start, pipe.reserve(arg))
            else:
                env.run(until=env.now + arg)
            now = env.now
            busy_error = abs(pipe.utilization() - ref.utilization(now)) * now
            assert busy_error <= 1e-12 * pipe.busy_until()


class TestUnitsProperties:
    @fast
    @given(st.floats(1e-3, 1e12))
    def test_gbps_roundtrip(self, value):
        assert units.to_gbps(units.gbps(value)) == pytest.approx(value)

    @fast
    @given(st.integers(0, 2**50))
    def test_pretty_size_parses_back(self, nbytes):
        text = units.pretty_size(nbytes)
        mult = {"GiB": units.GIB, "MiB": units.MIB, "KiB": units.KIB, "B": 1}
        for suffix, factor in mult.items():
            if text.endswith(suffix):
                assert int(text[:-len(suffix)]) * factor == nbytes
                break
        else:
            pytest.fail(f"unparseable: {text}")


class _DeferringSwitch(Switch):
    """Reference switch: its ingress link delivers at arrival, and the
    switch defers the egress send by the forwarding latency as a kernel
    event of its own (two events per switch hop)."""

    __slots__ = ()

    def connect_ingress(self, link):
        link.connect(self.ingress)

    def ingress(self, segment):
        egress = self._egress.get(segment.dst)
        if egress is None:
            egress = self._route(segment.src, segment.dst)
        self.segments_forwarded += 1
        self.env.schedule_callback(self.forwarding_latency, egress.send,
                                   segment)


class _LoggedLink(Link):
    """Records every send: the order segments enter each egress FIFO."""

    __slots__ = ("sends",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sends = []

    def send(self, segment):
        self.sends.append((self.env.now, segment.src, segment.seqno))
        return super().send(segment)


_HOSTS_PER_LEAF = 2
_N_HOSTS = 2 * _HOSTS_PER_LEAF


def _two_tier_run(switch_cls, trains):
    """Run segment trains through a two-leaf, two-spine fabric built from
    *switch_cls*; ``trains[src]`` is ``(start, [(dst, payload, gap)])``.
    Returns each host's arrival log, each link's send log and bytes, and
    the number of kernel events dispatched."""
    env = Environment()
    links = []

    def link(name):
        made = _LoggedLink(env, name=name)
        links.append(made)
        return made

    leaves = [switch_cls(env, name=f"leaf{i}") for i in range(2)]
    spines = [switch_cls(env, name=f"spine{j}") for j in range(2)]
    for spine in spines:
        spine.set_resolver(lambda dst: dst // _HOSTS_PER_LEAF)
    for i, leaf in enumerate(leaves):
        for j, spine in enumerate(spines):
            up = link(f"leaf{i}.up{j}")
            spine.connect_ingress(up)
            leaf.add_default_route(up)
            down = link(f"spine{j}.down{i}")
            leaf.connect_ingress(down)
            spine.attach_block(i, down)
    arrivals = {}
    uplinks = {}
    for host in range(_N_HOSTS):
        leaf = leaves[host // _HOSTS_PER_LEAF]
        uplinks[host] = link(f"h{host}.up")
        leaf.connect_ingress(uplinks[host])
        log = arrivals[host] = []
        down = link(f"h{host}.down")
        down.connect(lambda seg, log=log: log.append(
            (env.now, seg.src, seg.seqno)))
        leaf.attach(host, down)

    def sender(src, start, train):
        if start > 0.0:
            yield start
        for seqno, (dst, payload, gap) in enumerate(train):
            uplinks[src].send(Segment(src, dst, payload_bytes=payload,
                                      seqno=seqno))
            if gap > 0.0:
                yield gap

    for src, (start, train) in sorted(trains.items()):
        env.process(sender(src, start, train))
    before = Environment.total_events_processed
    env.run()
    return (arrivals, [(ln.name, ln.sends, ln.bytes_carried) for ln in links],
            Environment.total_events_processed - before)


# A coarse grid of payloads, gaps and start offsets: equal sizes sent at
# equal instants from different hosts reach a shared egress together.
_train_item = st.tuples(st.integers(0, _N_HOSTS - 1),
                        st.sampled_from([0, 64, 1024, 9000, 32 * 1024]),
                        st.sampled_from([0.0, 0.0, units.ns(600),
                                         units.us(1), units.us(3)]))
_trains = st.dictionaries(
    st.integers(0, _N_HOSTS - 1),
    st.tuples(st.sampled_from([0.0, 0.0, units.ns(600), units.us(2)]),
              st.lists(_train_item, min_size=1, max_size=12)),
    min_size=1, max_size=_N_HOSTS)

#: hosts 0 and 1 (leaf 0) and 2 and 3 (leaf 1) cross-send equal trains at
#: t=0: segments meet at shared egresses at the same instant.
_SAME_INSTANT = {0: (0.0, [(2, 1024, 0.0)] * 3),
                 1: (0.0, [(2, 1024, 0.0)] * 3),
                 2: (0.0, [(0, 1024, 0.0), (1, 64, 0.0)]),
                 3: (0.0, [(0, 1024, 0.0), (1, 64, 0.0)])}

#: host 2 sends its second segment while the first is inside leaf 1's
#: forwarding window, at the instant host 3 sends its first: both reach
#: h0.down at one instant, in the opposite order to the reference.
_TIE_SWAP = {2: (0.0, [(0, 0, units.ns(600)), (0, 0, 0.0)]),
             3: (units.ns(600), [(0, 0, 0.0)])}


def _first_divergence(folded_links, ref_links):
    """Earliest ``(time, name, folded_sends, ref_sends)`` at which a
    link's send log differs between the two runs, or ``None``."""
    first = None
    for (name, sends, _), (_, ref_sends, _) in zip(folded_links, ref_links):
        for got, want in zip(sends, ref_sends):
            if got != want:
                at = min(got[0], want[0])
                if first is None or at < first[0]:
                    first = (at, name, sends, ref_sends)
                break
    return first


class TestSwitchForwardingProperties:
    """A switch hop in one kernel event (the ingress link delivers at
    arrival plus the forwarding latency) against the two-event design that
    defers the egress send.  Every send runs at the same float time; only
    the order of sends at one instant on one link can differ, because a
    link's pending delivery is rescheduled one forwarding latency later
    than the reference's.  Bytes per link never differ."""

    @staticmethod
    def _normalize(trains):
        # A host does not send to itself: redirect to the next host.
        return {src: (start, [(dst if dst != src else (src + 1) % _N_HOSTS,
                               payload, gap)
                              for dst, payload, gap in train])
                for src, (start, train) in trains.items()}

    @staticmethod
    def _switch_hops(trains):
        return sum(1 if src // _HOSTS_PER_LEAF == dst // _HOSTS_PER_LEAF
                   else 3
                   for src, (_, train) in trains.items()
                   for dst, _, _ in train)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trains=_trains)
    @example(trains=_SAME_INSTANT)
    @example(trains=_TIE_SWAP)
    def test_same_send_times_as_deferred_send_switch(self, trains):
        trains = self._normalize(trains)
        folded, folded_links, folded_events = _two_tier_run(Switch, trains)
        ref, ref_links, ref_events = _two_tier_run(_DeferringSwitch, trains)
        assert ref_events - folded_events == self._switch_hops(trains)
        assert ([b for _, _, b in folded_links]
                == [b for _, _, b in ref_links])
        first = _first_divergence(folded_links, ref_links)
        if first is None:
            assert folded == ref
            return
        # Up to the first difference both runs are identical, so it must
        # be the same set of segments sent at one instant, reordered.
        at, _, sends, ref_sends = first
        assert sorted(x for x in sends if x[0] == at) == \
            sorted(x for x in ref_sends if x[0] == at)
        assert [x for x in sends if x[0] < at] == \
            [x for x in ref_sends if x[0] < at]

    def test_same_instant_arrivals_at_shared_egress_match(self):
        folded, links, _ = _two_tier_run(Switch, _SAME_INSTANT)
        ref, ref_links, _ = _two_tier_run(_DeferringSwitch, _SAME_INSTANT)
        # links where two hosts' segments are sent at one instant
        shared = {name for name, sends, _ in links for t, _, _ in sends
                  if len({src for u, src, _ in sends if u == t}) > 1}
        assert {"h0.down", "h2.down"} <= shared
        assert folded == ref
        assert links == ref_links

    def test_tie_break_can_move_within_one_instant(self):
        folded, links, _ = _two_tier_run(Switch, _TIE_SWAP)
        ref, ref_links, _ = _two_tier_run(_DeferringSwitch, _TIE_SWAP)
        at, name, sends, ref_sends = _first_divergence(links, ref_links)
        assert name == "h0.down"
        assert [x[1:] for x in sends if x[0] == at] == [(3, 0), (2, 1)]
        assert [x[1:] for x in ref_sends if x[0] == at] == [(2, 1), (3, 0)]
        assert sorted(t for t, _, _ in folded[0]) == \
            sorted(t for t, _, _ in ref[0])


class _SendOrderLink(Link):
    """Records the ``(meta, seqno)`` of every segment passed to ``send``,
    in call order (expanded bursts included)."""

    __slots__ = ("sent",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []

    def send(self, segment):
        self.sent.append((segment.meta, segment.seqno))
        return super().send(segment)


_FIFO_SEG = 32 * units.KIB
_FIFO_MTU = 4096
_FIFO_BURST_SEGMENTS = 8

#: (gap before the op, op, message index): "burst" sends the next
#: sub-burst of one message, "foreign" a multi-frame segment of no
#: message, "control" a single-frame segment.
_link_ops = st.lists(
    st.tuples(st.floats(0.0, units.us(40)),
              st.sampled_from(["burst", "burst", "foreign", "control"]),
              st.integers(0, 2)),
    min_size=1, max_size=14)

#: M's first sub-burst is carried; a foreign segment queues behind it and
#: forces M's second sub-burst to expand; M's third continues M's train
#: behind them; a control segment then arrives while the first train is
#: still on the wire and queues behind all of them.
_STALE_TRAIN = [(0.0, "burst", 0), (units.us(1), "foreign", 0),
                (units.us(1), "burst", 0), (units.us(28), "burst", 0),
                (units.us(10), "control", 0)]


def _flow_link_run(ops, n_msgs):
    """Drive *ops* into one flow-wired 10 Gb/s link whose bursts are
    spaced at 100 Gb/s.  Returns the link, every delivery time in order,
    each segment's arrival time by ``(meta, seqno)`` and the wire bytes
    submitted."""
    env = Environment()
    link = _SendOrderLink(env, rate=units.gbps(10), latency=units.us(1))
    times, arrived = [], {}

    def on_segment(segment):
        times.append(env.now)
        arrived[(segment.meta, segment.seqno)] = env.now

    link.connect(on_segment)
    link.connect_burst(lambda burst: times.append(env.now), at_tail=True)
    owners = [("M", i) for i in range(n_msgs)]
    next_seq = [0] * n_msgs
    spacing = (Segment(0, 1, _FIFO_SEG, mtu=_FIFO_MTU).wire_bytes
               / units.gbps(100))
    submitted = 0

    def driver():
        nonlocal submitted
        for k, (gap, op, msg) in enumerate(ops):
            if gap > 0.0:
                yield gap
            if op == "burst":
                msg %= n_msgs
                n = _FIFO_BURST_SEGMENTS
                burst = Burst(
                    src=0, dst=1, payload_bytes=n * _FIFO_SEG, n_segments=n,
                    segment_bytes=_FIFO_SEG, last_bytes=_FIFO_SEG,
                    meta=owners[msg], mtu=_FIFO_MTU, head_at=env.now,
                    spacing=spacing, last_at=env.now + (n - 1) * spacing,
                    seq_base=next_seq[msg])
                next_seq[msg] += n
                submitted += burst.wire_total
                link.send_burst(burst)
            else:
                segment = Segment(
                    0, 1, _FIFO_SEG if op == "foreign" else 16,
                    meta=(op, k), mtu=_FIFO_MTU)
                submitted += segment.wire_bytes
                link.send(segment)

    env.process(driver())
    env.run()
    return link, times, arrived, submitted


class TestLinkFifoProperties:
    """Flow-mode shortcuts on one link (carried sub-bursts, expansion,
    control segments queued behind a train) keep the link FIFO for
    everything passed to ``send``."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_link_ops, n_msgs=st.integers(2, 3))
    @example(ops=_STALE_TRAIN, n_msgs=2)
    def test_sends_arrive_in_send_order(self, ops, n_msgs):
        link, times, arrived, submitted = _flow_link_run(ops, n_msgs)
        assert times == sorted(times)
        assert set(arrived) == set(link.sent)
        latest = 0.0
        for key in link.sent:
            assert arrived[key] >= latest, key
            latest = arrived[key]
        assert link.bytes_carried == submitted


#: One message per entry: (segments, gap before it in segment times,
#: control frames sent inside that gap as fractions of it).
_b2b_messages = st.lists(
    st.tuples(st.integers(2, 40), st.floats(0.0, 3.0),
              st.lists(st.floats(0.0, 1.0), max_size=2)),
    min_size=2, max_size=5)

#: The first control queues at A's tail; the second is sent just after
#: A's last segment leaves, while the first is still on the wire.
_CONTROL_BEHIND_CONTROL = [(8, 0.0, []), (8, 1.001, [0.0, 1.0])]
#: A control sent at the 29-segment message's handoff, where a relative
#: sleep to that handoff wakes an ulp early.
_CONTROL_AT_HANDOFF = [(8, 3.0, []), (29, 2.625, []), (2, 0.0, [0.0])]


def _b2b_run(messages, flow):
    """Send *messages* one after another through one 100 Gb/s link: as
    sub-bursts of at most 33 segments offered at each handoff (``flow``,
    as the POE does) or as paced segments.  Returns the delivery time of
    each message's last segment and of each control frame, by key."""
    env = Environment()
    link = Link(env, rate=units.gbps(100), latency=units.us(1))
    done = {}
    link.connect(lambda s: done.__setitem__(s.meta, env.now))
    link.connect_burst(lambda b: done.__setitem__(b.meta, env.now),
                       at_tail=True)
    seg_time = Segment(0, 1, _FIFO_SEG).wire_bytes / link.rate

    def sender():
        for i, (n, gap, controls) in enumerate(messages):
            t0 = env.now
            for k, frac in enumerate(sorted(controls)):
                at = t0 + frac * gap * seg_time
                if at > env.now:
                    yield at - env.now
                link.send(Segment(0, 1, 16, meta=("control", i, k)))
            at = t0 + gap * seg_time
            if at > env.now:
                yield at - env.now
            sent = 0
            while sent < n:
                k = n - sent if n - sent <= 33 else 32
                if flow:
                    handoff = link.try_send_burst(Burst(
                        src=0, dst=1, payload_bytes=k * _FIFO_SEG,
                        n_segments=k, segment_bytes=_FIFO_SEG,
                        last_bytes=_FIFO_SEG, meta=("message", i),
                        head_at=env.now, spacing=0.0, last_at=env.now,
                        seq_base=sent))
                    assert handoff is not None
                    # Wake at exactly the handoff.  The link orders a
                    # control against the train by time, and a relative
                    # sleep can wake an ulp early, ahead of the last
                    # segment; the packet loop orders by call instead.
                    yield env.timeout_at(handoff)
                else:
                    for j in range(sent, sent + k):
                        egress = link.send(Segment(
                            0, 1, _FIFO_SEG, meta=("message", i), seqno=j))
                        if j < n - 1:
                            yield egress - env.now
                sent += k

    env.process(sender())
    env.run()
    return done


class TestFlowMatchesPacketProperties:
    """The first hop carries back-to-back messages analytically, each one
    queued behind the previous one's last segment and any control frames
    sent in between, exactly where packet FIFO puts them."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(messages=_b2b_messages)
    @example(messages=_CONTROL_BEHIND_CONTROL)
    @example(messages=_CONTROL_AT_HANDOFF)
    def test_back_to_back_messages_match_paced_packets(self, messages):
        flow = _b2b_run(messages, flow=True)
        packet = _b2b_run(messages, flow=False)
        assert flow.keys() == packet.keys()
        for key, at in packet.items():
            # Closed-form and stepwise sums differ in the last bits.
            assert abs(flow[key] - at) <= 1e-12 * at, key


class TestProtocolProperties:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sizes=st.lists(st.integers(0, 300_000), min_size=1, max_size=8))
    def test_udp_reassembly_delivers_every_message_once(self, sizes):
        """Any mix of message sizes (including zero-byte and multi-segment)
        arrives exactly once and intact.  Completion *order* is not part of
        the contract: a short datagram may overtake a long one mid-flight,
        which is why the CCLO matches receives on (src, tag), never on
        arrival order."""
        from repro.network import StarTopology
        from repro.protocols import UdpPoe

        env = Environment()
        topo = StarTopology(env)
        a = UdpPoe(env, topo.add_endpoint(0))
        b = UdpPoe(env, topo.add_endpoint(1))
        got = []
        b.on_message(lambda hdr, data: got.append((hdr.meta, hdr.nbytes)))
        for i, nbytes in enumerate(sizes):
            env.process(a.transmit(1, nbytes, meta=i))
        env.run()
        assert sorted(got) == list(enumerate(sizes))

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(nbytes=st.integers(1, 500_000))
    def test_rdma_write_lands_full_payload(self, nbytes):
        from repro.network import StarTopology
        from repro.protocols import RdmaPoe

        env = Environment()
        topo = StarTopology(env)
        a = RdmaPoe(env, topo.add_endpoint(0))
        b = RdmaPoe(env, topo.add_endpoint(1))
        b.on_message(lambda hdr, data: None)
        landed = []
        b.set_memory_writer(lambda hdr, data: landed.append(hdr.nbytes))
        env.process(a.transmit(1, nbytes, meta="d", kind="write"))
        env.run()
        assert landed == [nbytes]


class TestCollectiveProperties:
    """End-to-end functional invariants under randomized shapes."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(size=st.integers(2, 6), root=st.integers(0, 5),
           n=st.sampled_from([64, 192, 256]),
           data=st.randoms())
    def test_bcast_any_root_any_size(self, size, root, n, data):
        from repro.cclo.microcontroller import CollectiveArgs
        from tests.helpers import dev_buffer, empty_dev_buffer, make_cluster

        root = root % size
        cluster = make_cluster(size)
        rng = np.random.default_rng(data.randint(0, 2**31))
        payload = rng.standard_normal(n).astype(np.float32)
        views = [
            dev_buffer(cluster, r, payload.copy()) if r == root
            else empty_dev_buffer(cluster, r, n)
            for r in range(size)
        ]
        cluster.run_collective(lambda r: CollectiveArgs(
            opcode="bcast", root=root, nbytes=payload.nbytes, rbuf=views[r]))
        for r in range(size):
            np.testing.assert_array_equal(views[r].array, payload)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(size=st.integers(2, 6), n=st.sampled_from([64, 128]),
           data=st.randoms())
    def test_allreduce_equals_numpy_sum(self, size, n, data):
        from repro.cclo.microcontroller import CollectiveArgs
        from tests.helpers import dev_buffer, empty_dev_buffer, make_cluster

        cluster = make_cluster(size)
        rng = np.random.default_rng(data.randint(0, 2**31))
        contribs = [rng.standard_normal(n).astype(np.float32)
                    for _ in range(size)]
        svs = [dev_buffer(cluster, r, contribs[r]) for r in range(size)]
        rvs = [empty_dev_buffer(cluster, r, n) for r in range(size)]
        cluster.run_collective(lambda r: CollectiveArgs(
            opcode="allreduce", nbytes=contribs[0].nbytes, sbuf=svs[r],
            rbuf=rvs[r], func="sum"))
        expected = np.sum(contribs, axis=0)
        for r in range(size):
            np.testing.assert_allclose(rvs[r].array, expected,
                                       rtol=1e-3, atol=1e-5)
