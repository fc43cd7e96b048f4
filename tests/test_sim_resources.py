"""Unit tests for Resource, BandwidthResource and TokenBucket."""

import gc
import tracemalloc

import pytest

from repro.sim import BandwidthResource, Environment, Resource
from repro.sim.resources import TokenBucket


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def worker(tag, hold):
        gate = res.try_acquire()
        if gate is not None:
            yield gate
        granted.append((tag, env.now))
        yield env.timeout(hold)
        res.release()

    env.process(worker("a", 5))
    env.process(worker("b", 5))
    env.process(worker("c", 1))
    env.run()
    by_tag = dict(granted)
    assert by_tag["a"] == 0
    assert by_tag["b"] == 0
    assert by_tag["c"] == pytest.approx(5)


def test_resource_release_idle_rejected():
    env = Environment()
    res = Resource(env)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)
    res.try_acquire()
    res.try_acquire()
    res.try_acquire()
    assert res.in_use == 1
    assert res.queue_length == 2


def test_bandwidth_transfer_duration():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)
    finished = {}

    def proc():
        yield env.timeout_at(pipe.reserve(200))
        finished["t"] = env.now

    env.process(proc())
    env.run()
    assert finished["t"] == pytest.approx(2.0)


def test_bandwidth_serializes_fifo():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)
    finish = {}

    def proc(tag, size):
        yield env.timeout_at(pipe.reserve(size))
        finish[tag] = env.now

    env.process(proc("a", 100))
    env.process(proc("b", 100))
    env.run()
    assert finish["a"] == pytest.approx(1.0)
    assert finish["b"] == pytest.approx(2.0)  # queued behind "a"


def test_bandwidth_idle_gap_not_charged():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)
    finish = {}

    def proc():
        yield env.timeout_at(pipe.reserve(100))
        yield env.timeout(10)
        yield env.timeout_at(pipe.reserve(100))
        finish["t"] = env.now

    env.process(proc())
    env.run()
    assert finish["t"] == pytest.approx(12.0)


def test_bandwidth_utilization_and_counters():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)

    def proc():
        yield env.timeout_at(pipe.reserve(100))
        yield env.timeout(1)

    env.process(proc())
    env.run()
    assert pipe.bytes_moved == 100
    assert pipe.utilization() == pytest.approx(0.5)


def test_bandwidth_reserve_matches_transfer_math():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=50.0)
    t1 = pipe.reserve(100)
    t2 = pipe.reserve(50)
    assert t1 == pytest.approx(2.0)
    assert t2 == pytest.approx(3.0)


def test_bandwidth_rejects_bad_args():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthResource(env, rate_bytes_per_s=0)
    pipe = BandwidthResource(env, rate_bytes_per_s=10)
    with pytest.raises(ValueError):
        pipe.reserve(-1)


def test_token_bucket_blocks_when_empty():
    env = Environment()
    bucket = TokenBucket(env, tokens=2)
    times = []

    def taker(tag):
        yield bucket.take()
        times.append((tag, env.now))

    env.process(taker("a"))
    env.process(taker("b"))
    env.process(taker("c"))

    def giver():
        yield env.timeout(5)
        bucket.give()

    env.process(giver())
    env.run()
    by_tag = dict(times)
    assert by_tag["a"] == 0
    assert by_tag["b"] == 0
    assert by_tag["c"] == pytest.approx(5)


def test_token_bucket_never_exceeds_capacity():
    env = Environment()
    bucket = TokenBucket(env, tokens=3)
    bucket.give(10)
    assert bucket.available == 3


def test_token_bucket_fifo_fairness():
    env = Environment()
    bucket = TokenBucket(env, tokens=1)
    bucket.take()
    order = []

    def taker(tag, amount):
        yield bucket.take(amount)
        order.append(tag)

    env.process(taker("wants-one", 1))

    def giver():
        yield env.timeout(1)
        bucket.give(1)

    env.process(giver())
    env.run()
    assert order == ["wants-one"]


def test_token_bucket_oversized_request_rejected():
    env = Environment()
    bucket = TokenBucket(env, tokens=2)
    with pytest.raises(ValueError):
        bucket.take(3)


def test_bandwidth_utilization_clips_in_flight_transfer():
    """A transfer scheduled beyond *now* only counts up to *now*."""
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)
    measured = {}

    def proc():
        pipe.reserve(200)          # busy [0, 2], still in flight at t=1
        yield env.timeout(1)
        measured["u"] = pipe.utilization()

    env.process(proc())
    env.run()
    assert measured["u"] == pytest.approx(1.0)


def test_bandwidth_back_to_back_transfers_merge_busy_intervals():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)

    def proc():
        for _ in range(4):
            yield env.timeout_at(pipe.reserve(100))

    env.process(proc())
    env.run()
    # No gap between the transfers: the whole run is busy.
    assert pipe.utilization() == 1.0


def test_bandwidth_pipe_stays_constant_size_across_idle_gaps():
    """Run-time memory stays bounded: a pipe keeps a fixed set of numbers,
    so an idle gap adds at most 1 B to it and no object for the cyclic GC
    to walk."""
    gaps = 10_000

    def idle_gaps(env, pipe, n):
        for _ in range(n):
            yield env.timeout_at(pipe.reserve(100))    # busy for 1 s ...
            yield 1.0                   # ... then idle for 1 s

    gc.collect()
    tracemalloc.start()
    try:
        env = Environment()
        pipe = BandwidthResource(env, rate_bytes_per_s=100.0)
        # Warm up, so the measured run grows no kernel structure.
        env.process(idle_gaps(env, pipe, 100))
        env.run()
        gc.collect()
        traced_before = tracemalloc.get_traced_memory()[0]
        tracked_before = len(gc.get_objects())
        env.process(idle_gaps(env, pipe, gaps))
        env.run()
        gc.collect()
        tracked_grown = len(gc.get_objects()) - tracked_before
        traced_grown = tracemalloc.get_traced_memory()[0] - traced_before
    finally:
        tracemalloc.stop()
    assert env.now == 2.0 * (100 + gaps)
    assert pipe.utilization() == 0.5
    assert traced_grown <= gaps, f"{traced_grown / gaps:.3f} B per gap"
    assert tracked_grown <= 16


def test_token_bucket_large_head_request_blocks_later_small_ones():
    """FIFO fairness: a small request must not overtake a big queued one."""
    env = Environment()
    bucket = TokenBucket(env, tokens=4, initial=0)
    order = []

    def taker(tag, amount):
        yield bucket.take(amount)
        order.append((tag, env.now))

    env.process(taker("big", 4))
    env.process(taker("small", 1))

    def giver():
        yield env.timeout(1)
        bucket.give(2)   # enough for "small", but "big" heads the queue
        yield env.timeout(1)
        bucket.give(2)   # big (4) proceeds; small still short
        yield env.timeout(1)
        bucket.give(1)   # now small proceeds

    env.process(giver())
    env.run()
    assert order == [("big", pytest.approx(2.0)),
                     ("small", pytest.approx(3.0))]
    assert bucket.available == 0


def test_token_bucket_take_queues_behind_existing_waiters():
    env = Environment()
    bucket = TokenBucket(env, tokens=2, initial=0)
    order = []

    def taker(tag):
        yield bucket.take(2)
        order.append(tag)

    env.process(taker("first"))
    env.process(taker("second"))

    def giver():
        yield env.timeout(1)
        bucket.give(2)
        yield env.timeout(1)
        bucket.give(2)

    env.process(giver())
    env.run()
    assert order == ["first", "second"]


def _schedule_state(env):
    return list(env._heap), list(env._bucket), env._seq


def test_try_acquire_free_slot_schedules_nothing():
    env = Environment()
    res = Resource(env, capacity=2)
    before = _schedule_state(env)
    assert res.try_acquire() is None
    assert res.try_acquire() is None
    assert _schedule_state(env) == before
    assert res.in_use == 2


def test_try_acquire_queues_when_full_and_release_hands_over():
    env = Environment()
    res = Resource(env, capacity=1)
    assert res.try_acquire() is None
    gate = res.try_acquire()
    assert gate is not None and not gate.triggered
    # A later request queues behind the waiter, even once one slot frees.
    later = res.try_acquire()
    assert res.queue_length == 2
    res.release()
    assert gate.triggered and not later.triggered
    assert res.in_use == 1 and res.queue_length == 1


def test_try_take_affordable_request_schedules_nothing():
    env = Environment()
    bucket = TokenBucket(env, 10)
    before = _schedule_state(env)
    assert bucket.try_take(4) is None
    assert bucket.try_take(6) is None
    assert _schedule_state(env) == before
    assert bucket.available == 0


def test_try_take_queues_behind_a_waiter_even_when_affordable():
    env = Environment()
    bucket = TokenBucket(env, 10, initial=3)
    head = bucket.try_take(5)  # unaffordable: queues
    assert head is not None
    small = bucket.try_take(1)  # affordable, but someone waits
    assert small is not None and bucket.available == 3
    bucket.give(3)  # 6 available: the head is served first, then the small
    assert head.triggered and small.triggered
    assert bucket.available == 0


def test_take_with_enough_tokens_is_done_at_once():
    env = Environment()
    bucket = TokenBucket(env, tokens=4)
    ev = bucket.take(3)
    assert ev.processed and ev.value == 3 and bucket.available == 1
    waiting = bucket.take(2)  # not enough: queues
    assert not waiting.triggered
    bucket.give(1)
    assert waiting.triggered and bucket.available == 0
