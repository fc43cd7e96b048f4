"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Environment,
    Event,
    SimulationError,
    all_of,
)


def test_time_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_time():
    env = Environment()
    done = {}

    def proc():
        yield env.timeout(1.5)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == pytest.approx(1.5)


def test_timeout_carries_value():
    env = Environment()
    result = {}

    def proc():
        result["v"] = yield env.timeout(1.0, value="payload")

    env.process(proc())
    env.run()
    assert result["v"] == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(3, "c"))
    env.process(proc(1, "a"))
    env.process(proc(2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(2)
        return "child-result"

    def parent():
        value = yield env.process(child())
        return value, env.now

    p = env.process(parent())
    value, t = env.run(until=p)
    assert value == "child-result"
    assert t == pytest.approx(2)


def test_event_manual_trigger():
    env = Environment()
    gate = env.event()
    seen = {}

    def waiter():
        seen["v"] = yield gate

    def opener():
        yield env.timeout(5)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert seen["v"] == "open"


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = {}

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught["exc"] = exc

    env.process(waiter())
    gate.fail(RuntimeError("boom"))
    env.run()
    assert str(caught["exc"]) == "boom"


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("firmware fault")

    env.process(bad())
    with pytest.raises(ValueError, match="firmware fault"):
        env.run()


def test_run_until_time():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=3.5)
    assert ticks == [1, 2, 3]
    assert env.now == pytest.approx(3.5)


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_yield_non_event_rejected():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_all_of_waits_for_every_event():
    env = Environment()
    times = {}

    def waiter():
        evs = [env.timeout(1), env.timeout(5), env.timeout(3)]
        yield all_of(env, evs)
        times["done"] = env.now

    env.process(waiter())
    env.run()
    assert times["done"] == pytest.approx(5)


def test_all_of_empty_is_immediate():
    env = Environment()
    times = {}

    def waiter():
        yield all_of(env, [])
        times["done"] = env.now

    env.process(waiter())
    env.run()
    assert times["done"] == 0.0


def test_schedule_callback():
    env = Environment()
    fired = []
    env.schedule_callback(2.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [2.0]


@pytest.mark.parametrize("delay", [-0.5, -1e-300, float("-inf"),
                                   float("nan")])
def test_schedule_callback_rejects_delay_that_would_rewind_time(delay):
    env = Environment()
    fired = []
    env.run(until=1.0)
    env.schedule_callback(2.0, lambda: fired.append(env.now))
    env.schedule_callback(0.0, lambda: fired.append(env.now))
    pending = (env.peek(), len(env._heap), len(env._bucket), env._seq)
    with pytest.raises(SimulationError):
        env.schedule_callback(delay, lambda: fired.append(env.now))
    assert env.now == 1.0
    assert (env.peek(), len(env._heap), len(env._bucket), env._seq) == pending
    env.run()
    assert fired == [1.0, 3.0]
    assert env.now == 3.0


def _pending_state(env):
    return (env.now, env.peek(), len(env._heap), len(env._bucket), env._seq)


def _env_with_pending_work():
    env = Environment()
    env.run(until=1.0)
    env.schedule_callback(2.0, lambda: None)
    env.schedule_callback(0.0, lambda: None)
    return env


def test_timeout_rejects_nan_delay():
    env = _env_with_pending_work()
    before = _pending_state(env)
    with pytest.raises(ValueError):
        env.timeout(float("nan"))
    assert _pending_state(env) == before


@pytest.mark.parametrize("time", [0.5, float("-inf"), float("nan")])
def test_schedule_callback_at_rejects_past_or_nan_time(time):
    env = _env_with_pending_work()
    before = _pending_state(env)
    with pytest.raises(SimulationError):
        env.schedule_callback_at(time, lambda: None)
    assert _pending_state(env) == before


@pytest.mark.parametrize("time", [0.5, float("-inf"), float("nan")])
def test_timeout_at_rejects_past_or_nan_time(time):
    env = _env_with_pending_work()
    before = _pending_state(env)
    with pytest.raises(SimulationError):
        env.timeout_at(time)
    assert _pending_state(env) == before


def test_timeout_at_fires_at_exactly_the_absolute_time():
    now, t = 0.0002564388721379808, 0.000819618240499459
    # A relative reschedule would re-round the completion time.
    assert now + (t - now) == 0.0008196182404994591
    env = Environment()
    env.run(until=now)
    fired = {}

    def waiter():
        fired["value"] = yield env.timeout_at(t, value="done")
        fired["at"] = env.now

    env.process(waiter())
    env.run()
    assert fired == {"value": "done", "at": t}
    # One heap entry, dispatched once.
    env.timeout_at(2 * t).add_callback(lambda ev: fired.update(again=env.now))
    assert len(env._heap) == 1 and len(env._bucket) == 0
    events0 = Environment.total_events_processed
    env.run()
    assert fired["again"] == 2 * t
    assert Environment.total_events_processed - events0 == 1


def test_timeout_at_now_uses_the_now_bucket():
    env = Environment()
    env.run(until=1.0)
    order = []
    env.schedule_callback(0.0, lambda: order.append("before"))
    event = env.timeout_at(1.0)
    event.add_callback(lambda ev: order.append("timeout"))
    env.schedule_callback(0.0, lambda: order.append("after"))
    assert len(env._heap) == 0 and len(env._bucket) == 3
    events0 = Environment.total_events_processed
    env.run()
    assert order == ["before", "timeout", "after"]
    assert env.now == 1.0
    assert Environment.total_events_processed - events0 == 3


def test_process_rejects_nan_sleep():
    env = Environment()
    env.run(until=1.0)
    env.schedule_callback(2.0, lambda: None)

    def proc():
        yield float("nan")

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()
    # The bootstrap ran at t=1 and raised before scheduling its wakeup:
    # only the callback at t=3 is left, and the clock is intact.
    assert (env.now, env.peek(), len(env._heap), len(env._bucket)) == \
        (1.0, 3.0, 1, 0)
    env.run()
    assert env.now == 3.0


def test_event_trigger_takes_no_delay():
    """Triggered events fire at the current time: there is no delay
    argument that could schedule them in the past."""
    env = Environment()
    env.run(until=1.0)
    ev, bad = env.event(), env.event()
    with pytest.raises(TypeError):
        ev.succeed(None, delay=-0.75)
    with pytest.raises(TypeError):
        bad.fail(RuntimeError("x"), delay=-0.75)
    assert not ev.triggered and not bad.triggered
    ev.succeed("v")
    env.run()
    assert env.now == 1.0 and ev.processed and ev.value == "v"


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == pytest.approx(7)


def test_peek_empty_heap_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_yielding_already_processed_event_resumes_immediately():
    env = Environment()
    trace = []

    def proc():
        t = env.timeout(1)
        yield env.timeout(2)  # t is processed by the time we yield it
        yield t
        trace.append(env.now)

    env.process(proc())
    env.run()
    assert trace == [2]


def _events_of(make_proc):
    """Kernel events one run of the process built by *make_proc(env)* takes."""
    env = Environment()
    before = Environment.total_events_processed
    env.process(make_proc(env))
    env.run()
    return Environment.total_events_processed - before


def _no_wait(env):
    return
    yield


def test_yield_of_a_done_event_takes_no_kernel_turn():
    got = []

    def proc(env):
        got.append((yield env.done(7)))
        got.append(env.now)

    # bootstrap and termination only, as for a process that never waits
    assert _events_of(proc) == _events_of(_no_wait) == 2
    assert got == [7, 0.0]


def test_all_of_over_done_events_is_born_processed():
    got = []

    def proc(env):
        joined = all_of(env, [env.done("a"), env.done("b")])
        assert joined.processed
        got.append((yield joined))
        got.append((yield all_of(env, [env.done(1)])))

    assert _events_of(proc) == _events_of(_no_wait)
    assert got == [{0: "a", 1: "b"}, {0: 1}]


def test_all_of_over_a_done_and_a_pending_event_waits():
    got = []

    def proc(env):
        joined = all_of(env, [env.done("a"), env.timeout(2.0, "b")])
        assert not joined.processed
        got.append((yield joined))
        got.append(env.now)

    _events_of(proc)
    assert got == [{0: "a", 1: "b"}, 2.0]


def test_many_processes_scale():
    env = Environment()
    counter = []

    def proc(i):
        yield env.timeout(i % 10)
        counter.append(i)

    for i in range(1000):
        env.process(proc(i))
    env.run()
    assert len(counter) == 1000


# ---------------------------------------------------------------------------
# edge cases: failed condition children, instrumentation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("combinator", [all_of])
def test_condition_with_already_failed_child_raises_in_waiter(combinator):
    env = Environment()
    bad = Event(env)
    bad.fail(RuntimeError("boom"))
    bad.defuse()
    good = env.timeout(1.0)
    outcome = []

    def watcher():
        try:
            yield combinator(env, [bad, good])
            outcome.append("ok")
        except RuntimeError as exc:
            outcome.append(str(exc))

    env.process(watcher())
    env.run()
    assert outcome == ["boom"]


def test_all_of_failed_child_does_not_wait_for_siblings():
    env = Environment()
    bad = Event(env)
    bad.fail(RuntimeError("early"))
    bad.defuse()
    slow = env.timeout(100.0)
    seen = {}

    def watcher():
        try:
            yield all_of(env, [slow, bad])
        except RuntimeError:
            seen["at"] = env.now

    env.process(watcher())
    env.run()
    assert seen["at"] == pytest.approx(0.0)


def test_sim_time_is_added_once_per_run(monkeypatch):
    """A per-event sum of time steps rounds differently from the run's end
    minus its start, so a point's sim_s would depend on its event count."""
    times = (0.00013436424411240124, 0.000763774618976614,
             0.0008474337369372327)
    steps = 0.0
    prev = 0.0
    for t in times:
        steps += t - prev
        prev = t
    assert steps == 0.0008474337369372326
    monkeypatch.setattr(Environment, "total_sim_time", 0.0)
    env = Environment()
    for t in times:
        env.schedule_callback_at(t, lambda: None)
    env.run()
    assert env.now == times[-1]
    assert Environment.total_sim_time == times[-1]
    # A stop time past the last event is a jump, not simulated work.
    env.run(until=1.0)
    assert env.now == 1.0
    assert Environment.total_sim_time == times[-1]


def test_environment_instrumentation_counters_advance():
    events0 = Environment.total_events_processed
    sim0 = Environment.total_sim_time
    env = Environment()

    def proc():
        yield env.timeout(2.5)
        yield env.timeout(1.5)

    env.process(proc())
    env.run()
    assert Environment.total_events_processed - events0 >= 3
    assert Environment.total_sim_time - sim0 == pytest.approx(4.0)
