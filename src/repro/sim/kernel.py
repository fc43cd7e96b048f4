"""The discrete-event kernel: environment, events, processes.

The design follows SimPy's proven model closely enough that anyone familiar
with SimPy can read the rest of the codebase, but it is written from scratch
and trimmed to what the ACCL+ simulation needs:

- an event heap ordered by ``(time, sequence)``;
- :class:`Event` objects with success/failure values and callback lists;
- :class:`Process` coroutines that suspend on yielded events or plain
  float delays;
- the ``all_of`` combinator for barrier-style joins.

Time is a ``float`` in **seconds**; components express their own constants in
ns/us via the helpers in :mod:`repro.units`.

Hot-path design notes
---------------------

The kernel is the simulator's constant factor: large sweeps process millions
of events, so a handful of attribute lookups per event is measurable in wall
time.  Three fast paths keep the per-event cost low without changing any
observable ordering:

- :meth:`Environment.schedule_callback` pushes a bare ``(fn, args)`` tuple on
  the heap instead of constructing a :class:`Timeout` plus closure.  The main
  loop type-checks the popped entry and calls the function directly.  A
  sequence number is still consumed at the same point an event would have
  been scheduled, so same-timestamp ordering is identical to the event path.
- Events allocate no callback list up front: ``callbacks`` holds a shared
  sentinel while empty, the bare callable for the (dominant) single-waiter
  case, and only upgrades to a list for multiple waiters.
- Processes may ``yield`` a plain ``float`` delay instead of a
  :class:`Timeout`.  The kernel schedules the wakeup as a callback tuple —
  zero event allocations for a plain sleep, which dominates protocol pacing
  loops.  The wakeup resumes the process directly: nothing can cancel a
  sleep, so it needs no staleness check.
- Zero-delay scheduling (event triggers, process terminations, ``yield
  0.0``, immediate callbacks) bypasses the heap entirely: entries land in a
  FIFO *now-bucket* drained before time advances.  Same-timestamp runs —
  the dominant traffic of tightly chained protocol events — cost a deque
  append/popleft instead of two O(log n) heap operations.  Bucket and heap
  entries share one sequence counter and the dispatch loop merges them by
  sequence at equal timestamps, so observable ordering is identical.

``Environment.run`` inlines the event dispatch loop and flushes the
process-wide counters once on exit; the counters are exact at every point
``run`` returns or raises.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(Exception):
    """Raised for kernel misuse (double-trigger, running a finished sim...)."""


PENDING = object()  # sentinel: event value not yet decided

#: shared sentinel meaning "no callbacks registered yet" — distinct from
#: ``None``, which means "already processed".  Using one shared object lets
#: ``Event.__init__`` skip allocating a list that most events never need.
_NO_CALLBACKS = object()

#: arguments of ``Process._advance`` that resume a process with no value
#: (bootstrap and plain-delay wakeups)
_RESUME = (True, None)


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through at most one transition: *pending* -> *triggered*
    (either succeeded with a value, or failed with an exception).  Once
    triggered it is scheduled on the environment's heap and its callbacks run
    when the heap pops it.

    ``callbacks`` is polymorphic to keep the common cases allocation-free:
    the :data:`_NO_CALLBACKS` sentinel while empty, a bare callable for one
    waiter, a list for several, and ``None`` once processed.  All access goes
    through :meth:`add_callback` / :attr:`processed`, so the representation
    is private to the kernel.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Any = _NO_CALLBACKS
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired callbacks yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (``callbacks`` is discarded then)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; callbacks run at the current time."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        if not self._scheduled:
            self._scheduled = True
            env = self.env
            env._seq += 1
            env._bucket.append((env._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will see it raised."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        if not self._scheduled:
            self._scheduled = True
            env = self.env
            env._seq += 1
            env._bucket.append((env._seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel does not crash on it."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event is processed."""
        cbs = self.callbacks
        if cbs is _NO_CALLBACKS:
            self.callbacks = fn
        elif cbs is None:
            raise SimulationError(f"{self!r} has already been processed")
        elif type(cbs) is list:
            cbs.append(fn)
        else:
            self.callbacks = [cbs, fn]

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Inlined Event.__init__ + scheduling: timeouts are the most
        # frequently constructed event type, so the super() call and the
        # separate _schedule call are worth folding away.  A negative or
        # NaN delay fails both comparisons and raises before anything is
        # scheduled.
        if delay == 0.0:
            env._seq += 1
            env._bucket.append((env._seq, self))
        elif delay > 0.0:
            env._seq += 1
            heappush(env._heap, (env._now + delay, env._seq, self))
        else:
            raise ValueError(f"invalid timeout delay: {delay!r}")
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self.delay = delay


class Process(Event):
    """A running generator coroutine.  As an :class:`Event` it triggers when
    the generator returns (value = ``StopIteration`` value) or raises.

    Besides events, the generator may yield a plain ``float``: the kernel
    treats it as a delay in seconds and resumes the process after that long,
    without constructing a :class:`Timeout`.  ``yield 0.0`` is a legal
    reschedule-at-now.  Ints are *not* accepted (they stay a loud error, as
    does any other non-event).
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current time.  A callback tuple takes
        # the sequence slot the old init-Event used, so start order at equal
        # timestamps is unchanged.
        env._seq += 1
        env._bucket.append((env._seq, (self._advance, _RESUME)))

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._advance(True, event._value)
        else:
            event._defused = True
            self._advance(False, event._value)

    def _advance(self, ok: bool, value: Any) -> None:
        env = self.env
        send = self._generator.send
        throw = self._generator.throw
        while True:
            try:
                if ok:
                    next_event = send(value)
                else:
                    next_event = throw(value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._schedule(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._schedule(self)
                return

            if next_event.__class__ is float:
                # Plain-delay sleep: schedule the wakeup as a callback tuple.
                # Only exact floats take this path: ints stay rejected below
                # so an accidental `yield n` does not silently become a
                # year-long sleep.  A negative or NaN delay fails both
                # comparisons and raises before anything is scheduled.
                if next_event > 0.0:
                    env._seq += 1
                    heappush(env._heap, (env._now + next_event, env._seq,
                                         (self._advance, _RESUME)))
                    return
                if next_event == 0.0:
                    env._seq += 1
                    env._bucket.append((env._seq, (self._advance, _RESUME)))
                    return
                raise SimulationError(
                    f"process {self.name!r} yielded an invalid delay: "
                    f"{next_event!r}"
                )
            if not isinstance(next_event, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
            cbs = next_event.callbacks
            if cbs is None:
                # Already processed: resume immediately with its value.
                if next_event._ok:
                    ok, value = True, next_event._value
                else:
                    next_event._defused = True
                    ok, value = False, next_event._value
                continue
            if cbs is _NO_CALLBACKS:
                next_event.callbacks = self._resume
            elif type(cbs) is list:
                cbs.append(self._resume)
            else:
                next_event.callbacks = [cbs, self._resume]
            return

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class AllOf(Event):
    """Succeeds once every child event has succeeded; fails with the first
    child failure.  Over children that have all succeeded already it is
    born processed, as :meth:`Environment.done` is: no kernel turn."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for ev in self._events:
            if ev.callbacks is not None:
                ev.add_callback(self._check)
            elif ev._ok:
                self._count += 1
            else:
                self._check(ev)
        if self._count == len(self._events):
            self.callbacks, self._ok, self._scheduled = None, True, True
            self._value = {i: ev._value for i, ev in enumerate(self._events)}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed({i: ev._value for i, ev in enumerate(self._events)})


def all_of(env: "Environment", events: Iterable[Event]) -> Event:
    """Event that succeeds once every event in *events* has succeeded."""
    return AllOf(env, events)


class Environment:
    """Holds simulation time and the event heap, and runs the main loop."""

    #: process-wide instrumentation, accumulated across every Environment
    #: instance; the benchmark sweep runner reads deltas around each point
    #: to report per-point event counts and simulated time.  Heap entries of
    #: both kinds (events and callback tuples) count as one processed event
    #: each, so the metric is comparable across kernel versions.  Each
    #: ``run`` adds the time it advanced once, on exit: a per-event sum
    #: would round differently whenever the event count changed.
    total_events_processed: int = 0
    total_sim_time: float = 0.0
    #: events packet mode dispatches that the flow-level fidelity mode
    #: modeled analytically: a burst's segment deliveries after its first
    #: at each hop, the sender's pacing sleeps between them, and one event
    #: per hop for each segment's flow-control return.  The perf reports
    #: keep it beside, never added to, ``total_events_processed``: it
    #: counts work the host did not do.
    total_events_fast_forwarded: int = 0

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # (time, seq, item) entries.  ``Link._pump`` (repro.network.link)
        # writes this format and the bucket's too: change them together.
        self._heap: List[tuple] = []
        # FIFO of (seq, item) entries scheduled at the *current* time; always
        # drained before the clock advances.  Items are the same polymorphic
        # (fn, args) tuples / Event objects the heap holds.
        self._bucket: deque = deque()
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def _schedule(self, event: Event) -> None:
        """Queue *event*'s callbacks to run at the current time."""
        if event._scheduled:
            return
        event._scheduled = True
        self._seq += 1
        self._bucket.append((self._seq, event))

    def schedule_callback(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* (for non-process components).

        This is the cheapest way to get control at a future time: no
        :class:`Event` is constructed, only a tuple on the heap (or, for a
        zero delay, in the now-bucket).  The callback cannot be waited on;
        components that need a waitable handle should use :meth:`timeout`.
        A negative or NaN *delay* raises :class:`SimulationError`: the clock
        never moves backwards.
        """
        if delay == 0.0:
            self._seq += 1
            self._bucket.append((self._seq, (fn, args)))
        elif delay > 0.0:
            self._seq += 1
            heappush(self._heap, (self._now + delay, self._seq, (fn, args)))
        else:
            raise SimulationError(
                f"cannot schedule a callback after delay {delay!r}")

    def schedule_callback_at(self, time: float, fn: Callable,
                             *args: Any) -> None:
        """Like :meth:`schedule_callback` but at an *absolute* time.

        Components that pre-compute a future timestamp (e.g. a link's
        delivery pump) use this to fire at exactly that float, avoiding the
        re-rounding a relative ``now + (time - now)`` round trip would add.
        A *time* before now, or NaN, raises :class:`SimulationError`.
        """
        if time > self._now:
            self._seq += 1
            heappush(self._heap, (time, self._seq, (fn, args)))
        elif time == self._now:
            self._seq += 1
            self._bucket.append((self._seq, (fn, args)))
        else:
            raise SimulationError(
                f"cannot schedule at {time!r}: current time is {self._now}"
            )

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds after *delay* seconds."""
        return Timeout(self, delay, value)

    def timeout_at(self, time: float, value: Any = None) -> Event:
        """Create an event that succeeds at the *absolute* time *time*.

        One heap entry (the now-bucket when *time* is now) fires at exactly
        that float, so a process can wait for a completion time computed
        earlier without the re-rounding of ``now + (time - now)``.  A
        *time* before now, or NaN, raises :class:`SimulationError` before
        anything is scheduled.
        """
        now = self._now
        if not time >= now:  # before now, or NaN
            raise SimulationError(
                f"cannot time out at {time!r}: current time is {now}")
        event = Event(self)
        event._ok = True
        event._value = value
        event._scheduled = True
        self._seq += 1
        if time > now:
            heappush(self._heap, (time, self._seq, event))
        else:
            self._bucket.append((self._seq, event))
        return event

    def done(self, value: Any = None) -> Event:
        """An event that has already happened with *value*: a process that
        yields it resumes at once and no kernel turn is taken, for a wait
        whose answer is known when it is asked."""
        event = Event(self)
        event.callbacks, event._ok, event._value = None, True, value
        event._scheduled = True
        return event

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process running *generator*."""
        return Process(self, generator, name=name)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none is pending."""
        if self._bucket:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        - ``until=None``: run until the heap drains.
        - ``until`` is an :class:`Event`: run until it triggers, return its value.
        - ``until`` is a number: run until that simulation time.  A stop time
          equal to the current time returns immediately (no events are
          processed); a stop time in the past raises :class:`SimulationError`.
        """
        stop_time = None
        stop_event = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})"
                )
            if stop_time == self._now:
                return None

        # Inlined dispatch loop; counters are accumulated locally and
        # flushed once, including on exceptions.
        # Simulated time is flushed as one difference before any
        # ``until=<time>`` jump, which is not simulated work.
        # The now-bucket is merged with the heap by sequence number: bucket
        # entries always live at the current timestamp, so they run before
        # any strictly-later heap entry and interleave with same-time heap
        # entries in scheduling order.
        heap = self._heap
        bucket = self._bucket
        pop = heapq.heappop
        popleft = bucket.popleft
        no_cb = _NO_CALLBACKS
        events_n = 0
        start = self._now
        try:
            while heap or bucket:
                if stop_event is not None:
                    if stop_event.callbacks is None:
                        break
                elif (stop_time is not None and not bucket
                        and heap[0][0] > stop_time):
                    break
                prev = self._now
                if bucket and (not heap or heap[0][0] > prev
                               or heap[0][1] > bucket[0][0]):
                    _seq, item = popleft()
                    when = prev
                else:
                    when, _seq, item = pop(heap)
                events_n += 1
                self._now = when
                if item.__class__ is tuple:
                    item[0](*item[1])
                    continue
                callbacks = item.callbacks
                item.callbacks = None
                if callbacks is not no_cb:
                    if callbacks.__class__ is list:
                        for fn in callbacks:
                            fn(item)
                    else:
                        callbacks(item)
                if item._ok is False and not item._defused:
                    raise item._value
        finally:
            Environment.total_events_processed += events_n
            Environment.total_sim_time += self._now - start

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ended before the awaited event triggered "
                    "(deadlock or missing stimulus)"
                )
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if stop_time is not None:
            self._now = stop_time
        return None
