"""Shared-resource models: counted resources and serializing byte-pipes.

:class:`BandwidthResource` is the workhorse of the timing model.  Links,
memory ports and PCIe lanes are all byte-pipes: a transfer of *n* bytes
occupies the pipe for ``n / rate`` seconds, transfers are serialized FIFO,
and an optional per-transfer overhead models fixed command/packet costs.
Occupancy is tracked analytically (a "free-at" watermark) so that a transfer
costs O(1) events regardless of its size.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Optional

from repro.sim.kernel import Environment, Event

#: end of the open busy interval before a pipe's first transfer; every
#: record starts at or after time 0, so the first one always opens anew
_NO_BUSY = float("-inf")


class Resource:
    """A counted resource with FIFO queueing (e.g. DMA engines, QP slots)."""

    __slots__ = ("env", "capacity", "name", "_in_use", "_waiters")

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def try_acquire(self) -> Optional[Event]:
        """Take a free slot at once and return ``None`` (no event is
        scheduled); when none is free, queue and return the event that
        succeeds once a slot is handed over.  Pair with release()."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return None
        ev = Event(self.env)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use is unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1

    def __repr__(self) -> str:
        return f"<Resource {self.name!r} {self._in_use}/{self.capacity}>"


class BandwidthResource:
    """A FIFO byte-pipe with fixed rate and optional per-transfer overhead.

    ``reserve(nbytes)`` occupies the pipe and returns the time at which the
    last byte leaves it; no event is scheduled.  Back-to-back transfers
    queue behind each other, so sustained throughput can never exceed
    ``rate`` and small transfers pay ``per_transfer_overhead`` each —
    exactly the behaviour that produces the classic throughput-vs-message-
    size ramp of Figure 7.
    """

    __slots__ = ("env", "rate", "overhead", "name", "_free_at", "_busy_time",
                 "_bytes_moved", "_busy_start", "_busy_end", "_busy_history")

    def __init__(
        self,
        env: Environment,
        rate_bytes_per_s: float,
        per_transfer_overhead_s: float = 0.0,
        name: str = "pipe",
    ):
        if rate_bytes_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_s}")
        if per_transfer_overhead_s < 0:
            raise ValueError("overhead must be non-negative")
        self.env = env
        self.rate = float(rate_bytes_per_s)
        self.overhead = float(per_transfer_overhead_s)
        self.name = name
        self._free_at = 0.0
        self._busy_time = 0.0
        self._bytes_moved = 0
        # Busy time in timestamped form: merged, non-overlapping occupancy
        # intervals, sorted by start.  Back-to-back transfers extend the
        # open interval [_busy_start, _busy_end]; an idle gap closes it
        # onto _busy_history as two doubles, so the history costs 16 B
        # per gap and holds no Python object the cyclic GC would walk.
        # The array is created on the first gap, so building a cluster
        # allocates none.
        self._busy_start = _NO_BUSY
        self._busy_end = _NO_BUSY
        self._busy_history: Optional[array] = None

    @property
    def bytes_moved(self) -> int:
        return self._bytes_moved

    def _record_busy(self, start: float, finish: float) -> None:
        """Add occupancy ``[start, finish]`` to the busy history.

        A record that starts inside the open interval only extends its
        end; any other closes the open interval and opens a new one.
        """
        end = self._busy_end
        if start <= end:
            if finish > end:
                self._busy_end = finish
            return
        if end != _NO_BUSY:
            history = self._busy_history
            if history is None:
                history = self._busy_history = array("d")
            history.append(self._busy_start)
            history.append(end)
        self._busy_start = start
        self._busy_end = finish

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of wall time the pipe was busy in ``[since, now]``.

        Occupancy scheduled beyond *now* (a transfer still in flight) is
        clipped to the window, so the result is exact for any ``since``.
        """
        now = self.env.now
        elapsed = now - since
        if elapsed <= 0:
            return 0.0
        busy = 0.0
        end = self._busy_end
        if end > since:
            busy += max(0.0, min(end, now) - max(self._busy_start, since))
            history = self._busy_history
            if history is not None:
                for i in range(len(history) - 2, -1, -2):
                    end = history[i + 1]
                    if end <= since:
                        break
                    busy += max(0.0, min(end, now) - max(history[i], since))
        return min(1.0, busy / elapsed)

    def busy_until(self) -> float:
        """Simulation time at which the pipe becomes idle."""
        return max(self._free_at, self.env.now)

    def reserve(self, nbytes: int) -> float:
        """Occupy the pipe for *nbytes*; returns the completion *time*.

        This is the hottest non-kernel function in a sweep (every segment on
        every link lands here), so the busy-interval merge is inlined; only
        an idle gap calls :meth:`_record_busy`.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        now = self.env._now
        free_at = self._free_at
        start = free_at if free_at > now else now
        duration = self.overhead + nbytes / self.rate
        finish = start + duration
        self._free_at = finish
        self._busy_time += duration
        self._bytes_moved += nbytes
        end = self._busy_end
        if start <= end:
            if finish > end:
                self._busy_end = finish
        else:
            self._record_busy(start, finish)
        return finish

    def register_metrics(self, registry, name: Optional[str] = None,
                         **labels) -> None:
        """Expose pipe throughput and utilization as callback gauges.

        Reading a gauge samples the live pipe; :meth:`reserve` — the
        hottest function in a sweep — is not touched.
        """
        base = name or self.name
        registry.gauge(f"{base}_bytes_moved",
                       fn=lambda: float(self._bytes_moved), **labels)
        registry.gauge(f"{base}_utilization",
                       fn=lambda: self.utilization(), **labels)

    def __repr__(self) -> str:
        gbps = self.rate * 8 / 1e9
        return f"<BandwidthResource {self.name!r} {gbps:.1f} Gb/s>"


class TokenBucket:
    """Credit-based flow control (RDMA-style tokens).

    The paper notes RDMA's token-based flow control makes it well-suited to
    the sophisticated rendezvous algorithms; TCP's window plays a similar
    role.  This primitive backs both.
    """

    __slots__ = ("env", "capacity", "name", "_available", "_waiters")

    def __init__(self, env: Environment, tokens: int, name: str = "tokens",
                 initial: Optional[int] = None):
        if tokens < 1:
            raise ValueError("token count must be >= 1")
        self.env = env
        self.capacity = tokens
        self.name = name
        self._available = tokens if initial is None else initial
        self._waiters: Deque[tuple] = deque()  # (event, amount)

    @property
    def available(self) -> int:
        return self._available

    def try_take(self, amount: int = 1) -> Optional[Event]:
        """Take *amount* tokens at once and return ``None`` (no event is
        scheduled) when they are available and nobody queues ahead; else
        queue behind the waiters and return the event that succeeds once
        the tokens are granted."""
        if amount > self.capacity:
            raise ValueError(
                f"requested {amount} tokens, bucket holds only {self.capacity}"
            )
        if self._available >= amount and not self._waiters:
            self._available -= amount
            return None
        ev = Event(self.env)
        self._waiters.append((ev, amount))
        return ev

    def take(self, amount: int = 1) -> Event:
        """Event that succeeds once *amount* tokens are granted."""
        ev = self.try_take(amount)
        if ev is None:
            ev = Event(self.env)
            ev.succeed(amount)
        return ev

    def give(self, amount: int = 1) -> None:
        self._available = min(self.capacity, self._available + amount)
        while self._waiters and self._waiters[0][1] <= self._available:
            ev, amt = self._waiters.popleft()
            self._available -= amt
            ev.succeed(amt)

    def register_metrics(self, registry, name: Optional[str] = None,
                         **labels) -> None:
        """Expose credit occupancy as callback gauges."""
        base = name or self.name
        registry.gauge(f"{base}_available",
                       fn=lambda: float(self._available), **labels)
        registry.gauge(f"{base}_waiters",
                       fn=lambda: float(len(self._waiters)), **labels)
