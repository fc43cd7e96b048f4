"""Shared-resource models: counted resources and serializing byte-pipes.

:class:`BandwidthResource` is the workhorse of the timing model.  Links,
memory ports and PCIe lanes are all byte-pipes: a transfer of *n* bytes
occupies the pipe for ``n / rate`` seconds and transfers are serialized FIFO.
Occupancy is tracked analytically (a "free-at" watermark) so that a transfer
costs O(1) events regardless of its size.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.kernel import Environment, Event

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
    """A FIFO byte-pipe with a fixed rate.

    ``reserve(nbytes)`` occupies the pipe and returns the time at which the
    last byte leaves it; no event is scheduled.  Back-to-back transfers
    queue behind each other, so sustained throughput can never exceed
    ``rate``.

    A pipe keeps three numbers whatever its traffic: the free-at
    watermark, the total busy time and the bytes moved.
    """

    __slots__ = ("env", "rate", "name", "_free_at", "_busy_time",
                 "_bytes_moved")

    def __init__(
        self,
        env: Environment,
        rate_bytes_per_s: float,
        name: str = "pipe",
    ):
        if rate_bytes_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_s}")
        self.env = env
        self.rate = float(rate_bytes_per_s)
        self.name = name
        self._free_at = 0.0
        self._busy_time = 0.0
        self._bytes_moved = 0

    @property
    def bytes_moved(self) -> int:
        return self._bytes_moved

    def utilization(self) -> float:
        """Fraction of ``[0, now]`` the pipe was busy.

        Time reserved past *now* is taken as one busy stretch ending at the
        free-at watermark and left out, which is exact for a FIFO pipe: its
        transfers start at ``max(now, free_at)``, so no idle time sits
        inside what is reserved.  A flow-mode train queued behind an idle
        gap under-reports until it starts.
        """
        now = self.env.now
        if now <= 0.0:
            return 0.0
        busy = self._busy_time
        if self._free_at > now:
            # now less the idle time, which is exactly zero for a stretch
            # that has been busy since time 0
            busy = now - (self._free_at - busy)
        return min(1.0, max(0.0, busy) / now)

    def busy_until(self) -> float:
        """Simulation time at which the pipe becomes idle."""
        return max(self._free_at, self.env.now)

    def reserve(self, nbytes: int) -> float:
        """Occupy the pipe for *nbytes*; returns the completion *time*.

        This is the hottest non-kernel function in a sweep: every segment
        on every link lands here.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        now = self.env._now
        free_at = self._free_at
        start = free_at if free_at > now else now
        duration = nbytes / self.rate
        finish = start + duration
        self._free_at = finish
        self._busy_time += duration
        self._bytes_moved += nbytes
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

    def has(self, amount: int) -> bool:
        """True when :meth:`try_take` of *amount* would be granted at once."""
        return self._available >= amount and not self._waiters

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
        return self.env.done(amount) if ev is None else ev

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
