"""Keyed rendezvous between producers and consumers of notifications.

Both sides of the matching problem appear throughout the CCLO: the RBM holds
arrived-message metadata for the DMP to claim; the Rx system queues
RNDZ_INIT/RNDZ_DONE notifications for the uC.  :class:`MatchTable` is the
shared primitive: ``post(key, value)`` meets ``wait(key)`` in FIFO order,
whichever side arrives first.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Deque, Dict, Hashable

from repro.sim import Environment, Event


class MatchTable:
    """FIFO match of posted values and waiting events per key."""

    def __init__(self, env: Environment, name: str = "match"):
        self.env = env
        self.name = name
        self._values: Dict[Hashable, Deque[Any]] = defaultdict(deque)
        self._waiters: Dict[Hashable, Deque[Event]] = defaultdict(deque)

    def post(self, key: Hashable, value: Any) -> None:
        """Make *value* available under *key*; wakes the oldest waiter."""
        waiters = self._waiters.get(key)
        if waiters:
            waiters.popleft().succeed(value)
            if not waiters:
                del self._waiters[key]
        else:
            self._values[key].append(value)

    def wait(self, key: Hashable) -> Event:
        """Event that succeeds with the next value posted under *key*."""
        values = self._values.get(key)
        if values:
            value = values.popleft()
            if not values:
                del self._values[key]
            return self.env.done(value)
        ev = Event(self.env)
        self._waiters[key].append(ev)
        return ev

    def pending(self, key: Hashable) -> int:
        """Number of un-consumed values under *key*."""
        return len(self._values.get(key, ()))

    def waiting(self, key: Hashable) -> int:
        """Number of waiters blocked on *key*."""
        return len(self._waiters.get(key, ()))

    def __repr__(self) -> str:
        return (
            f"<MatchTable {self.name!r} values={sum(map(len, self._values.values()))} "
            f"waiters={sum(map(len, self._waiters.values()))}>"
        )
