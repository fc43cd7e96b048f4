"""Discrete-event simulation kernel.

A compact, dependency-free engine in the style of SimPy.  Processes are
generator coroutines that yield *events*; the :class:`~repro.sim.kernel.Environment`
advances virtual time along an event heap.

Public surface:

- :class:`Environment`, :class:`Event`, :class:`Timeout`, :class:`Process`
  -- the kernel (:mod:`repro.sim.kernel`).
- :func:`all_of` -- event combinator.
- :class:`Channel` -- latency-insensitive FIFO stream (AXI-Stream analogue).
- :class:`BandwidthResource` -- serializing byte-pipe (link/memory-port model).
- :class:`Resource` -- counted resource with FIFO queueing.
"""

from repro.sim.kernel import (
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
    all_of,
)
from repro.sim.channel import Channel, ChannelClosed
from repro.sim.resources import BandwidthResource, Resource

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "all_of",
    "Channel",
    "ChannelClosed",
    "BandwidthResource",
    "Resource",
]
