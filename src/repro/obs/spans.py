"""Structured span tracing: the simulator's one trace surface.

A *span* is a named interval on one component's timeline: it has an id, an
optional parent span, an optional per-collective ``op_id``, and a *phase*
label (``"collective"``, ``"uc"``, ``"dmp"``, ``"poe"``, ``"wire"``, …)
that the breakdown report attributes time by.

:class:`SpanTracer` keeps completed :class:`Span` records in one bounded
ring buffer: at capacity the *oldest* span is evicted and
``spans_dropped`` counts the evictions, so the tail of a long run — the
part debugging needs — is always retained and a truncated trace is never
mistaken for a complete one.

``op_id`` is the propagation key: the driver (or the uC, for engine-direct
calls) allocates one id per collective command via :meth:`next_op_id`, it
rides in :class:`~repro.cclo.microcontroller.CollectiveArgs`,
:class:`~repro.cclo.dmp.Microcode` and the wire
:class:`~repro.cclo.messages.Signature`, and every downstream span carries
it — including wire spans recorded on *other* nodes, which is what lets
``attribute_op`` account a collective's remote message deliveries.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One completed (or still-open) interval on a component timeline."""

    sid: int
    component: str          # "cclo0.uc" — node-qualified component
    name: str               # "instr", "collective:allreduce", ...
    phase: str              # attribution bucket for attribute_op
    t0: float
    t1: float = math.nan    # NaN while open
    op_id: int = -1
    parent: int = -1
    detail: tuple = field(default=())

    @property
    def closed(self) -> bool:
        return not math.isnan(self.t1)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def node(self) -> str:
        """Node prefix of the component ("cclo0.uc" -> "cclo0")."""
        head, _, _ = self.component.partition(".")
        return head

    def __str__(self) -> str:
        dur = f"{self.duration * 1e6:.3f}us" if self.closed else "open"
        return (f"<Span #{self.sid} {self.component}/{self.name} "
                f"phase={self.phase} op={self.op_id} {dur}>")


class SpanTracer:
    """Span recorder with explicit begin/end, ids, parents and op ids.

    Completed spans are kept in a ring buffer of *capacity* spans (oldest
    evicted first, ``spans_dropped`` counts evictions).  One SpanTracer is
    shared by every engine of a cluster so span ids and op ids are unique
    cluster-wide.
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._open: Dict[int, Span] = {}
        self._completed: Deque[Span] = deque(maxlen=capacity)
        self._roots: Dict[int, int] = {}  # op_id -> root span id
        self.spans_dropped = 0

    # -- op ids ------------------------------------------------------------

    def next_op_id(self) -> int:
        """Allocate a collective operation id (unique per tracer)."""
        return next(self._op_ids)

    # -- span lifecycle ----------------------------------------------------

    def span_begin(self, time: float, component: str, name: str,
                   phase: str = "other", op_id: int = -1, parent: int = -1,
                   **detail: Any) -> int:
        """Open a span; returns its id for the matching :meth:`span_end`.

        A span with an ``op_id`` but no explicit parent is parented to the
        operation's root span (the ``phase="collective"`` span), giving the
        exported trace its nesting without any extra plumbing.
        """
        sid = next(self._span_ids)
        if parent < 0 and op_id >= 0:
            parent = self._roots.get(op_id, -1)
            if parent == sid:
                parent = -1
        span = Span(sid=sid, component=component, name=name, phase=phase,
                    t0=time, op_id=op_id, parent=parent,
                    detail=tuple(sorted(detail.items())))
        self._open[sid] = span
        if phase == "collective" and op_id >= 0:
            self._roots.setdefault(op_id, sid)
        return sid

    def span_end(self, time: float, sid: int, **detail: Any) -> None:
        """Close the span *sid*; unknown ids are ignored (idempotent)."""
        span = self._open.pop(sid, None)
        if span is None:
            return
        span.t1 = time
        if detail:
            span.detail = span.detail + tuple(sorted(detail.items()))
        self._store(span)

    def span_complete(self, component: str, name: str, t0: float, t1: float,
                      phase: str = "other", op_id: int = -1,
                      parent: int = -1, **detail: Any) -> int:
        """Record an already-finished span in one call (analytic timings:
        a component that computed its start/finish without living through
        them, e.g. wire delivery or a reserved pipe interval)."""
        sid = next(self._span_ids)
        if parent < 0 and op_id >= 0:
            parent = self._roots.get(op_id, -1)
        span = Span(sid=sid, component=component, name=name, phase=phase,
                    t0=t0, t1=t1, op_id=op_id, parent=parent,
                    detail=tuple(sorted(detail.items())))
        self._store(span)
        return sid

    def _store(self, span: Span) -> None:
        if len(self._completed) == self._completed.maxlen:
            self.spans_dropped += 1
        self._completed.append(span)

    # -- queries -----------------------------------------------------------

    @property
    def completed_spans(self) -> List[Span]:
        return list(self._completed)

    def iter_spans(self) -> Iterator[Span]:
        return iter(self._completed)

    @property
    def unclosed_count(self) -> int:
        """Spans begun but never ended — nonzero means a truncated trace
        (or an operation still in flight when the simulation stopped)."""
        return len(self._open)

    @property
    def open_spans(self) -> List[Span]:
        return list(self._open.values())

    def spans_for(self, op_id: int) -> List[Span]:
        """Completed spans belonging to one collective operation."""
        return [s for s in self._completed if s.op_id == op_id]

    def root_span(self, op_id: int) -> Optional[Span]:
        """The ``phase="collective"`` root span of *op_id*, if closed."""
        sid = self._roots.get(op_id)
        if sid is None:
            return None
        for span in self._completed:
            if span.sid == sid:
                return span
        return self._open.get(sid)

    def op_ids(self) -> List[int]:
        """Operation ids with a recorded root span, in allocation order."""
        return sorted(self._roots)
