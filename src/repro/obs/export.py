"""Exporters and reports over :class:`~repro.obs.spans.SpanTracer` data.

- :func:`to_chrome_trace` — Chrome trace-event JSON.  Load the file at
  https://ui.perfetto.dev (or ``chrome://tracing``) to see one process
  track per node and one thread track per component, with collective root
  spans nesting their uC / DMP / POE / wire phases.
- :func:`metrics_to_csv` — flat CSV dump of a metrics registry.
- :func:`attribute_op` — the one per-op report: exclusive per-phase and
  critical-path time attribution for one collective operation; each set
  of buckets sums to the collective's wall sim-time by construction.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.spans import Span, SpanTracer

#: When several phases overlap at an instant, the most specific wins.
#: Wire occupancy beats POE processing beats DMP execution beats uC
#: sequencing; time under the root span covered by none of them is
#: attributed to "other" (queueing, driver staging, sync waits).
PHASE_PRIORITY = ("wire", "poe", "dmp", "uc")

#: Phase label of wait spans recorded at blocking sites.  Wait spans carry
#: a ``cause`` detail entry (see :data:`WAIT_PRIORITY`) and never influence
#: :func:`attribute_op`'s productive ``phases`` — they only explain the
#: time those buckets call "other".
WAIT_PHASE = "wait"

#: Wait causes in attribution order (when two stall reasons overlap, the
#: more specific/upstream one wins).  Unknown causes sort after these.
WAIT_PRIORITY = (
    "rendezvous",         # uC blocked on RNDZ_INIT / RNDZ_DONE / WRITE landing
    "rx_match",           # DMP operand gate: eager message not yet arrived
    "retx_backpressure",  # TCP window closed (retransmission-buffer pressure)
    "credit_stall",       # RDMA QP out of credits
    "rx_pool",            # RBM out of Rx buffers / bytes (eager backpressure)
    "dmp_slot",           # all DMP parallel slots busy
    "uc_dispatch",        # uC command queue / sequential-core serialization
    "link_busy",          # link egress busy with other traffic
    "pcie",               # host<->device DMA, staging, MMIO invocation
)


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------

def to_chrome_trace(tracer: SpanTracer,
                    spans: Optional[Sequence[Span]] = None) -> Dict[str, Any]:
    """Build a Chrome trace-event object from completed spans.

    Spans become "X" (complete) events with microsecond timestamps.  The
    node part of each component ("cclo0.uc" -> "cclo0") maps to a pid and
    the component part to a tid, labeled through "M" metadata events, so
    Perfetto renders one track per node×component.

    Spans still open at export (a partial or crashed run) get a synthetic
    end at the final recorded sim time, flagged ``"truncated": true`` in
    their args, so the trace stays loadable; ``otherData.unclosed`` still
    reports them for CI gating.
    """
    open_spans: List[Span] = []
    if spans is None:
        spans = tracer.completed_spans
        open_spans = tracer.open_spans
    final_t = 0.0
    if open_spans:
        final_t = max(
            max((s.t1 for s in spans if s.closed), default=0.0),
            max(s.t0 for s in open_spans),
        )
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    events: List[Dict[str, Any]] = []

    for span, truncated in ([(s, False) for s in spans]
                            + [(s, True) for s in open_spans]):
        if not truncated and not span.closed:
            continue
        node, _, comp = span.component.partition(".")
        if not comp:
            node, comp = "sim", node
        pid = pids.setdefault(node, len(pids) + 1)
        tkey = (node, comp)
        if tkey not in tids:
            tids[tkey] = len(tids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tids[tkey], "args": {"name": comp},
            })
        args: Dict[str, Any] = {"span": span.sid}
        if span.op_id >= 0:
            args["op"] = span.op_id
        if span.parent >= 0:
            args["parent"] = span.parent
        args.update(dict(span.detail))
        if truncated:
            args["truncated"] = True
            dur = max((final_t - span.t0) * 1e6, 0.001)
        else:
            dur = max(span.duration * 1e6, 0.001)
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.phase,
            "ts": span.t0 * 1e6,
            "dur": dur,
            "pid": pid,
            "tid": tids[tkey],
            "args": args,
        })

    meta = [
        {"ph": "M", "name": "process_name", "pid": pid,
         "args": {"name": node}}
        for node, pid in pids.items()
    ]
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ns",
        "otherData": {
            "spans": sum(1 for s in spans if s.closed),
            "truncated_spans": len(open_spans),
            "unclosed": tracer.unclosed_count,
            "spans_dropped": tracer.spans_dropped,
        },
    }


def write_chrome_trace(tracer: SpanTracer, path: str) -> int:
    """Write :func:`to_chrome_trace` output to *path*; returns span count."""
    doc = to_chrome_trace(tracer)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc["otherData"]["spans"]


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Schema check for Perfetto-loadability; returns a list of problems
    (empty means valid).

    Checks the envelope, then per event: required keys by phase type
    ("X" needs ph/ts/dur/pid/tid/name, "M" needs ph/name/pid/args),
    numeric timestamps and non-negative durations.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event[{i}]: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            required = ("ph", "name", "pid", "args")
        elif ph == "X":
            required = ("ph", "ts", "dur", "pid", "tid", "name")
        else:
            problems.append(f"event[{i}]: unsupported ph={ph!r}")
            continue
        missing = [k for k in required if k not in ev]
        if missing:
            problems.append(f"event[{i}] ({ph}): missing keys {missing}")
            continue
        if ph == "X":
            if not isinstance(ev["ts"], (int, float)):
                problems.append(f"event[{i}]: ts not numeric")
            if not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
                problems.append(f"event[{i}]: dur not a non-negative number")
    return problems


# ---------------------------------------------------------------------------
# Metrics CSV
# ---------------------------------------------------------------------------

def metrics_to_csv(registry, path: str) -> int:
    """Dump a registry's gauges to CSV; returns rows written."""
    rows = registry.rows()
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["metric", "kind", "value"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)


# ---------------------------------------------------------------------------
# Phase attribution
# ---------------------------------------------------------------------------

def _clip(span: Span, t0: float, t1: float):
    """Clip a span to the op window; None when it falls entirely outside."""
    lo, hi = max(span.t0, t0), min(span.t1, t1)
    if hi > lo or (span.t0 >= t0 and span.t1 <= t1):
        return lo, hi
    return None


def attribute_op(tracer: SpanTracer, op_id: int) -> Dict[str, Any]:
    """Single interval-sweep attribution for collective *op_id*, computing
    the productive phase buckets AND the critical-path view together.

    Both attributions walk the *same* elementary intervals (one boundary
    set over every productive and wait span), so their totals reconcile
    exactly: ``phases`` gives every instant to the highest-priority
    productive phase active then (:data:`PHASE_PRIORITY`, else "other"),
    while ``totals``/``segments`` re-attribute the identical intervals with
    wait causes ranked between the productive phases —

        wire > poe > wait:<cause> (:data:`WAIT_PRIORITY`) > dmp > uc > other

    Bytes on the wire or in the POE pipeline are real progress and always
    win; an instant with no bytes moving but a recorded stall is *explained*
    by its wait cause; dmp/uc rank below waits because their coarse spans
    enclose their own internal stalls (a DMP instr span covers its operand
    gate).  ``wait_observed`` additionally reports the raw per-cause union
    (may overlap productive time — it answers "how long was anything stalled
    on X", not "what was the op blocked on").

    When the tracer's span ring buffer overflowed (``spans_dropped > 0``),
    evicted spans have silently vanished from every bucket; the report
    carries ``"incomplete": True`` so consumers (``bench trace`` /
    ``bench critpath``, ``bench diff``) can surface the skew
    instead of presenting partial totals as exact.
    """
    root = tracer.root_span(op_id)
    if root is None:
        raise KeyError(f"op {op_id}: no root collective span recorded")
    if not root.closed:
        raise ValueError(f"op {op_id}: collective span still open")
    t0, t1 = root.t0, root.t1
    wall = t1 - t0

    # bucket -> [(lo, hi, sid, component, name), ...]
    productive: Dict[str, List[tuple]] = {p: [] for p in PHASE_PRIORITY}
    waits: Dict[str, List[tuple]] = {}
    span_count = 0
    wait_span_count = 0
    for span in tracer.spans_for(op_id):
        if span.sid == root.sid or not span.closed:
            continue
        if span.phase in productive:
            clip = _clip(span, t0, t1)
            if clip is not None:
                productive[span.phase].append(
                    (clip[0], clip[1], span.sid, span.component, span.name))
                span_count += 1
        elif span.phase == WAIT_PHASE:
            clip = _clip(span, t0, t1)
            if clip is not None:
                cause = dict(span.detail).get("cause", "unknown")
                waits.setdefault(cause, []).append(
                    (clip[0], clip[1], span.sid, span.component, span.name))
                wait_span_count += 1

    wait_order = [c for c in WAIT_PRIORITY if c in waits]
    wait_order += sorted(c for c in waits if c not in WAIT_PRIORITY)

    # One boundary set for both attributions: identical elementary
    # intervals, identical widths, identical float additions.
    bounds = {t0, t1}
    for intervals in productive.values():
        for lo, hi, _sid, _comp, _name in intervals:
            bounds.add(lo)
            bounds.add(hi)
    for intervals in waits.values():
        for lo, hi, _sid, _comp, _name in intervals:
            bounds.add(lo)
            bounds.add(hi)
    cuts = sorted(bounds)

    crit_intervals: Dict[str, List[tuple]] = {"wire": productive["wire"],
                                              "poe": productive["poe"]}
    crit_order = ["wire", "poe"]
    for cause in wait_order:
        bucket = f"wait:{cause}"
        crit_order.append(bucket)
        crit_intervals[bucket] = waits[cause]
    crit_order += ["dmp", "uc"]
    crit_intervals["dmp"] = productive["dmp"]
    crit_intervals["uc"] = productive["uc"]

    phases = {p: 0.0 for p in PHASE_PRIORITY}
    phases["other"] = 0.0
    totals = {b: 0.0 for b in crit_order}
    totals["other"] = 0.0
    segments: List[Dict[str, Any]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2.0
        width = hi - lo
        for phase in PHASE_PRIORITY:
            if any(a <= mid < b
                   for a, b, _s, _c, _n in productive[phase]):
                phases[phase] += width
                break
        else:
            phases["other"] += width
        winner = None
        for bucket in crit_order:
            cover = [iv for iv in crit_intervals[bucket]
                     if iv[0] <= mid < iv[1]]
            if cover:
                # Several overlapping spans of the same bucket: credit the
                # earliest-starting one (deterministic tiebreak on sid).
                winner = (bucket, min(cover, key=lambda iv: (iv[0], iv[2])))
                break
        if winner is None:
            totals["other"] += width
            sid, comp, sname = -1, "", ""
            bucket = "other"
        else:
            bucket, iv = winner
            totals[bucket] += width
            sid, comp, sname = iv[2], iv[3], iv[4]
        last = segments[-1] if segments else None
        if (last is not None and last["bucket"] == bucket
                and last["sid"] == sid and last["t1"] == lo):
            last["t1"] = hi
            last["dur_s"] = last["t1"] - last["t0"]
        else:
            segments.append({"t0": lo, "t1": hi, "dur_s": width,
                             "bucket": bucket, "sid": sid,
                             "component": comp, "span": sname})

    wait_observed: Dict[str, float] = {}
    for cause in wait_order:
        merged = 0.0
        cur_lo = cur_hi = None
        for lo, hi, _s, _c, _n in sorted(waits[cause]):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    merged += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            merged += cur_hi - cur_lo
        wait_observed[cause] = merged

    return {
        "op_id": op_id,
        "name": root.name,
        "node": root.node,
        "t0": t0,
        "t1": t1,
        "wall_s": wall,
        "spans": span_count,
        "wait_spans": wait_span_count,
        "phases": phases,
        "fractions": {
            p: (v / wall if wall > 0 else 0.0) for p, v in phases.items()
        },
        "totals": totals,
        "segments": segments,
        "wait_observed": wait_observed,
        "incomplete": getattr(tracer, "spans_dropped", 0) > 0,
    }


def render_phase_table(breakdowns: Sequence[Dict[str, Any]]) -> str:
    """Fixed-width phase table over one or more :func:`attribute_op`
    reports."""
    phases = list(PHASE_PRIORITY) + ["other"]
    header = (f"{'op':>4}  {'collective':<24} {'wall_us':>10}  "
              + "  ".join(f"{p + '%':>6}" for p in phases))
    lines = [header, "-" * len(header)]
    for bd in breakdowns:
        fr = bd["fractions"]
        lines.append(
            f"{bd['op_id']:>4}  {bd['name']:<24} {bd['wall_s'] * 1e6:>10.2f}  "
            + "  ".join(f"{fr.get(p, 0.0) * 100:>6.1f}" for p in phases))
    return "\n".join(lines)
