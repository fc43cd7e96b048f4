"""Critical-path extraction and wait-cause attribution (``bench critpath``).

The span tracer records two kinds of intervals per collective ``op_id``:
*productive* phase spans (uc / dmp / poe / wire — PR 3) and *wait* spans
(``phase="wait"``, ``cause=...``) recorded at every blocking site of the
engine — uC dispatch serialization, DMP slot exhaustion, operand match
stalls, Rx-pool backpressure, rendezvous handshakes, POE flow control
(TCP retransmission window / RDMA credits), link egress contention and
PCIe staging.  This module turns them into answers:

- :func:`render_critpath` — one exclusive timeline over the op's wall
  window where every instant is either productive or explained by a wait
  cause, as :func:`~repro.obs.export.attribute_op` reports it.  The
  report's cause totals and phase buckets share one interval sweep, so
  they reconcile exactly against each other and the wall sim-time.
- :func:`to_collapsed_stacks` / :func:`write_flamegraph` — collapsed-stack
  output (``frame;frame;frame count``) for flamegraph.pl / speedscope /
  inferno; frame values are exclusive self-time in integer nanoseconds.
- :func:`per_node_report` — per-node and per-link outlier attribution
  (``bench critpath --per-node``): span time aggregated by entity with
  wait-cause breakdowns and z-score straggler flagging, for finding the
  slow node or congested uplink in a large-fabric run.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.spans import Span, SpanTracer


def render_critpath(report: Dict[str, Any]) -> str:
    """Human-readable critical path of one
    :func:`~repro.obs.export.attribute_op` report, with per-cause totals
    and the reconciliation line ``bench critpath`` prints."""
    wall_us = report["wall_s"] * 1e6
    lines = [
        f"op {report['op_id']}  {report['name']}  "
        f"wall {wall_us:.3f} us  ({report['node']}, "
        f"{report['spans']} phase spans, {report['wait_spans']} waits)",
        "  critical path:",
    ]
    base = report["t0"]
    for seg in report["segments"]:
        where = seg["component"]
        if seg["span"] and seg["span"] != seg["bucket"]:
            where = f"{where}  {seg['span']}" if where else seg["span"]
        lines.append(
            f"    {(seg['t0'] - base) * 1e6:>10.3f} .. "
            f"{(seg['t1'] - base) * 1e6:>10.3f} us  "
            f"{seg['dur_s'] * 1e6:>9.3f} us  {seg['bucket']:<22} {where}")
    totals = sorted(report["totals"].items(),
                    key=lambda kv: (-kv[1], kv[0]))
    lines.append("  totals: " + " | ".join(
        f"{bucket} {value * 1e6:.3f}us "
        f"({value / report['wall_s'] * 100 if report['wall_s'] else 0:.1f}%)"
        for bucket, value in totals if value > 0))
    observed = sorted(report["wait_observed"].items(),
                      key=lambda kv: (-kv[1], kv[0]))
    if observed:
        lines.append("  waits observed: " + " | ".join(
            f"{cause} {value * 1e6:.3f}us" for cause, value in observed))
    path_total = sum(report["totals"].values())
    phase_total = sum(report["phases"].values())
    tol = 1e-9 * max(abs(report["wall_s"]), 1e-12)
    ok = (abs(path_total - report["wall_s"]) <= tol
          and abs(phase_total - report["wall_s"]) <= tol)
    lines.append(
        f"  reconciliation: path {path_total * 1e6:.3f}us == "
        f"phase buckets {phase_total * 1e6:.3f}us == "
        f"wall {wall_us:.3f}us [{'OK' if ok else 'MISMATCH'}]")
    if report.get("incomplete"):
        lines.append("  WARNING: span ring buffer overflowed — dropped "
                     "spans are missing from these totals (INCOMPLETE)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-node / per-link outlier attribution
# ---------------------------------------------------------------------------

def _span_entity(component: str, name: str, cause: Optional[str]):
    """Classify one span's timeline owner.

    Link spans are recorded with the *link name* as their component —
    ``wait:link_busy`` queueing stalls (:meth:`repro.network.link.Link.send`)
    and flow-mode ``wire:burst`` occupancy — while engine spans use
    ``<node>.<component>`` names whose node prefix owns them.
    """
    if cause == "link_busy" or name == "wire:burst":
        return "link", component
    return "node", component.partition(".")[0]


def per_node_report(capture, top_k: int = 10,
                    z_threshold: float = 2.5) -> Dict[str, Any]:
    """Aggregate a :class:`~repro.obs.capture.TraceCapture`'s spans per
    node and per link, flagging statistical stragglers.

    For every entity the report sums *raw* span time clipped to the ops'
    windows — productive time by phase, stall time by wait cause — plus
    the entity's share of the exclusive critical path (the segments of
    the capture's :meth:`~repro.obs.capture.TraceCapture.breakdowns`
    reports).  Raw time is comparable across symmetric peers (every rank
    of a ring does the same work), so each entity gets a z-score of its
    total observed time against the other entities of its kind;
    ``|z| >= z_threshold`` flags it a straggler.
    An injected slow node or throttled uplink surfaces at the top of its
    table with the wait causes that explain it.
    """
    reports = capture.breakdowns()
    window_by_op = {r["op_id"]: (r["t0"], r["t1"]) for r in reports}
    incomplete = any(r.get("incomplete", False) for r in reports)

    def _clipped(span: Span) -> float:
        # Clip to the span's own op window only — concurrent ops have
        # heavily overlapping windows and clipping against the union
        # would multi-count every span.
        t0, t1 = window_by_op[span.op_id]
        lo, hi = max(span.t0, t0), min(span.t1, t1)
        return hi - lo if hi > lo else 0.0

    entities: Dict[tuple, Dict[str, Any]] = {}

    def _entity(kind: str, name: str) -> Dict[str, Any]:
        ent = entities.get((kind, name))
        if ent is None:
            ent = {"name": name, "kind": kind, "busy_s": 0.0, "wait_s": 0.0,
                   "crit_s": 0.0, "spans": 0, "causes": {}, "phases": {}}
            entities[(kind, name)] = ent
        return ent

    for span in capture.tracer.iter_spans():
        if span.op_id not in window_by_op or not span.closed:
            continue
        if span.phase in ("collective", "fidelity"):
            continue
        dur = _clipped(span)
        if dur <= 0.0:
            continue
        detail = dict(span.detail)
        kind, name = _span_entity(span.component, span.name,
                                  detail.get("cause"))
        ent = _entity(kind, name)
        ent["spans"] += 1
        if span.phase == "wait":
            cause = detail.get("cause", "unknown")
            ent["wait_s"] += dur
            ent["causes"][cause] = ent["causes"].get(cause, 0.0) + dur
        else:
            ent["busy_s"] += dur
            ent["phases"][span.phase] = (
                ent["phases"].get(span.phase, 0.0) + dur)

    for report in reports:
        for seg in report["segments"]:
            if not seg["component"]:
                continue
            cause = (seg["bucket"][5:]
                     if seg["bucket"].startswith("wait:") else None)
            kind, name = _span_entity(seg["component"], seg["span"], cause)
            _entity(kind, name)["crit_s"] += seg["dur_s"]

    groups: Dict[str, List[Dict[str, Any]]] = {"node": [], "link": []}
    for ent in entities.values():
        ent["total_s"] = ent["busy_s"] + ent["wait_s"]
        groups[ent["kind"]].append(ent)
    flagged: List[str] = []
    for kind, members in groups.items():
        scores = [m["total_s"] for m in members]
        n = len(scores)
        mean = sum(scores) / n if n else 0.0
        var = sum((s - mean) ** 2 for s in scores) / n if n else 0.0
        std = math.sqrt(var)
        for member in members:
            member["z"] = (member["total_s"] - mean) / std if std > 0 else 0.0
            member["straggler"] = member["z"] >= z_threshold
            if member["straggler"]:
                flagged.append(member["name"])
        members.sort(key=lambda m: (-m["total_s"], m["name"]))

    return {
        "ops": sorted(window_by_op),
        "top_k": top_k,
        "z_threshold": z_threshold,
        "incomplete": incomplete,
        "nodes": groups["node"][:top_k],
        "links": groups["link"][:top_k],
        "node_count": len(groups["node"]),
        "link_count": len(groups["link"]),
        "stragglers": sorted(flagged),
    }


def _fmt_causes(totals: Dict[str, float], limit: int = 3) -> str:
    parts = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
    return " ".join(f"{name}={value * 1e6:.1f}us" for name, value in parts)


def render_per_node(report: Dict[str, Any]) -> str:
    """Fixed-width top-k tables over a :func:`per_node_report`."""
    lines = [
        f"per-node attribution over {len(report['ops'])} op(s): "
        f"{report['node_count']} nodes, {report['link_count']} links "
        f"(z-threshold {report['z_threshold']:.1f})",
    ]
    if report["incomplete"]:
        lines.append("WARNING: span ring buffer overflowed — totals are "
                     "partial (INCOMPLETE)")
    for kind, members in (("node", report["nodes"]),
                          ("link", report["links"])):
        if not members:
            continue
        header = (f"  {kind:<6} {'name':<28} {'busy_us':>10} {'wait_us':>10} "
                  f"{'crit_us':>10} {'z':>6}  top causes")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for m in members:
            flag = " STRAGGLER" if m["straggler"] else ""
            causes = _fmt_causes(m["causes"])
            lines.append(
                f"  {kind:<6} {m['name']:<28} {m['busy_s'] * 1e6:>10.1f} "
                f"{m['wait_s'] * 1e6:>10.1f} {m['crit_s'] * 1e6:>10.1f} "
                f"{m['z']:>6.2f}  {causes}{flag}")
    if report["stragglers"]:
        lines.append("  stragglers: " + ", ".join(report["stragglers"]))
    else:
        lines.append("  no stragglers flagged")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Collapsed-stack flamegraphs
# ---------------------------------------------------------------------------

def _child_union(children, lo: float, hi: float) -> float:
    """Total time the (clipped, merged) child intervals cover in [lo, hi]."""
    ivs = sorted((max(c.t0, lo), min(c.t1, hi))
                 for c in children if c.closed and min(c.t1, hi) > max(c.t0, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in ivs:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def to_collapsed_stacks(tracer: SpanTracer,
                        op_ids: Optional[Iterable[int]] = None) -> List[str]:
    """Collapsed-stack lines (``frame;frame count``), one per unique stack.

    Frames are ``component:name`` along the span's parent chain (op root
    first); counts are the span's *exclusive* self-time — duration minus
    the union of its children — in integer nanoseconds, folded across all
    selected ops.  Pipe the output through ``flamegraph.pl`` or paste it
    into https://www.speedscope.app.
    """
    spans = tracer.completed_spans
    if op_ids is not None:
        wanted = set(op_ids)
        spans = [s for s in spans if s.op_id in wanted]
    by_sid = {s.sid: s for s in spans}
    children: Dict[int, List] = {}
    for s in spans:
        if s.parent in by_sid:
            children.setdefault(s.parent, []).append(s)
    totals: Dict[str, int] = {}
    for s in spans:
        frames = []
        cur = s
        depth = 0
        while cur is not None and depth < 64:
            frames.append(f"{cur.component}:{cur.name}")
            cur = by_sid.get(cur.parent)
            depth += 1
        frames.reverse()
        self_s = s.duration - _child_union(children.get(s.sid, ()),
                                           s.t0, s.t1)
        ns = int(round(max(self_s, 0.0) * 1e9))
        if ns <= 0:
            continue
        key = ";".join(frames)
        totals[key] = totals.get(key, 0) + ns
    return [f"{stack} {ns}" for stack, ns in sorted(totals.items())]


def write_flamegraph(tracer: SpanTracer, path: str,
                     op_ids: Optional[Iterable[int]] = None) -> int:
    """Write :func:`to_collapsed_stacks` output; returns lines written."""
    lines = to_collapsed_stacks(tracer, op_ids)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)
