"""Self-contained HTML dashboard for a traced artifact (``bench dashboard``).

One file, no external assets: inline CSS, inline-SVG time-series charts, CSS
stacked bars for the phase breakdown, an HTML flamegraph built from the
collapsed stacks, and the fidelity decision log.  Open it in any browser —
including the artifact viewer of a CI run — without network access.

The renderer is pure string assembly over an
:class:`~repro.obs.capture.TraceCapture`; it never mutates the capture, so
it can re-render the same run at will.
"""

from __future__ import annotations

from html import escape
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.capture import TraceCapture
from repro.obs.critpath import to_collapsed_stacks
from repro.obs.export import PHASE_PRIORITY

#: phase -> bar color (colorblind-safe-ish, dark-on-light)
_PHASE_COLORS = {
    "wire": "#2f6fb5", "poe": "#4aa36a", "dmp": "#c98a2d",
    "uc": "#9266b8", "other": "#9aa0a6",
}
_WAIT_COLOR = "#c5504b"

_CSS = """
body { font: 13px/1.5 system-ui, -apple-system, sans-serif;
       margin: 0; color: #1f2328; background: #f6f8fa; }
header { background: #1f2937; color: #f9fafb; padding: 14px 28px; }
header h1 { font-size: 17px; margin: 0 0 2px; }
header .sub { color: #9ca3af; font-size: 12px; }
main { max-width: 1080px; margin: 0 auto; padding: 18px 28px 48px; }
section { background: #fff; border: 1px solid #d0d7de; border-radius: 8px;
          margin: 18px 0; padding: 14px 18px; }
h2 { font-size: 14px; margin: 0 0 10px; border-bottom: 1px solid #eaeef2;
     padding-bottom: 6px; }
table { border-collapse: collapse; width: 100%; font-size: 12px; }
th, td { text-align: left; padding: 3px 10px 3px 0; white-space: nowrap; }
th { color: #57606a; font-weight: 600; border-bottom: 1px solid #d0d7de; }
td.num, th.num { text-align: right; }
.bar { display: flex; height: 14px; border-radius: 3px; overflow: hidden;
       min-width: 220px; background: #eaeef2; }
.bar div { height: 100%; }
.chart { margin: 10px 0 2px; }
.chart .t { font-size: 12px; color: #57606a; margin-bottom: 2px; }
svg.series { background: #fbfcfd; border: 1px solid #eaeef2;
             border-radius: 4px; }
.fg div { position: absolute; box-sizing: border-box; height: 17px;
          font-size: 10px; line-height: 16px; overflow: hidden;
          white-space: nowrap; border: 1px solid #fff; border-radius: 2px;
          padding: 0 3px; color: #1f2328; }
.note { color: #57606a; font-size: 12px; }
.badge { display: inline-block; background: #ddf4ff; color: #0969da;
         border-radius: 10px; padding: 0 8px; font-size: 11px;
         margin-left: 6px; }
code { background: #eff2f5; padding: 0 4px; border-radius: 3px; }
"""


def _fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:,.3f}"


# ---------------------------------------------------------------------------
# Time-series charts (inline SVG)
# ---------------------------------------------------------------------------

def _series_from_samples(samples: Sequence[Dict[str, Any]],
                         ) -> Dict[str, List[Tuple[float, float]]]:
    """Aggregate sampled values by metric *base name* (sum across label
    sets per timestamp) -> ordered (t, value) points."""
    acc: Dict[str, Dict[float, float]] = {}
    for s in samples:
        t = s["t"]
        for ks, value in s["values"].items():
            base = ks.split("{", 1)[0]
            acc.setdefault(base, {})
            acc[base][t] = acc[base].get(t, 0.0) + value
    return {name: sorted(points.items()) for name, points in acc.items()}


def _svg_chart(name: str, points: List[Tuple[float, float]],
               width: int = 480, height: int = 96) -> str:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    pad = 4
    w, h = width - 2 * pad, height - 2 * pad
    coords = " ".join(
        f"{pad + (x - x0) / xr * w:.1f},{pad + h - (y - y0) / yr * h:.1f}"
        for x, y in points)
    return (
        f'<div class="chart"><div class="t">{escape(name)} '
        f'<span class="note">last {ys[-1]:,.0f} · max {y1:,.0f} · '
        f'{len(points)} samples over {_fmt_us(x1 - x0)} us</span></div>'
        f'<svg class="series" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#2f6fb5" stroke-width="1.5" '
        f'points="{coords}"/></svg></div>')


def _render_timeseries(capture: TraceCapture, min_charts: int = 3) -> str:
    telemetry = capture.obs.telemetry
    if telemetry is None or not telemetry.samples:
        return ('<p class="note">No telemetry recorded — re-trace with a '
                'cadence (<code>bench dashboard</code> sets one '
                'automatically).</p>')
    series = _series_from_samples(list(telemetry.samples))
    # Moving series first (they tell the story); pad with flat ones so the
    # dashboard always shows at least *min_charts* charts.
    moving = {n: p for n, p in series.items()
              if len(p) > 1 and p[-1][1] != p[0][1]}
    chosen = sorted(moving)
    for name in sorted(series):
        if len(chosen) >= max(min_charts, len(moving)):
            break
        if name not in moving:
            chosen.append(name)
    charts = [_svg_chart(n, series[n]) for n in chosen[:12]]
    info = telemetry.summary()
    head = (f'<p class="note">{info["taken"]} samples at a '
            f'{_fmt_us(info["cadence"])} us cadence '
            f'({info["dropped"]} dropped by the ring buffer); '
            f'{len(series)} metric series, {len(moving)} moving.</p>')
    return head + "".join(charts)


# ---------------------------------------------------------------------------
# Phase / wait-cause breakdowns
# ---------------------------------------------------------------------------

def _stacked_bar(parts: List[Tuple[str, float, str]]) -> str:
    total = sum(frac for _, frac, _ in parts) or 1.0
    cells = "".join(
        f'<div style="width:{frac / total * 100:.2f}%;'
        f'background:{color}" title="{escape(label)}"></div>'
        for label, frac, color in parts if frac > 0)
    return f'<div class="bar">{cells}</div>'


def _render_breakdowns(reports: List[Dict[str, Any]]) -> str:
    phases = list(PHASE_PRIORITY) + ["other"]
    rows = []
    for rep in reports:
        fr = rep["fractions"]
        wait_frac = sum(v for k, v in rep["totals"].items()
                        if k.startswith("wait:")) / (rep["wall_s"] or 1.0)
        parts = [(f"{p} {fr.get(p, 0) * 100:.1f}%", fr.get(p, 0.0),
                  _PHASE_COLORS[p]) for p in phases]
        parts.insert(2, (f"wait {wait_frac * 100:.1f}%", 0.0, _WAIT_COLOR))
        rows.append(
            f"<tr><td>{rep['op_id']}</td>"
            f"<td>{escape(str(rep['name']))}</td>"
            f"<td class='num'>{_fmt_us(rep['wall_s'])}</td>"
            + "".join(f"<td class='num'>{fr.get(p, 0) * 100:.1f}</td>"
                      for p in phases)
            + f"<td class='num'>{wait_frac * 100:.1f}</td>"
            f"<td>{_stacked_bar(parts)}</td></tr>")
    header = ("<tr><th>op</th><th>collective</th><th class='num'>wall us</th>"
              + "".join(f"<th class='num'>{p}%</th>" for p in phases)
              + "<th class='num'>wait%</th><th>phases</th></tr>")
    return f"<table>{header}{''.join(rows)}</table>"


def _render_wait_causes(reports: List[Dict[str, Any]]) -> str:
    causes: Dict[str, float] = {}
    for rep in reports:
        for bucket, value in rep["totals"].items():
            if bucket.startswith("wait:"):
                causes[bucket[5:]] = causes.get(bucket[5:], 0.0) + value
    if not causes:
        return ('<p class="note">No critical-path wait time: every instant '
                'of every op was productive.</p>')
    total = sum(causes.values())
    rows = "".join(
        f"<tr><td>{escape(cause)}</td>"
        f"<td class='num'>{_fmt_us(value)}</td>"
        f"<td class='num'>{value / total * 100:.1f}</td>"
        f"<td>{_stacked_bar([(cause, value, _WAIT_COLOR)] + [('', total - value, '#eaeef2')])}</td></tr>"
        for cause, value in sorted(causes.items(), key=lambda kv: -kv[1]))
    return ("<table><tr><th>cause</th><th class='num'>blocked us</th>"
            f"<th class='num'>share%</th><th></th></tr>{rows}</table>")


# ---------------------------------------------------------------------------
# Fidelity decision log
# ---------------------------------------------------------------------------

def _render_decisions(capture: TraceCapture, fidelity: str,
                      max_rows: int = 200) -> str:
    registry = capture.obs.registry
    totals: Dict[Tuple[str, str], float] = {}
    for metric in registry.metrics():
        if metric.name in ("link_flow_decisions", "poe_flow_decisions"):
            value = metric.value
            if value:
                reason = dict(metric.labels).get("reason", "?")
                side = "link" if metric.name.startswith("link") else "poe"
                totals[(side, reason)] = totals.get((side, reason), 0) + value
    spans = [s for s in capture.obs.tracer.completed_spans
             if s.phase == "fidelity"]
    if not totals and not spans:
        mode_note = (
            "This trace ran at <b>packet</b> fidelity: every segment was an "
            "individual wire event, so no flow admission or burst decisions "
            "were taken.  Re-trace with <code>REPRO_FIDELITY=flow</code> "
            "(or <code>--fidelity flow</code>) to see the decision log."
            if fidelity != "flow" else
            "No flow decisions were recorded: every message stayed below "
            "the burst admission floor.")
        return f'<p class="note">{mode_note}</p>'
    counts = "".join(
        f"<tr><td>{side}</td><td>{escape(reason)}</td>"
        f"<td class='num'>{value:,.0f}</td></tr>"
        for (side, reason), value in sorted(
            totals.items(), key=lambda kv: (-kv[1], kv[0])))
    out = ("<table><tr><th>side</th><th>reason</th>"
           f"<th class='num'>count</th></tr>{counts}</table>")
    if spans:
        spans = sorted(spans, key=lambda s: s.t0)
        shown = spans[:max_rows]
        rows = "".join(
            f"<tr><td class='num'>{_fmt_us(s.t0)}</td>"
            f"<td>{escape(s.component)}</td>"
            f"<td>{escape(s.name)}</td>"
            f"<td class='num'>{s.op_id}</td>"
            f"<td class='num'>{dict(s.detail).get('nbytes', '')}</td>"
            f"<td class='num'>{dict(s.detail).get('segments', '')}</td></tr>"
            for s in shown)
        more = (f'<p class="note">… {len(spans) - len(shown)} more decisions '
                "elided.</p>" if len(spans) > len(shown) else "")
        out += ("<h2 style='margin-top:14px'>Decision timeline</h2>"
                "<table><tr><th class='num'>t (us)</th><th>where</th>"
                "<th>decision</th><th class='num'>op</th>"
                f"<th class='num'>bytes</th><th class='num'>segs</th></tr>"
                f"{rows}</table>{more}")
    return out


# ---------------------------------------------------------------------------
# Flamegraph embed (pure HTML/CSS)
# ---------------------------------------------------------------------------

def _render_flamegraph(capture: TraceCapture, width: int = 1000,
                       max_depth: int = 12) -> str:
    lines = to_collapsed_stacks(capture.obs.tracer, capture.op_ids)
    if not lines:
        return '<p class="note">No closed spans to fold.</p>'
    # Fold the collapsed stacks into a tree of exclusive nanosecond counts.
    root: Dict[str, Any] = {"children": {}, "self": 0, "total": 0}
    for line in lines:
        stack, ns_str = line.rsplit(" ", 1)
        ns = int(ns_str)
        node = root
        node["total"] += ns
        for frame in stack.split(";")[:max_depth]:
            node = node["children"].setdefault(
                frame, {"children": {}, "self": 0, "total": 0})
            node["total"] += ns
        node["self"] += ns
    total = root["total"] or 1
    palette = ["#f2a35e", "#e88f52", "#f2b878", "#e8a152", "#f2c08e"]
    cells: List[str] = []

    def _emit(node: Dict[str, Any], depth: int, left: float) -> None:
        x = left
        for i, (frame, child) in enumerate(sorted(node["children"].items())):
            w = child["total"] / total * width
            if w < 1.0:
                x += w
                continue
            us = child["total"] / 1e3
            label = escape(frame)
            cells.append(
                f'<div style="left:{x:.1f}px;top:{depth * 18}px;'
                f'width:{max(w - 1, 1):.1f}px;'
                f'background:{palette[(depth + i) % len(palette)]}" '
                f'title="{label} — {us:,.1f} us '
                f'({child["total"] / total * 100:.1f}%)">{label}</div>')
            _emit(child, depth + 1, x)
            x += w

    _emit(root, 0, 0.0)
    depth_used = 1
    for line in lines:
        depth_used = max(depth_used,
                         min(len(line.rsplit(" ", 1)[0].split(";")),
                             max_depth))
    height = depth_used * 18 + 4
    return (f'<p class="note">Exclusive self-time per span stack, '
            f'{len(lines)} unique stacks; hover for exact times.</p>'
            f'<div class="fg" style="position:relative;width:{width}px;'
            f'height:{height}px">{"".join(cells)}</div>')


# ---------------------------------------------------------------------------
# Page assembly
# ---------------------------------------------------------------------------

def render_dashboard(capture: TraceCapture,
                     fidelity: Optional[str] = None,
                     diff_doc: Optional[Dict[str, Any]] = None) -> str:
    """Render *capture* as one self-contained HTML page.

    ``diff_doc`` (a :func:`repro.obs.diff.diff_files` document) adds a
    "Differential vs baseline" section with the ranked delta table.
    """
    if fidelity is None:
        from repro.network.fidelity import default_fidelity
        fidelity = default_fidelity()
    reports = capture.breakdowns()
    summary = capture.obs.summary()
    wall = max((r["t1"] for r in reports), default=0.0) - \
        min((r["t0"] for r in reports), default=0.0)
    badges = (f'<span class="badge">{len(capture.op_ids)} ops</span>'
              f'<span class="badge">{summary["spans"]} spans</span>'
              f'<span class="badge">fidelity: {escape(fidelity)}</span>')
    drops = summary["spans_dropped"]
    drop_note = (f'<p class="note">⚠ {drops} spans dropped at capacity — '
                 "totals below are partial.</p>" if drops else "")
    sections = [
        ("Run", f'<table>'
                f'<tr><th>artifact</th><td>{escape(capture.artifact)}</td></tr>'
                f'<tr><th>scenario</th><td>{escape(capture.description)}</td></tr>'
                f'<tr><th>traced wall</th><td>{_fmt_us(wall)} us</td></tr>'
                f'<tr><th>spans</th><td>{summary["spans"]:,} '
                f'({drops} dropped)</td></tr>'
                f'<tr><th>telemetry</th><td>'
                f'{summary.get("telemetry_samples", 0)} samples '
                f'({summary.get("telemetry_dropped", 0)} dropped)</td></tr>'
                f'</table>{drop_note}'),
        ("Metric time-series", _render_timeseries(capture)),
        ("Phase breakdown (per collective)", _render_breakdowns(reports)),
        ("Critical-path wait causes", _render_wait_causes(reports)),
        ("Fidelity decision log", _render_decisions(capture, fidelity)),
        ("Flamegraph", _render_flamegraph(capture)),
    ]
    if diff_doc is not None:
        from repro.obs.diff import render_diff_html
        sections.insert(2, ("Differential vs baseline",
                            render_diff_html(diff_doc)))
    body = "".join(f"<section><h2>{escape(title)}</h2>{html}</section>"
                   for title, html in sections)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>repro dashboard — {escape(capture.artifact)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<header><h1>repro · {escape(capture.artifact)} {badges}</h1>"
        f'<div class="sub">{escape(capture.description)}</div></header>'
        f"<main>{body}</main></body></html>\n")
